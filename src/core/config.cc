#include "core/config.h"

#include "common/io.h"
#include "common/string_util.h"

namespace omnimatch {
namespace core {

Status OmniMatchConfig::Validate() const {
  if (embed_dim <= 0) return Status::InvalidArgument("embed_dim must be > 0");
  if (cnn_channels <= 0) {
    return Status::InvalidArgument("cnn_channels must be > 0");
  }
  if (kernel_sizes.empty()) {
    return Status::InvalidArgument("kernel_sizes must be non-empty");
  }
  for (int k : kernel_sizes) {
    if (k <= 0 || k > doc_len || k > item_doc_len) {
      return Status::InvalidArgument(
          StrFormat("kernel size %d out of range for doc_len %d", k,
                    doc_len));
    }
  }
  if (feature_dim <= 0) {
    return Status::InvalidArgument("feature_dim must be > 0");
  }
  if (projection_dim <= 0) {
    return Status::InvalidArgument("projection_dim must be > 0");
  }
  if (doc_len <= 0 || item_doc_len <= 0) {
    return Status::InvalidArgument("document lengths must be > 0");
  }
  if (num_rating_classes < 2) {
    return Status::InvalidArgument("num_rating_classes must be >= 2");
  }
  if (dropout < 0.0f || dropout >= 1.0f) {
    return Status::InvalidArgument("dropout must be in [0, 1)");
  }
  if (batch_size <= 1) {
    return Status::InvalidArgument(
        "batch_size must be > 1 (contrastive loss needs pairs)");
  }
  if (epochs < 0) return Status::InvalidArgument("epochs must be >= 0");
  if (learning_rate <= 0.0f) {
    return Status::InvalidArgument("learning_rate must be > 0");
  }
  if (adadelta_rho <= 0.0f || adadelta_rho >= 1.0f) {
    return Status::InvalidArgument("adadelta_rho must be in (0, 1)");
  }
  if (alpha < 0.0f || beta < 0.0f) {
    return Status::InvalidArgument("loss weights must be >= 0");
  }
  if (temperature <= 0.0f) {
    return Status::InvalidArgument("temperature must be > 0");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0 (0 = auto)");
  }
  if (checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0 (0 = off)");
  }
  if (checkpoint_every > 0 && checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every > 0 requires a checkpoint_dir");
  }
  if (guard_spike_factor <= 1.0f) {
    return Status::InvalidArgument(
        "guard_spike_factor must be > 1 (a factor <= 1 flags normal noise)");
  }
  if (guard_ema_decay <= 0.0f || guard_ema_decay >= 1.0f) {
    return Status::InvalidArgument("guard_ema_decay must be in (0, 1)");
  }
  if (guard_warmup_steps < 0) {
    return Status::InvalidArgument("guard_warmup_steps must be >= 0");
  }
  if (max_recoveries < 0) {
    return Status::InvalidArgument("max_recoveries must be >= 0");
  }
  if (lr_backoff <= 0.0f || lr_backoff > 1.0f) {
    return Status::InvalidArgument("lr_backoff must be in (0, 1]");
  }
  return Status::OK();
}

uint64_t OmniMatchConfig::Fingerprint() const {
  // Serialize the trajectory-shaping fields in a fixed order, then FNV-1a
  // the bytes. Field order is part of the checkpoint format: changing it
  // (or adding a field) invalidates old checkpoints, which is exactly the
  // safe behaviour.
  ByteWriter w;
  w.Write<int32_t>(embed_dim);
  w.Write<int32_t>(cnn_channels);
  for (int k : kernel_sizes) w.Write<int32_t>(k);
  w.Write<int32_t>(feature_dim);
  w.Write<int32_t>(projection_dim);
  w.Write<int32_t>(doc_len);
  w.Write<int32_t>(item_doc_len);
  w.Write<int32_t>(num_rating_classes);
  w.Write<float>(dropout);
  w.Write<int32_t>(batch_size);
  w.Write<int32_t>(static_cast<int32_t>(optimizer));
  w.Write<float>(learning_rate);
  w.Write<float>(adadelta_rho);
  w.Write<float>(adam_lr);
  w.Write<float>(grad_clip_norm);
  w.Write<uint8_t>(select_best_epoch ? 1 : 0);
  w.Write<float>(alpha);
  w.Write<float>(beta);
  w.Write<float>(temperature);
  w.Write<float>(grl_lambda);
  w.Write<uint8_t>(use_interaction_features ? 1 : 0);
  w.Write<uint8_t>(use_mean_embedding_feature ? 1 : 0);
  w.Write<float>(aux_augmentation_prob);
  // Slot of the retired hybrid-inference switch (always off), kept so the
  // digest of every existing config, checkpoint and snapshot stays put.
  w.Write<uint8_t>(0);
  w.Write<int32_t>(aux_eval_samples);
  w.Write<uint8_t>(shuffle_reviews_in_training ? 1 : 0);
  w.Write<float>(word_dropout);
  w.Write<uint8_t>(use_scl ? 1 : 0);
  w.Write<uint8_t>(use_domain_adversarial ? 1 : 0);
  w.Write<uint8_t>(use_aux_reviews ? 1 : 0);
  w.Write<int32_t>(static_cast<int32_t>(extractor));
  w.Write<int32_t>(static_cast<int32_t>(text_field));
  // Slot of the retired min_vocab_count option: the vocabulary keeps every
  // token seen at least once.
  w.Write<int32_t>(1);
  w.Write<uint64_t>(seed);

  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  for (unsigned char c : w.buffer()) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace core
}  // namespace omnimatch
