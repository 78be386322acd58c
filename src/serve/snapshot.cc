#include "serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "nn/tensor.h"
#include "text/document.h"
#include "text/tokenizer.h"

namespace omnimatch {
namespace serve {

namespace {

/// Snapshot identity: the config fingerprint already pins architecture,
/// seed and data-shaping switches; folding in the checkpoint's progress
/// counters distinguishes successive checkpoints of the same run.
uint64_t SnapshotVersion(uint64_t fingerprint, int32_t epochs, int64_t steps,
                         bool used_best_params) {
  uint64_t v = SplitMix64(fingerprint);
  v = SplitMix64(v ^ static_cast<uint64_t>(epochs));
  v = SplitMix64(v ^ static_cast<uint64_t>(steps));
  v = SplitMix64(v ^ (used_best_params ? 0x5eedULL : 0));
  return v;
}

/// Extraction chunk size. Every extractor forward is row-independent
/// (blocked GEMM accumulates each output element over K in a fixed order,
/// conv/pooling are per-row, dropout is a no-op in eval), so chunking
/// changes wall-clock shape but never a single output bit.
constexpr int kExtractChunkRows = 256;

/// Runs `extract` over `docs` (each `doc_len` tokens) in chunks of
/// kExtractChunkRows and returns one row per document: its rows of every
/// [chunk, width] tensor `extract` returns, concatenated in order.
template <typename Extract>
std::vector<std::vector<float>> ExtractRows(
    const std::vector<const std::vector<int>*>& docs, int doc_len,
    Extract extract) {
  std::vector<std::vector<float>> rows(docs.size());
  for (size_t begin = 0; begin < docs.size(); begin += kExtractChunkRows) {
    const size_t end = std::min(docs.size(), begin + kExtractChunkRows);
    std::vector<int> flat;
    flat.reserve((end - begin) * static_cast<size_t>(doc_len));
    for (size_t r = begin; r < end; ++r) {
      OM_CHECK_EQ(docs[r]->size(), static_cast<size_t>(doc_len));
      flat.insert(flat.end(), docs[r]->begin(), docs[r]->end());
    }
    const std::vector<nn::Tensor> parts =
        extract(flat, static_cast<int>(end - begin));
    for (size_t r = begin; r < end; ++r) {
      for (const nn::Tensor& t : parts) {
        const size_t width = static_cast<size_t>(t.dim(1));
        const float* src = t.data().data() + (r - begin) * width;
        rows[r].insert(rows[r].end(), src, src + width);
      }
    }
  }
  return rows;
}

/// Representative (user representation, item representation) pairs for
/// quantization calibration, computed with the float path over the frozen
/// evaluation documents in sorted-id order (deterministic: the sample — and
/// therefore every calibrated scale — is a pure function of the snapshot).
QuantizedRatingHead::CalibrationSample BuildCalibrationSample(
    const ModelSnapshot& snap) {
  QuantizedRatingHead::CalibrationSample sample;
  std::vector<int> user_ids, item_ids;
  user_ids.reserve(snap.user_target_docs().size());
  for (const auto& kv : snap.user_target_docs()) user_ids.push_back(kv.first);
  item_ids.reserve(snap.item_docs().size());
  for (const auto& kv : snap.item_docs()) item_ids.push_back(kv.first);
  if (user_ids.empty() || item_ids.empty()) return sample;
  std::sort(user_ids.begin(), user_ids.end());
  std::sort(item_ids.begin(), item_ids.end());

  const int pairs = std::min<int>(
      nn::quant::kCalibrationRows,
      static_cast<int>(std::max(user_ids.size(), item_ids.size())));
  // Users and items cycle independently, paired positionally.
  std::vector<const std::vector<int>*> user_docs, item_docs;
  for (size_t r = 0; r < static_cast<size_t>(pairs); ++r) {
    user_docs.push_back(
        &snap.user_target_docs().at(user_ids[r % user_ids.size()]));
    item_docs.push_back(&snap.item_docs().at(item_ids[r % item_ids.size()]));
  }
  for (const std::vector<float>& row : snap.UserRows(user_docs)) {
    sample.user_rows.insert(sample.user_rows.end(), row.begin(), row.end());
  }
  for (const std::vector<float>& row : snap.ItemRows(item_docs)) {
    sample.item_rows.insert(sample.item_rows.end(), row.begin(), row.end());
  }
  sample.rows = pairs;
  return sample;
}

}  // namespace

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const core::OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    data::ColdStartSplit split, const std::string& checkpoint_path,
    const Options& options) {
  OM_CHECK(cross != nullptr);

  // Rebuild the training run's derived state (vocabulary, fixed documents,
  // model architecture) by Prepare()-ing a throwaway trainer: the document
  // pipeline consumes the trainer's seeded RNG, so running the identical
  // code path is the only way to get bit-identical documents.
  core::OmniMatchTrainer trainer(config, cross, std::move(split));
  OM_RETURN_IF_ERROR(trainer.Prepare());

  Result<core::CheckpointState> loaded =
      core::LoadCheckpointFile(checkpoint_path);
  if (!loaded.ok()) return loaded.status();
  core::CheckpointState state = std::move(loaded).value();

  if (state.config_fingerprint != config.Fingerprint()) {
    return Status::InvalidArgument(
        checkpoint_path +
        ": checkpoint was written under a different config (fingerprint "
        "mismatch)");
  }
  const bool use_best = !state.best_params.empty();
  std::vector<std::vector<float>>& chosen =
      use_best ? state.best_params : state.params;

  auto snapshot = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snapshot->config_ = config;
  snapshot->cross_ = cross;
  snapshot->global_mean_rating_ = cross->target().GlobalMeanRating();
  snapshot->vocab_ = trainer.vocabulary();
  snapshot->aux_generator_ = std::make_unique<core::AuxReviewGenerator>(
      cross, trainer.split().train_users, config.text_field);
  snapshot->user_target_docs_ = trainer.user_target_docs();
  snapshot->item_docs_ = trainer.item_docs();
  snapshot->cold_aux_doc_variants_ = trainer.cold_aux_doc_variants();
  snapshot->pad_item_doc_.assign(static_cast<size_t>(config.item_doc_len),
                                 text::Vocabulary::kPadId);

  // A fresh model of the same architecture; its random initialization is
  // immediately overwritten by the checkpoint's parameters.
  Rng init_rng(config.seed);
  snapshot->model_ = std::make_unique<core::OmniMatchModel>(
      config, snapshot->vocab_.size(), &init_rng);
  std::vector<nn::Tensor> params = snapshot->model_->Parameters();
  if (chosen.size() != params.size()) {
    return Status::InvalidArgument(StrFormat(
        "%s: checkpoint holds %zu parameter tensors, model has %zu",
        checkpoint_path.c_str(), chosen.size(), params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (chosen[i].size() != params[i].data().size()) {
      return Status::InvalidArgument(StrFormat(
          "%s: parameter %zu has %zu values, model expects %zu",
          checkpoint_path.c_str(), i, chosen[i].size(),
          params[i].data().size()));
    }
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].data() = std::move(chosen[i]);
    // Inference never backpropagates; dropping requires_grad keeps the
    // forward pass from recording an autograd tape. The math is untouched.
    params[i].set_requires_grad(false);
  }
  // Recursive: pre-sets every submodule's flag so the forward pass never
  // writes shared state again — the precondition for running this model on
  // several executor threads concurrently (see OmniMatchModel docs).
  snapshot->model_->SetTrainingMode(false);

  snapshot->version_ = SnapshotVersion(state.config_fingerprint,
                                       state.epochs_completed, state.steps,
                                       use_best);

  if (options.quantize) {
    // Calibrate and quantize the rating head against the float model just
    // installed. Runs the float eval path, so it must come after the
    // parameters and eval mode are in place. Null (float serving) when the
    // frozen world is empty — nothing to calibrate against.
    snapshot->quant_head_ = QuantizedRatingHead::Build(
        *snapshot->model_, BuildCalibrationSample(*snapshot));
  }
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const core::OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    data::ColdStartSplit split, const std::string& checkpoint_path) {
  return Load(config, cross, std::move(split), checkpoint_path, Options());
}

std::vector<std::vector<float>> ModelSnapshot::UserRows(
    const std::vector<const std::vector<int>*>& docs) const {
  return ExtractRows(docs, config_.doc_len, [&](const std::vector<int>& flat,
                                                int rows) {
    core::OmniMatchModel::UserFeatures feat =
        model_->ExtractUser(data::DomainSide::kTarget, flat, rows);
    return std::vector<nn::Tensor>{feat.invariant, feat.specific};
  });
}

std::vector<std::vector<float>> ModelSnapshot::ItemRows(
    const std::vector<const std::vector<int>*>& docs) const {
  return ExtractRows(docs, config_.item_doc_len,
                     [&](const std::vector<int>& flat, int rows) {
                       return std::vector<nn::Tensor>{
                           model_->ExtractItem(flat, rows)};
                     });
}

std::vector<std::vector<int>> ModelSnapshot::BuildColdUserDocs(
    int user_id) const {
  const data::DomainDataset& source = cross_->source();
  const data::IdSpan records = source.RecordsOfUser(user_id);
  if (records.empty()) return {};

  auto source_texts = [&]() {
    std::vector<std::string> texts;
    for (int idx : records) {
      size_t i = static_cast<size_t>(idx);
      texts.emplace_back(config_.text_field == core::TextField::kSummary
                             ? source.ReviewSummary(i)
                             : source.ReviewFullText(i));
    }
    return texts;
  };

  // Seeded from (snapshot version, user id): admission is deterministic per
  // snapshot, independent of request order and of which replica serves it —
  // the same contract the offline parallel GenerateAll uses.
  Rng rng(core::AuxReviewGenerator::PerUserSeed(version_, user_id));
  int samples = std::max(1, config_.aux_eval_samples);
  if (!config_.use_aux_reviews) samples = 1;

  std::vector<std::vector<int>> docs;
  docs.reserve(static_cast<size_t>(samples));
  for (int k = 0; k < samples; ++k) {
    std::vector<std::string> reviews =
        config_.use_aux_reviews ? aux_generator_->GenerateForUser(user_id, &rng)
                                : source_texts();
    if (reviews.empty()) reviews = source_texts();
    docs.push_back(text::BuildDocumentIds(reviews, vocab_, config_.doc_len));
  }
  return docs;
}

}  // namespace serve
}  // namespace omnimatch
