#ifndef OMNIMATCH_CORE_CONFIG_H_
#define OMNIMATCH_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace omnimatch {
namespace core {

/// Which text feature extractor backs the Feature Extraction Module.
enum class ExtractorKind {
  kCnn,          // the paper's default (§4.2)
  kTransformer,  // the Table 5 "OmniMatch-BERT" substitute
};

/// Which review field feeds the documents (§5.2 / Table 5).
enum class TextField {
  kSummary,   // "review summary" — the paper's default
  kFullText,  // "reviewText" — the OmniMatch-ReviewText ablation
};

/// Optimizer choice. The paper trains with Adadelta (§5.4); Adam is provided
/// because at this repository's reduced model scale it converges in far
/// fewer epochs (see DESIGN.md §7).
enum class OptimizerKind { kAdadelta, kAdam };

/// All hyperparameters of OmniMatch plus the ablation switches used by the
/// Table 5 experiments. Defaults are the paper's values scaled for CPU
/// execution (see DESIGN.md §7; paper values in comments).
struct OmniMatchConfig {
  // --- architecture ---
  int embed_dim = 32;                      // paper: 300 (fastText)
  int cnn_channels = 24;                   // paper: 200 kernels
  std::vector<int> kernel_sizes = {3, 4, 5};  // paper: (3, 4, 5)
  int feature_dim = 48;   // width of invariant and specific features
  int projection_dim = 24;                 // paper: 128
  int doc_len = 64;       // tokens kept per user document
  int item_doc_len = 96;  // tokens kept per item document
  int num_rating_classes = 5;

  // --- optimization (§5.4) ---
  float dropout = 0.4f;
  int batch_size = 64;
  int epochs = 10;                         // paper: 15
  /// Default optimizer is Adam: the paper's Adadelta (lr 0.02, ρ 0.95) is
  /// implemented and selectable, but at this repository's reduced model
  /// scale it needs several times more epochs to converge (see
  /// EXPERIMENTS.md, optimizer ablation).
  OptimizerKind optimizer = OptimizerKind::kAdam;
  float learning_rate = 0.02f;             // Adadelta lr (paper §5.4)
  float adadelta_rho = 0.95f;
  float adam_lr = 2e-3f;  // used when optimizer == kAdam
  float grad_clip_norm = 5.0f;
  /// After each epoch, evaluate on the split's validation users and keep the
  /// parameters of the best epoch (standard validation-based model
  /// selection; the paper's validation half of the cold users exists for
  /// exactly this).
  bool select_best_epoch = true;

  // --- loss weights (§4.5, §5.8) ---
  float alpha = 0.2f;  // supervised contrastive weight
  float beta = 0.1f;   // domain-adversarial weight
  float temperature = 0.07f;
  float grl_lambda = 1.0f;

  /// Feed the rating classifier an explicit elementwise-product feature
  /// (projected user ⊙ item) alongside the concatenation. Plain concat-MLPs
  /// approximate multiplicative user-item interactions poorly — DeepCoNN
  /// (the paper's ancestor) used a Factorization Machine for the same
  /// reason. Off reproduces the paper's literal Eq. 18 input.
  bool use_interaction_features = true;

  /// Concatenate the document's mean token embedding (bag-of-words mean) to
  /// the CNN output before the feature heads. Max-over-time pooling encodes
  /// word *presence*; the mean embedding adds word *frequency*, which the
  /// user/item taste profiles live in. Ablatable back to the paper's pure
  /// max-pooled features.
  bool use_mean_embedding_feature = true;

  /// Cold-start self-simulation (extension over the paper, ablatable):
  /// with this probability a training user's target document is replaced,
  /// per batch, by an Algorithm 1 auxiliary document generated from the
  /// *other* training users. This trains the target extractor and rating
  /// classifier on the same input distribution cold-start users will
  /// present at inference. 0 reproduces the paper's training exactly.
  float aux_augmentation_prob = 0.5f;

  /// Number of independently sampled auxiliary documents per cold-start
  /// user; predictions are averaged over them at evaluation time. Algorithm
  /// 1 is stochastic (random like-minded user, random review), so averaging
  /// integrates out the sampling noise. 1 reproduces the paper's single
  /// draw.
  int aux_eval_samples = 4;

  // --- regularization of the text pipeline ---
  /// During training, documents are re-assembled per batch with the user's
  /// (or item's) reviews in a fresh random order; evaluation documents are
  /// fixed. Review order inside a concatenated document is arbitrary
  /// (Eq. 1), so this augmentation only removes order memorization.
  bool shuffle_reviews_in_training = true;
  /// Probability of masking a token to <pad> during training assembly.
  float word_dropout = 0.1f;

  // --- ablation switches (Table 5) ---
  bool use_scl = true;
  bool use_domain_adversarial = true;
  bool use_aux_reviews = true;
  ExtractorKind extractor = ExtractorKind::kCnn;
  TextField text_field = TextField::kSummary;

  // --- misc ---
  uint64_t seed = 7;
  bool verbose = false;
  /// Worker threads for the shared compute pool (GEMM, conv, losses,
  /// document assembly). 0 = all hardware threads. Results are
  /// bit-identical for every setting; see DESIGN.md "Threading".
  int num_threads = 0;
  /// Record each distinct batch shape's training step once, compile it
  /// (dead-node elimination, kernel fusion, liveness-planned arena), and
  /// replay the compiled plan on later steps. Bit-identical to eager at
  /// every thread count; see DESIGN.md "Recorded-graph execution".
  bool graph_exec = false;

  // --- checkpointing (see DESIGN.md "Checkpoint format") ---
  /// Save a crash-safe checkpoint into `checkpoint_dir` every this many
  /// epochs. 0 disables periodic checkpointing.
  int checkpoint_every = 0;
  /// Directory for periodic checkpoints; created on first save. Required
  /// (non-empty) when checkpoint_every > 0.
  std::string checkpoint_dir;

  // --- observability (see DESIGN.md "Observability") ---
  /// When non-empty, Prepare() enables metrics collection and Train()
  /// writes a JSONL metrics snapshot (counters, gauges, phase histograms)
  /// to this path when it finishes.
  std::string metrics_out;
  /// When non-empty, Prepare() enables span tracing and Train() writes a
  /// Chrome trace_event JSON (open in chrome://tracing or Perfetto) to this
  /// path when it finishes.
  std::string trace_out;

  // --- self-healing guard (see DESIGN.md "Failure model & recovery") ---
  /// Check loss / gradient / parameter health every training step and, on a
  /// fault, roll back to the in-memory snapshot of the last good step, back
  /// off the learning rate and retry. With no faults occurring the guarded
  /// trajectory is bit-identical to an unguarded one (the guard only ever
  /// observes), so this is safe to leave on.
  bool guard_enabled = true;
  /// Divergence threshold: a step loss above spike_factor x EMA(loss) is
  /// treated as a fault once the EMA has seen guard_warmup_steps steps.
  float guard_spike_factor = 4.0f;
  float guard_ema_decay = 0.95f;
  int guard_warmup_steps = 10;
  /// Total recoveries (rollback + LR backoff + retry) allowed per Train()
  /// run before the guard gives up and stops training on the last good
  /// state.
  int max_recoveries = 3;
  /// Multiplier applied to the learning rate on every recovery.
  float lr_backoff = 0.5f;

  /// Validates ranges; returns InvalidArgument describing the first problem.
  Status Validate() const;

  /// Stable 64-bit digest of every field that shapes the training
  /// trajectory (architecture, optimization, losses, augmentation, seed).
  /// Stored in checkpoints and verified on load so a checkpoint can never
  /// be resumed under a config that would silently diverge. Deliberately
  /// EXCLUDED: `epochs` (resuming with a longer schedule is legitimate),
  /// `verbose`, `num_threads` (results are thread-count invariant), the
  /// checkpoint fields themselves, the guard fields (a fault-free
  /// guarded run is bit-identical to an unguarded one, and after a fault
  /// the backed-off learning rate travels inside the checkpoint), the
  /// observability sinks metrics_out / trace_out (instrumentation never
  /// touches an RNG stream, so traced runs are bit-identical too), and
  /// `graph_exec` (the recorded executor is bit-identical to eager, so a
  /// checkpoint from either mode resumes interchangeably under the other).
  uint64_t Fingerprint() const;
};

}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_CORE_CONFIG_H_
