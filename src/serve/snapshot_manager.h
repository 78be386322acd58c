#ifndef OMNIMATCH_SERVE_SNAPSHOT_MANAGER_H_
#define OMNIMATCH_SERVE_SNAPSHOT_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/config.h"
#include "data/splits.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace omnimatch {
namespace serve {

/// Zero-downtime snapshot rollout for a running InferenceServer.
///
/// SwapFromCheckpoint stages the ENTIRE load + validation off the hot path:
/// the candidate OMCK is read (its CRC framing is verified by the
/// checkpoint reader), its config fingerprint is checked against the
/// serving scenario, and a deterministic golden-probe set is scored against
/// the candidate — all while the server keeps serving the incumbent
/// snapshot at full rate. Only a candidate that passes every check is
/// installed, atomically, between batches (InferenceServer::SwapSnapshot);
/// in-flight batches finish on the incumbent.
///
/// Rollback is therefore trivial and implicit: on ANY failure — unreadable
/// or corrupt file, fingerprint mismatch, non-finite or out-of-range probe
/// scores, or an injected "snapshot_load" fault (common/fault.h) — the
/// candidate is discarded, the incumbent keeps serving, and the attempt is
/// counted in rollbacks() / serve.swap.rollback. There is no window in
/// which requests could observe a bad model.
///
/// Golden-probe validation: the probe set is derived from the candidate
/// itself (the 4 lowest user ids with frozen target documents × the 4
/// lowest item ids), scored twice at full fidelity.
/// Every score must be finite and inside [1, num_rating_classes], and the
/// two runs must agree bit-for-bit — a cheap end-to-end exercise of the
/// embedding, extractor, and head parameters that catches the classic
/// corruption modes (NaN/Inf poisoning, truncated tensors) without needing
/// stored reference values.
///
/// Thread-safe; swaps serialize against each other, never against scoring.
class SnapshotManager {
 public:
  /// `server` must outlive the manager. Candidates loaded from a checkpoint
  /// use `snapshot_options` (e.g. quantize).
  explicit SnapshotManager(InferenceServer* server,
                           ModelSnapshot::Options snapshot_options = {});

  /// Loads, validates, and — on success — atomically installs the
  /// checkpoint at `checkpoint_path` for the serving scenario
  /// (config/cross/split as in ModelSnapshot::Load; `cross` must outlive
  /// the server). On failure returns why, and the server is untouched.
  Status SwapFromCheckpoint(const core::OmniMatchConfig& config,
                            const data::CrossDomainDataset* cross,
                            data::ColdStartSplit split,
                            const std::string& checkpoint_path);

  /// Validates an already-loaded candidate and installs it (same contract).
  Status SwapTo(std::shared_ptr<const ModelSnapshot> candidate);

  /// Successful installs / discarded candidates since construction.
  int64_t swaps() const;
  int64_t rollbacks() const;
  /// Version currently serving (the incumbent's until a swap succeeds).
  uint64_t active_version() const;

 private:
  /// The golden-probe check described in the class comment.
  Status ValidateProbes(const std::shared_ptr<const ModelSnapshot>& candidate);

  InferenceServer* const server_;
  const ModelSnapshot::Options snapshot_options_;

  mutable std::mutex mu_;
  int64_t swaps_ = 0;
  int64_t rollbacks_ = 0;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_SNAPSHOT_MANAGER_H_
