#include "serve/scorer.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnimatch {
namespace serve {

using core::OmniMatchModel;
using nn::Tensor;

namespace {

/// Rating-head chunk size. The head is row-independent like the extractors
/// (see ModelSnapshot::UserRows), so chunking never changes an output bit.
constexpr int kHeadChunkRows = 1024;

obs::Counter* ColdAdmissions() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.cold_admissions");
  return c;
}
obs::Counter* Admissions() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.admissions");
  return c;
}
obs::Counter* FallbackScores() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.fallback_scores");
  return c;
}
obs::Counter* DegradedCached() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.degraded.cached");
  return c;
}
obs::Counter* DegradedFallback() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.degraded.fallback");
  return c;
}
obs::Histogram* ScoreBatchHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.score_batch_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}
obs::Histogram* AdmitHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.admit_ns", obs::Histogram::LatencyBoundsNs());
  return h;
}

}  // namespace

Scorer::Scorer(std::shared_ptr<const ModelSnapshot> snapshot,
               size_t cache_capacity)
    : snapshot_(std::move(snapshot)), cache_(cache_capacity) {
  OM_CHECK(snapshot_ != nullptr);
}

std::shared_ptr<const ModelSnapshot> Scorer::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

void Scorer::SetSnapshot(std::shared_ptr<const ModelSnapshot> snapshot) {
  OM_CHECK(snapshot != nullptr);
  const uint64_t keep = snapshot->version();
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  // After the store: an executor that grabbed the OLD snapshot may still
  // Put() old-version entries for a moment; they can never be served to a
  // new-version lookup (version-keying) and the next swap sweeps them too.
  cache_.EvictStaleVersions(keep);
}

std::vector<std::shared_ptr<const UserEntry>> Scorer::GetOrAdmit(
    const ModelSnapshot& snap, const std::vector<int>& users,
    bool admit_missing) {
  const uint64_t version = snap.version();
  std::vector<std::shared_ptr<const UserEntry>> out(users.size());

  /// Users missing from the cache, with their per-pass target documents.
  struct Pending {
    size_t slot = 0;  // index into `users` / `out`
    std::vector<const std::vector<int>*> docs;
    std::vector<std::vector<int>> owned_docs;  // online-generated storage
    bool cold = false;
  };
  std::vector<Pending> pending;
  for (size_t i = 0; i < users.size(); ++i) {
    out[i] = cache_.Get(version, users[i]);
    if (out[i] != nullptr) continue;
    if (!admit_missing) continue;  // degraded: leave nullptr, cache untouched
    Pending p;
    p.slot = i;
    const auto& target_docs = snap.user_target_docs();
    auto it = target_docs.find(users[i]);
    if (it != target_docs.end()) {
      // Frozen documents: the trainer's primary document plus its ensemble
      // variants, exactly the rows PredictBatch would gather.
      p.docs.push_back(&it->second);
      const auto& variants = snap.cold_aux_doc_variants();
      auto vit = variants.find(users[i]);
      if (vit != variants.end()) {
        for (const std::vector<int>& doc : vit->second) p.docs.push_back(&doc);
      }
    } else {
      // Unknown user: Algorithm 1 online, at admission time.
      p.owned_docs = snap.BuildColdUserDocs(users[i]);
      if (p.owned_docs.empty()) {
        auto entry = std::make_shared<UserEntry>();
        entry->fallback = true;
        cache_.Put(version, users[i], entry);
        out[i] = std::move(entry);
        continue;
      }
      p.cold = true;
      for (const std::vector<int>& doc : p.owned_docs) p.docs.push_back(&doc);
    }
    pending.push_back(std::move(p));
  }
  if (pending.empty()) return out;

  obs::TraceSpan span("serve.admit", AdmitHist());
  // Every (user, pass) document in one row list, extracted in one call.
  std::vector<const std::vector<int>*> docs;
  for (const Pending& p : pending) {
    docs.insert(docs.end(), p.docs.begin(), p.docs.end());
  }
  std::vector<std::vector<float>> rows = snap.UserRows(docs);
  auto row = rows.begin();
  for (const Pending& p : pending) {
    auto entry = std::make_shared<UserEntry>();
    entry->rep_rows.assign(std::make_move_iterator(row),
                           std::make_move_iterator(row + p.docs.size()));
    row += p.docs.size();
    Admissions()->Increment();
    if (p.cold) ColdAdmissions()->Increment();
    cache_.Put(version, users[p.slot], entry);
    out[p.slot] = std::move(entry);
  }
  return out;
}

std::vector<ScoredValue> Scorer::ScoreBatchWith(
    const std::shared_ptr<const ModelSnapshot>& snap,
    const std::vector<ScoreRequest>& requests, ScoreMode mode) {
  OM_CHECK(snap != nullptr);
  if (requests.empty()) return {};
  const float global_mean = snap->global_mean_rating();

  // Tier 2: shed all model work. No cache traffic either — the point is to
  // bound the executor's time per batch by a memset-scale loop.
  if (mode == ScoreMode::kGlobalMean) {
    DegradedFallback()->Add(static_cast<int64_t>(requests.size()));
    return std::vector<ScoredValue>(
        requests.size(),
        ScoredValue{global_mean, RequestStatus::kDegradedFallback});
  }

  obs::TraceSpan span("serve.score_batch", ScoreBatchHist());
  const core::OmniMatchConfig& config = snap->config();
  OmniMatchModel* model = snap->model();
  // Eval mode was pre-set recursively at snapshot load (SetTrainingMode):
  // asserting it here is a pure read, safe under concurrent executors.
  OM_CHECK(!model->training());

  const bool admit = mode == ScoreMode::kFull;

  // Distinct users (order-preserving), one cache lookup / admission each.
  std::vector<int> users;
  std::unordered_map<int, size_t> user_slot;
  for (const ScoreRequest& r : requests) {
    if (user_slot.emplace(r.user, users.size()).second) {
      users.push_back(r.user);
    }
  }
  std::vector<std::shared_ptr<const UserEntry>> entries =
      GetOrAdmit(*snap, users, admit);

  std::vector<ScoredValue> out(requests.size());
  // Resolves every request with no usable representation rows; the rest
  // get their tier stamped and are scored below.
  auto resolve_terminal = [&](size_t i,
                              const UserEntry* entry) -> bool {
    if (entry == nullptr) {
      // Cached-only miss: admission skipped, best effort is the mean.
      out[i] = {global_mean, RequestStatus::kDegradedFallback};
      DegradedFallback()->Increment();
      return true;
    }
    if (entry->fallback) {
      // The user has no records at all: the global mean IS the exact
      // full-fidelity answer (the trainer's own fallback), whatever tier
      // we are serving at.
      out[i] = {global_mean,
                admit ? RequestStatus::kOk : RequestStatus::kDegradedCached};
      FallbackScores()->Increment();
      if (!admit) DegradedCached()->Increment();
      return true;
    }
    return false;
  };

  // Item representations, one extractor row per DISTINCT item among the
  // requests that will reach the rating head (row independence again: the
  // shared row is bit-identical to the per-request row the trainer would
  // compute). Items outside the target domain get the all-pad document,
  // as in the trainer.
  std::vector<const std::vector<int>*> item_docs;
  std::unordered_map<int, size_t> item_slot;
  for (size_t i = 0; i < requests.size(); ++i) {
    const UserEntry* entry = entries[user_slot[requests[i].user]].get();
    if (entry == nullptr || entry->fallback) continue;
    if (item_slot.emplace(requests[i].item, item_docs.size()).second) {
      auto it = snap->item_docs().find(requests[i].item);
      item_docs.push_back(it != snap->item_docs().end() ? &it->second
                                                        : &snap->pad_item_doc());
    }
  }
  const std::vector<std::vector<float>> item_rows = snap->ItemRows(item_docs);

  // Assemble the rating-head rows: per request, pass 0..N in order — the
  // exact accumulation order of PredictBatch on a batch of one.
  const int classes = config.num_rating_classes;
  std::vector<const std::vector<float>*> head_user_rows;
  std::vector<const std::vector<float>*> head_item_rows;
  std::vector<size_t> head_request;
  std::vector<float> weight(requests.size(), 0.0f);
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::shared_ptr<const UserEntry>& entry =
        entries[user_slot[requests[i].user]];
    if (resolve_terminal(i, entry.get())) continue;
    out[i].status =
        admit ? RequestStatus::kOk : RequestStatus::kDegradedCached;
    if (!admit) DegradedCached()->Increment();
    const std::vector<float>& item_row =
        item_rows[item_slot[requests[i].item]];
    const int passes = entry->passes();
    weight[i] = 1.0f / static_cast<float>(passes);
    for (int k = 0; k < passes; ++k) {
      head_user_rows.push_back(&entry->rep_rows[static_cast<size_t>(k)]);
      head_item_rows.push_back(&item_row);
      head_request.push_back(i);
    }
  }
  if (head_user_rows.empty()) return out;

  const int user_width = static_cast<int>(head_user_rows[0]->size());
  const int item_width = static_cast<int>(head_item_rows[0]->size());
  // The --quant serving mode swaps ONLY this rating-head GEMM stack for the
  // int8 one; everything above (admission, extractors, cache, softmax
  // readout below) is shared, and the float branch is untouched.
  const QuantizedRatingHead* quant_head = snap->quant_head();
  for (size_t begin = 0; begin < head_user_rows.size();
       begin += kHeadChunkRows) {
    const size_t end =
        std::min(head_user_rows.size(), begin + kHeadChunkRows);
    const int rows = static_cast<int>(end - begin);
    std::vector<float> user_data, item_data;
    user_data.reserve(static_cast<size_t>(rows) * user_width);
    item_data.reserve(static_cast<size_t>(rows) * item_width);
    for (size_t r = begin; r < end; ++r) {
      user_data.insert(user_data.end(), head_user_rows[r]->begin(),
                       head_user_rows[r]->end());
      item_data.insert(item_data.end(), head_item_rows[r]->begin(),
                       head_item_rows[r]->end());
    }
    std::vector<float> quant_logits;
    Tensor logits;
    const float* logit_rows = nullptr;
    if (quant_head != nullptr) {
      quant_head->RatingLogits(user_data.data(), item_data.data(), rows,
                               &quant_logits);
      logit_rows = quant_logits.data();
    } else {
      logits = model->RatingLogits(
          Tensor::FromData({rows, user_width}, std::move(user_data)),
          Tensor::FromData({rows, item_width}, std::move(item_data)));
      logit_rows = logits.data().data();
    }
    // The trainer's readout, accumulated in the trainer's order.
    for (int r = 0; r < rows; ++r) {
      const size_t req = head_request[begin + static_cast<size_t>(r)];
      out[req].score +=
          weight[req] * OmniMatchModel::ExpectedRating(
                            logit_rows + static_cast<size_t>(r) * classes,
                            classes);
    }
  }
  return out;
}

std::vector<float> Scorer::ScoreBatch(
    const std::vector<ScoreRequest>& requests) {
  std::vector<ScoredValue> scored =
      ScoreBatchWith(CurrentSnapshot(), requests, ScoreMode::kFull);
  std::vector<float> preds(scored.size());
  for (size_t i = 0; i < scored.size(); ++i) preds[i] = scored[i].score;
  return preds;
}

float Scorer::Score(int user, int item) {
  ScoreRequest r;
  r.user = user;
  r.item = item;
  return ScoreBatch({r})[0];
}

}  // namespace serve
}  // namespace omnimatch
