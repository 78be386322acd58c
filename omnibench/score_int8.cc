// Workload `score_int8`: offline bulk scoring on one thread. Scorer::ScoreBatch
// is called directly on a quantize=true snapshot of the fixture; each batch
// is one warm user x kCandidates random target items. A user comes as a
// session of kBatchesPerUser batches; users come in a reshuffled cycle and
// the cache is far smaller than the cycle, so each session's first batch
// admits its user and the later batches hit. No server, queue or linger.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "bench.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "serve/quant_head.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"

namespace omnibench {

using namespace omnimatch;

namespace {

constexpr int kCandidates = 32;
/// A user's session: this many batches, the first one admitting the user.
constexpr int kBatchesPerUser = 4;
/// Far below the number of warm users, so a user's next session (a whole
/// cycle later) admits it again.
constexpr size_t kCacheCapacity = 8;
constexpr double kWindowS = 1.0;
/// The existing quantization accuracy bar (bench_quant): the int8 scorer's
/// test RMSE may differ from the float scorer's by less than this.
constexpr double kRmseDeltaMax = 0.01;

struct Batch {
  int user = -1;
  std::vector<serve::ScoreRequest> requests;
  std::vector<float> scores;
  double us = 0.0;
  double at_s = 0.0;  // start, in seconds from the start of the run
  bool first = false;
};

struct Int8Run {
  double setup_s = 0.0;
  double load_quant_ms = 0.0;
  std::shared_ptr<const serve::ModelSnapshot> snap;
  std::vector<Batch> batches;
};

int ScoreOnce(const Options& opts, const World& w, double seconds,
              Int8Run* run) {
  const core::OmniMatchConfig config = DefaultConfig(opts.seed, 1);
  serve::ModelSnapshot::Options snap_options;
  snap_options.quantize = true;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    run->snap.reset();
    const int64_t t0 = NowNs();
    Result<std::shared_ptr<const serve::ModelSnapshot>> loaded =
        serve::ModelSnapshot::Load(config, &w.cross, w.split, opts.fixture,
                                   snap_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "score_int8: fixture rejected: %s\n",
                   loaded.status().ToString().c_str());
      return kFixtureRejected;
    }
    run->snap = loaded.value();
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  run->setup_s = Median(setups);
  run->load_quant_ms = run->setup_s * 1e3;

  serve::Scorer scorer(run->snap, kCacheCapacity);
  Rng rng(opts.seed ^ 0x1A78ULL);
  std::vector<int> cycle = w.warm_users;
  size_t cursor = cycle.size();
  const int64_t start = NowNs();
  for (int64_t i = 0; NowNs() - start < static_cast<int64_t>(seconds * 1e9);
       ++i) {
    Batch b;
    b.first = i % kBatchesPerUser == 0;
    if (b.first && cursor == cycle.size()) {
      rng.Shuffle(cycle);
      cursor = 0;
    }
    const int user = b.first ? cycle[cursor++] : run->batches.back().user;
    b.user = user;
    b.requests.resize(kCandidates);
    for (serve::ScoreRequest& r : b.requests) {
      r.user = user;
      r.item = w.items[rng.UniformU32(static_cast<uint32_t>(w.items.size()))];
    }
    const int64_t t0 = NowNs();
    b.scores = scorer.ScoreBatch(b.requests);
    const int64_t t1 = NowNs();
    b.us = static_cast<double>(t1 - t0) / 1e3;
    b.at_s = static_cast<double>(t0 - start) / 1e9;
    run->batches.push_back(std::move(b));
  }
  return 0;
}

/// Batch metrics per kWindowS window of the run, combined with
/// AcrossWindows.
struct BatchMetrics {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double first_p50_us = 0.0;
  double scores_per_s = 0.0;
  size_t windows = 0;
};

BatchMetrics MeasureBatches(const Int8Run& run) {
  std::vector<std::vector<double>> windows, first_windows;
  for (const Batch& b : run.batches) {
    const size_t w = static_cast<size_t>(b.at_s / kWindowS);
    if (w >= windows.size()) {
      windows.resize(w + 1);
      first_windows.resize(w + 1);
    }
    windows[w].push_back(b.us);
    if (b.first) first_windows[w].push_back(b.us);
  }
  std::vector<double> p50, p90, first_p50, rate;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].empty()) continue;
    double us = 0.0;
    for (double x : windows[i]) us += x;
    p50.push_back(Quantile(windows[i], 0.5));
    p90.push_back(Quantile(windows[i], 0.9));
    rate.push_back(static_cast<double>(windows[i].size()) * kCandidates /
                   (us / 1e6));
    if (!first_windows[i].empty()) {
      first_p50.push_back(Quantile(first_windows[i], 0.5));
    }
  }
  BatchMetrics m;
  m.p50_us = AcrossWindows(p50, true);
  m.p90_us = AcrossWindows(p90, true);
  m.first_p50_us = AcrossWindows(first_p50, true);
  m.scores_per_s = AcrossWindows(rate, false);
  m.windows = p50.size();
  return m;
}

/// A second quantized Scorer must reproduce every score bit for bit, and
/// the quantized test RMSE must stay within kRmseDeltaMax of the float one.
double Check(const Options& opts, const World& w, const Int8Run& run,
             Report* report) {
  SetNumThreads(2);
  std::unordered_map<uint64_t, float> scored;
  for (const Batch& b : run.batches) {
    for (size_t i = 0; i < b.requests.size(); ++i) {
      auto [it, inserted] = scored.emplace(
          PairKey(b.requests[i].user, b.requests[i].item), b.scores[i]);
      if (!inserted &&
          std::memcmp(&it->second, &b.scores[i], sizeof(float)) != 0) {
        report->Fail("one pair got two different int8 scores");
      }
    }
  }
  serve::Scorer second(run.snap, w.warm_users.size() + 16);
  const size_t mismatches = CountMismatches(&second, scored);
  if (mismatches > 0) {
    report->Fail(std::to_string(mismatches) + " of " +
                 std::to_string(scored.size()) +
                 " int8 scores differ from a second quantized scorer");
  }
  const double rmse_quant = TestRmse(&second, w);
  Result<std::shared_ptr<const serve::ModelSnapshot>> float_snap =
      serve::ModelSnapshot::Load(DefaultConfig(opts.seed, 2), &w.cross,
                                 w.split, opts.fixture);
  if (!float_snap.ok()) {
    report->Fail("float snapshot failed to load");
    return rmse_quant;
  }
  serve::Scorer float_scorer(float_snap.value(), w.warm_users.size() + 16);
  const double rmse_float = TestRmse(&float_scorer, w);
  if (!(std::fabs(rmse_quant - rmse_float) < kRmseDeltaMax)) {
    report->Fail("int8 test RMSE differs from float by " +
                 std::to_string(std::fabs(rmse_quant - rmse_float)));
  }
  std::printf(
      "# check: %zu distinct pairs re-scored; rmse int8 %.6f float %.6f\n",
      scored.size(), rmse_quant, rmse_float);
  SetNumThreads(1);
  return rmse_quant;
}

}  // namespace

namespace {

void ProbeQuantHead(const serve::ModelSnapshot& snap, Report* report) {
  const serve::QuantizedRatingHead* head = snap.quant_head();
  if (head == nullptr) return;
  Rng rng(13);
  std::vector<float> user_rows(static_cast<size_t>(32) * head->user_width());
  std::vector<float> item_rows(static_cast<size_t>(32) * head->item_width());
  for (float& v : user_rows) v = rng.UniformFloat(-1.0f, 1.0f);
  for (float& v : item_rows) v = rng.UniformFloat(-1.0f, 1.0f);
  std::vector<float> logits;
  report->Set("quant_head.rating_logits_us.b32", TimeUs(500, 20, [&] {
                head->RatingLogits(user_rows.data(), item_rows.data(), 32,
                                   &logits);
              }),
              "us");
}

}  // namespace

int ProbeQuantLayers(const Options& opts, const World& w, Report* report) {
  serve::ModelSnapshot::Options snap_options;
  snap_options.quantize = true;
  std::vector<double> loads;
  std::shared_ptr<const serve::ModelSnapshot> snap;
  for (int rep = 0; rep < kSetups; ++rep) {
    const int64_t t0 = NowNs();
    Result<std::shared_ptr<const serve::ModelSnapshot>> loaded =
        serve::ModelSnapshot::Load(DefaultConfig(opts.seed, 1), &w.cross,
                                   w.split, opts.fixture, snap_options);
    if (!loaded.ok()) return kFixtureRejected;
    snap = loaded.value();
    loads.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  report->Set("snapshot.load_quant_ms", Median(loads), "ms");
  ProbeQuantHead(*snap, report);
  return 0;
}

int RunScoreInt8(const Options& opts, Report* report) {
  const World w = MakeWorld(opts.seed);
  if (!opts.trace) {
    Int8Run run;
    const int code = ScoreOnce(opts, w, opts.seconds, &run);
    if (code != 0) return code;
    const BatchMetrics m = MeasureBatches(run);
    if (run.snap->quant_head() == nullptr) {
      report->Fail("the quantized snapshot carries no int8 head");
    }
    const double rmse = Check(opts, w, run, report);
    report->attempted = static_cast<int64_t>(run.batches.size());
    report->Set("setup_s", run.setup_s, "s");
    report->Set("throughput_per_s", m.scores_per_s, "1/s");
    report->Set("p50_us", m.p50_us, "us");
    report->Set("p90_us", m.p90_us, "us");
    report->Set("first_p50_us", m.first_p50_us, "us");
    report->Set("test_rmse", rmse, "stars");
    std::printf(
        "# score_int8: %zu batches in %zu windows: scores_per_s %.1f, batch "
        "p50 %.1f us p90 %.1f us, first batch p50 %.1f us; setup %.3f s, "
        "fixture %.2f s\n",
        run.batches.size(), m.windows, m.scores_per_s, m.p50_us, m.p90_us,
        m.first_p50_us, run.setup_s,
        opts.fixture_train_s);
    return 0;
  }

  Int8Run plain, traced;
  int code = ScoreOnce(opts, w, opts.seconds / 2, &plain);
  if (code == 0) {
    obs::EnableMetrics(true);
    code = ScoreOnce(opts, w, opts.seconds / 2, &traced);
    obs::EnableMetrics(false);
  }
  if (code != 0) return code;
  report->Set("obs.trace_overhead",
              MeasureBatches(plain).scores_per_s /
                      MeasureBatches(traced).scores_per_s -
                  1.0,
              "ratio");
  report->Set("snapshot.load_quant_ms", traced.load_quant_ms, "ms");
  ProbeQuantHead(*traced.snap, report);
  Check(opts, w, traced, report);
  ProbeServingLayers(traced.snap, w, report);
  report->attempted = static_cast<int64_t>(traced.batches.size());
  return 0;
}

}  // namespace omnibench
