// Shared plumbing for the OmniMatch benchmark (see README.md in this
// directory): command-line options, the result record every workload fills,
// the seeded world, and small statistics helpers.
//
// The benchmark measures each layer from outside, by timing calls into the
// layer's public functions; it adds no instrumentation to the program.

#ifndef OMNIBENCH_BENCH_H_
#define OMNIBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"

namespace omnibench {

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Serving fixture checkpoint (TrainFixture writes it, the serving
  /// workloads read it).
  std::string fixture;
  /// Wall time the fixture's training took, read from `fixture` + ".train_s"
  /// and reported as fixture.train_s; never part of a timed metric.
  double fixture_train_s = 0.0;
};

/// One workload run's outcome. `metrics` holds name -> (value, unit).
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Exit code a serving workload returns when the fixture checkpoint fails
/// the OMCK config-fingerprint check; run.py then retrains it.
inline constexpr int kFixtureRejected = 3;

/// Set-ups per serving or scoring run; setup_s is their median.
inline constexpr int kSetups = 7;

/// Epochs the serving fixture trains for. Epochs are excluded from the
/// config fingerprint, so the fixture is a default-config model.
inline constexpr int kFixtureEpochs = 3;

using Clock = std::chrono::steady_clock;
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The AmazonLike Books -> Movies world of the quickstart, generated from
/// the workload seed, and its cold-start split. Deterministic in `seed`.
struct World {
  omnimatch::data::CrossDomainDataset cross;
  omnimatch::data::ColdStartSplit split;
  /// Target-domain items (requests draw items uniformly from these).
  std::vector<int> items;
  /// Users with frozen documents in the snapshot (train + validation + test).
  std::vector<int> warm_users;
  /// Source-domain users with no target records: unknown to the snapshot.
  std::vector<int> cold_users;
};
World MakeWorld(uint64_t seed);

/// The default OmniMatchConfig with the seed and kernel thread count set.
omnimatch::core::OmniMatchConfig DefaultConfig(uint64_t seed, int threads);

/// q-quantile (q in [0,1]) by linear interpolation; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Combines one statistic measured per window of a run (an epoch, or a
/// fixed stretch of time) into the run's value: the decile on the good
/// side, i.e. the 10th percentile over windows when lower is better and the
/// 90th when higher is better. Co-tenants on a shared host slow a CPU down
/// by up to 2x for seconds at a time. A median over windows follows such
/// episodes whenever they cover half of a run; the good-side decile only
/// when they cover nine tenths of it.
double AcrossWindows(std::vector<double> per_window, bool lower_is_better);

/// Key of one (user, item) pair in the output checks' score maps.
uint64_t PairKey(int user, int item);

/// Re-scores every pair of `scores` (PairKey -> score) with `reference`, in
/// item order so that its batches share item extractions, and returns how
/// many scores differ bit for bit.
size_t CountMismatches(omnimatch::serve::Scorer* reference,
                       const std::unordered_map<uint64_t, float>& scores);

/// Cold-start RMSE of `scorer` on the split's test users' target records.
double TestRmse(omnimatch::serve::Scorer* scorer, const World& world);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Median per-call microseconds of fn() over `reps` calls after `warmup`.
template <typename Fn>
double TimeUs(int reps, int warmup, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(std::move(us));
}

/// Per-layer metric names and units, printed by every traced run. A layer
/// a workload never calls reads 0 there (see README.md).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Workload entry points. `report` receives the end-to-end metrics, or with
/// opts.trace the per-layer ones. Return 0, or kFixtureRejected.
int RunTrain(const Options& opts, Report* report);
int RunServe(const Options& opts, bool cold, Report* report);
int RunScoreInt8(const Options& opts, Report* report);

/// Eval-mode probes of the scoring layers (item and user extraction, rating
/// head, cold-user document building, Scorer batches of 1 and 32) on `snap`.
void ProbeServingLayers(
    const std::shared_ptr<const omnimatch::serve::ModelSnapshot>& snap,
    const World& world, Report* report);

/// The int8 serving layers on a quantize=true snapshot of the fixture:
/// snapshot.load_quant_ms and quant_head.rating_logits_us.b32. Returns 0, or
/// kFixtureRejected.
int ProbeQuantLayers(const Options& opts, const World& world, Report* report);

/// Trains the serving fixture for `seed` into `path` (untimed).
int TrainFixture(uint64_t seed, const std::string& path);

/// Kernel-level probes shared by every workload: float GEMM on the conv and
/// head shapes, int8 GEMM on the head shapes.
void ProbeKernels(Report* report);

}  // namespace omnibench

#endif  // OMNIBENCH_BENCH_H_
