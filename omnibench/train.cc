// Workload `train`: the default OmniMatchConfig trained for kEpochs epochs on
// the seeded quickstart world, then Evaluate on the cold test users. Each
// repetition rebuilds world, split and trainer (the set-up), so set-up and
// training are both sampled several times per run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/aux_review.h"
#include "core/model.h"
#include "core/trainer.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnibench {

using namespace omnimatch;

namespace {

constexpr int kEpochs = 1;
constexpr int kThreads = 2;
constexpr int kMinReps = 3;
/// Step-time windows (see AcrossWindows); about 0.2 s each.
constexpr size_t kStepsPerWindow = 8;

struct Rep {
  double world_ms = 0.0;
  double prepare_ms = 0.0;
  double setup_s = 0.0;
  double train_s = 0.0;
  double samples = 0.0;
  std::vector<double> step_us;
  double rmse = 0.0;
  int recoveries = 0;
  int vocab = 0;
};

/// Durations of the program's own "step" spans recorded since the last
/// ClearTrace, in microseconds.
std::vector<double> StepSpansUs() {
  std::vector<double> us;
  for (const obs::ExportedSpan& s : obs::ExportSpans()) {
    if (std::strcmp(s.name, "step") == 0) {
      us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return us;
}

/// Repetitions until `seconds` have passed (at least kMinReps).
std::vector<Rep> RunReps(uint64_t seed, double seconds) {
  std::vector<Rep> reps;
  const int64_t start = NowNs();
  while (reps.size() < static_cast<size_t>(kMinReps) ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    Rep rep;
    obs::ClearTrace();
    const int64_t t0 = NowNs();
    World w = MakeWorld(seed);
    const int64_t t1 = NowNs();
    core::OmniMatchConfig config = DefaultConfig(seed, kThreads);
    config.epochs = kEpochs;
    core::OmniMatchTrainer trainer(config, &w.cross, w.split);
    const Status status = trainer.Prepare();
    const int64_t t2 = NowNs();
    if (!status.ok()) {
      std::fprintf(stderr, "train: Prepare failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    const core::TrainStats stats = trainer.Train();
    const int64_t t3 = NowNs();
    rep.step_us = StepSpansUs();
    rep.rmse = trainer.Evaluate(w.split.test_users).rmse;
    rep.world_ms = static_cast<double>(t1 - t0) / 1e6;
    rep.prepare_ms = static_cast<double>(t2 - t1) / 1e6;
    rep.setup_s = static_cast<double>(t2 - t0) / 1e9;
    rep.train_s = static_cast<double>(t3 - t2) / 1e9;
    rep.samples = static_cast<double>(
        kEpochs *
        data::TargetRecordsOfUsers(w.cross, w.split.train_users).size());
    rep.recoveries = stats.recoveries;
    rep.vocab = static_cast<int>(trainer.vocabulary().size());
    reps.push_back(std::move(rep));
  }
  return reps;
}

/// Training is deterministic: every repetition must reach the same RMSE.
void CheckRmse(const std::vector<Rep>& reps, Report* report) {
  for (const Rep& r : reps) {
    if (r.rmse != reps.front().rmse) {
      report->Fail("test_rmse differs between repetitions");
      return;
    }
  }
}

double MedianOf(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.*field);
  return Median(std::move(v));
}

/// Step-time metrics, measured per window of kStepsPerWindow consecutive
/// steps and combined with AcrossWindows.
struct StepMetrics {
  double p50_us = 0.0;
  double p90_us = 0.0;
  double first_p50_us = 0.0;   // over each repetition's first window
  double samples_per_s = 0.0;  // training samples per second of step time
  size_t windows = 0;
};

StepMetrics MeasureSteps(const std::vector<Rep>& reps) {
  std::vector<double> p50, p90, rate, first;
  for (const Rep& r : reps) {
    if (r.step_us.size() < kStepsPerWindow) continue;
    const double samples_per_step =
        r.samples / static_cast<double>(r.step_us.size());
    for (size_t i = 0; i + kStepsPerWindow <= r.step_us.size();
         i += kStepsPerWindow) {
      const std::vector<double> window(
          r.step_us.begin() + static_cast<std::ptrdiff_t>(i),
          r.step_us.begin() + static_cast<std::ptrdiff_t>(i + kStepsPerWindow));
      double us = 0.0;
      for (double x : window) us += x;
      p50.push_back(Quantile(window, 0.5));
      if (i == 0) first.push_back(p50.back());
      p90.push_back(Quantile(window, 0.9));
      rate.push_back(samples_per_step * kStepsPerWindow / (us / 1e6));
    }
  }
  StepMetrics m;
  m.p50_us = AcrossWindows(p50, true);
  m.p90_us = AcrossWindows(p90, true);
  m.first_p50_us = AcrossWindows(first, true);
  m.samples_per_s = AcrossWindows(rate, false);
  m.windows = p50.size();
  return m;
}

double HistMeanMs(const char* name) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(name);
  return h->Count() > 0 ? h->Sum() / static_cast<double>(h->Count()) / 1e6
                        : 0.0;
}

/// Training-mode forward, losses, backward and optimizer step of the model,
/// call by call, on one batch of 64 random documents (the trainer's batch).
void ProbeTrainingStep(const core::OmniMatchConfig& config, int vocab,
                       Report* report) {
  Rng rng(config.seed);
  core::OmniMatchModel model(config, vocab, &rng);
  model.SetTrainingMode(true);
  nn::Adam optimizer(model.Parameters(), config.adam_lr);
  const int b = config.batch_size;
  auto random_docs = [&](int len) {
    std::vector<int> ids(static_cast<size_t>(b) * len);
    for (int& id : ids) id = static_cast<int>(rng.UniformU32(vocab));
    return ids;
  };
  const std::vector<int> src_docs = random_docs(config.doc_len);
  const std::vector<int> tgt_docs = random_docs(config.doc_len);
  const std::vector<int> item_docs = random_docs(config.item_doc_len);
  std::vector<int> labels(static_cast<size_t>(b));
  for (int& l : labels) l = static_cast<int>(rng.UniformU32(5));
  std::vector<int> scl_labels = labels;
  scl_labels.insert(scl_labels.end(), labels.begin(), labels.end());
  std::vector<int> domain_labels(static_cast<size_t>(2 * b), 0);
  std::fill(domain_labels.begin() + b, domain_labels.end(), 1);

  std::map<std::string, std::vector<double>> us;
  auto timed = [&](const char* name, auto&& fn) {
    const int64_t t0 = NowNs();
    auto result = fn();
    us[name].push_back(static_cast<double>(NowNs() - t0) / 1e3);
    return result;
  };
  for (int iter = 0; iter < 12; ++iter) {
    optimizer.ZeroGrad();
    auto src = timed("model.extract_user_fwd_us", [&] {
      return model.ExtractUser(data::DomainSide::kSource, src_docs, b);
    });
    auto tgt = model.ExtractUser(data::DomainSide::kTarget, tgt_docs, b);
    nn::Tensor item = timed("model.extract_item_fwd_us",
                            [&] { return model.ExtractItem(item_docs, b); });
    nn::Tensor r_src = core::OmniMatchModel::UserRepresentation(src);
    nn::Tensor r_tgt = core::OmniMatchModel::UserRepresentation(tgt);
    nn::Tensor logits = timed("model.rating_logits_fwd_us",
                              [&] { return model.RatingLogits(r_tgt, item); });
    nn::Tensor loss = timed("losses.rating_ce_us", [&] {
      return nn::SoftmaxCrossEntropy(logits, labels);
    });
    nn::Tensor x_src = timed("model.project_fwd_us",
                             [&] { return model.Project(r_src, item); });
    nn::Tensor x_tgt = model.Project(r_tgt, item);
    nn::Tensor features = nn::ConcatRows({x_src, x_tgt});
    nn::Tensor scl = timed("losses.supcon_us", [&] {
      return nn::SupConLoss(features, scl_labels, config.temperature);
    });
    nn::Tensor inv = nn::ConcatRows({src.invariant, tgt.invariant});
    nn::Tensor spec = nn::ConcatRows({src.specific, tgt.specific});
    nn::Tensor inv_logits = timed("model.domain_logits_fwd_us", [&] {
      return model.DomainLogitsInvariant(inv);
    });
    nn::Tensor spec_logits = model.DomainLogitsSpecific(spec);
    nn::Tensor domain = timed("losses.domain_ce_us", [&] {
      return nn::Add(nn::SoftmaxCrossEntropy(inv_logits, domain_labels),
                     nn::SoftmaxCrossEntropy(spec_logits, domain_labels));
    });
    loss = nn::Add(nn::Add(loss, nn::Scale(scl, config.alpha)),
                   nn::Scale(domain, config.beta));
    timed("autograd.backward_us", [&] {
      loss.Backward();
      return 0;
    });
    timed("optimizer.step_us", [&] {
      optimizer.Step();
      return 0;
    });
  }
  for (auto& [name, values] : us) {
    values.erase(values.begin(), values.begin() + 2);  // warm-up
    report->Set(name, Median(values), "us");
  }
}

/// Median step time of one epoch with the recorded-graph executor on or off.
double GraphStepMs(uint64_t seed, bool graph_exec) {
  World w = MakeWorld(seed);
  core::OmniMatchConfig config = DefaultConfig(seed, kThreads);
  config.epochs = 1;
  config.graph_exec = graph_exec;
  core::OmniMatchTrainer trainer(config, &w.cross, w.split);
  if (!trainer.Prepare().ok()) return 0.0;
  obs::ClearTrace();
  trainer.Train();
  std::vector<double> steps = StepSpansUs();
  if (!steps.empty()) steps.erase(steps.begin());  // the recording step
  return Median(steps) / 1e3;
}

}  // namespace

int RunTrain(const Options& opts, Report* report) {
  // The step latencies come from the trainer's own "step" spans, so span
  // recording is on in every run; --trace adds the metrics histograms.
  obs::EnableTracing(true);
  if (!opts.trace) {
    const std::vector<Rep> reps = RunReps(opts.seed, opts.seconds);
    CheckRmse(reps, report);
    int64_t steps = 0, recoveries = 0;
    for (const Rep& r : reps) {
      steps += static_cast<int64_t>(r.step_us.size());
      recoveries += r.recoveries;
    }
    const StepMetrics m = MeasureSteps(reps);
    report->attempted = steps;
    report->failed = recoveries;
    report->Set("setup_s", MedianOf(reps, &Rep::setup_s), "s");
    report->Set("throughput_per_s", m.samples_per_s, "1/s");
    report->Set("p50_us", m.p50_us, "us");
    report->Set("p90_us", m.p90_us, "us");
    report->Set("first_p50_us", m.first_p50_us, "us");
    report->Set("test_rmse", reps.front().rmse, "stars");
    std::printf(
        "# train: %zu reps x %d epochs, %lld steps in %zu windows: "
        "train_samples_per_s %.1f 1/s, step p50 %.0f us p90 %.0f us; first "
        "window p50 %.0f us; test_rmse %.6f, setup %.3f s\n",
        reps.size(), kEpochs, static_cast<long long>(steps), m.windows,
        m.samples_per_s, m.p50_us, m.p90_us, m.first_p50_us, reps.front().rmse,
        MedianOf(reps, &Rep::setup_s));
    return 0;
  }

  // Traced run: half untraced, half traced, then the layer probes.
  const std::vector<Rep> plain = RunReps(opts.seed, opts.seconds / 2);
  obs::MetricsRegistry::Global().ResetAll();
  obs::EnableMetrics(true);
  const std::vector<Rep> traced = RunReps(opts.seed, opts.seconds / 2);
  CheckRmse(plain, report);
  CheckRmse(traced, report);
  double train_ns = 0.0;
  for (const Rep& r : traced) train_ns += r.train_s * 1e9;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  report->Set("obs.trace_overhead",
              MeasureSteps(plain).samples_per_s /
                      MeasureSteps(traced).samples_per_s -
                  1.0, "ratio");
  report->Set("data.world_ms", MedianOf(traced, &Rep::world_ms), "ms");
  report->Set("trainer.prepare_ms", MedianOf(traced, &Rep::prepare_ms), "ms");
  report->Set("trainer.forward_ms", HistMeanMs("trainer.forward_ns"), "ms");
  report->Set("trainer.backward_ms", HistMeanMs("trainer.backward_ns"), "ms");
  report->Set("trainer.doc_assembly_ms",
              HistMeanMs("trainer.doc_assembly_ns"), "ms");
  report->Set("trainer.guard_snapshot_ms",
              HistMeanMs("trainer.guard_snapshot_ns"), "ms");
  report->Set("trainer.optimizer_step_ms",
              HistMeanMs("trainer.optimizer_step_ns"), "ms");
  const double hits =
      static_cast<double>(reg.GetCounter("auxgen.like_minded_hits")->Value());
  const double misses = static_cast<double>(
      reg.GetCounter("auxgen.like_minded_misses")->Value());
  report->Set("aux_review.match_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  // Busy time covers Prepare, Train and Evaluate; the denominator is the
  // training wall time, which dominates them.
  const double busy =
      static_cast<double>(reg.GetCounter("threadpool.worker_busy_ns")->Value());
  report->Set("threadpool.busy_ratio", busy / (train_ns * kThreads), "ratio");
  const double jobs =
      static_cast<double>(reg.GetCounter("threadpool.jobs")->Value());
  const double inline_runs =
      static_cast<double>(reg.GetCounter("threadpool.inline_runs")->Value());
  report->Set("threadpool.inline_ratio",
              jobs + inline_runs > 0 ? inline_runs / (jobs + inline_runs)
                                     : 0.0,
              "ratio");
  obs::EnableMetrics(false);

  {
    World w = MakeWorld(opts.seed);
    core::AuxReviewGenerator generator(&w.cross, w.split.train_users);
    std::vector<int> cold = w.split.validation_users;
    cold.insert(cold.end(), w.split.test_users.begin(),
                w.split.test_users.end());
    report->Set("aux_review.generate_all_ms",
                TimeUs(5, 1, [&] { generator.GenerateAll(cold, opts.seed); }) /
                    1e3,
                "ms");
  }
  SetNumThreads(kThreads);
  ProbeTrainingStep(DefaultConfig(opts.seed, kThreads), traced.front().vocab,
                    report);
  report->Set("graph.eager_step_ms", GraphStepMs(opts.seed, false), "ms");
  report->Set("graph.replay_step_ms", GraphStepMs(opts.seed, true), "ms");
  report->attempted = static_cast<int64_t>(traced.size());
  return 0;
}

}  // namespace omnibench
