// Eager vs recorded-graph training-step benchmark plus a microbench of the
// GatherReshape fusion the graph compiler emits. Eager and recorded reps are
// interleaved so clock drift hits both variants equally. Writes a
// machine-readable BENCH_graph.json with speedup_vs_eager per thread count
// and the steady-state tensor-node allocation counts (replay must be zero).
//
//   ./bench_graph [--out=BENCH_graph.json] [--reps=5] [--max-threads=4]
//                 [--epochs=2] [--check_speedup_min=0]
//
// --check_speedup_min > 0 turns the run into a self-checking smoke test:
// the process fails unless every thread count's recorded-vs-eager speedup
// reaches the threshold and the replay path allocated zero tensor nodes.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "obs/metrics.h"

using namespace omnimatch;

namespace {

int g_reps = 5;

/// Best-of-reps nanoseconds per call (same protocol as bench_report).
double BenchNs(const std::function<void()>& fn) {
  Stopwatch warm;
  fn();
  double once = std::max(warm.ElapsedSeconds(), 1e-9);
  int iters = std::max(1, static_cast<int>(0.02 / once));
  double best = 1e300;
  for (int rep = 0; rep < g_reps; ++rep) {
    Stopwatch watch;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.ElapsedSeconds() / iters);
  }
  return best * 1e9;
}

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// One eager-vs-recorded comparison at a fixed thread count.
struct StepSample {
  int threads = 1;
  double eager_ns = 0.0;     // steady-state forward+losses+backward per step
  double recorded_ns = 0.0;  // same, with --graph_exec (record step included)
  int64_t eager_allocs_per_step = 0;
  int64_t recorded_steady_allocs = 0;  // tensor nodes per REPLAYED step
  int64_t plans = 0;
  int64_t record_steps = 0;
  int64_t replay_steps = 0;
  int64_t arena_bytes = 0;
  double speedup() const {
    return recorded_ns > 0.0 ? eager_ns / recorded_ns : 0.0;
  }
};

/// Fused-kernel microbench record.
struct KernelSample {
  std::string name;
  std::string variant;  // "unfused" or "fused"
  int threads = 1;
  double ns = 0.0;
};

core::OmniMatchConfig SmokeConfig(bool graph_exec, int epochs) {
  core::OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 8;
  config.epochs = epochs;
  // Timing wants pure training steps: no per-epoch validation forward.
  config.select_best_epoch = false;
  config.seed = 13;
  config.graph_exec = graph_exec;
  return config;
}

double PhaseSumNs(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name)->Sum();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  g_reps = flags.GetInt("reps", 5);
  std::string out_path = flags.GetString("out", "BENCH_graph.json");
  int max_threads = flags.GetInt("max-threads", 4);
  int epochs = flags.GetInt("epochs", 2);
  double check_speedup_min = flags.GetDouble("check_speedup_min", 0.0);
  flags.RejectUnreadFlags();
  std::vector<int> thread_counts = {1};
  for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  data::SyntheticConfig world_config;
  world_config.num_users = 120;
  world_config.items_per_domain = 60;
  world_config.mean_reviews_per_user = 5;
  world_config.seed = 11;
  data::SyntheticWorld world(world_config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(12);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  obs::Counter* node_allocs =
      obs::MetricsRegistry::Global().GetCounter("nn.tensor_node_allocs");
  obs::EnableMetrics(true);

  // --- Interleaved eager vs recorded full-training comparison ---
  std::vector<StepSample> step_samples;
  for (int threads : thread_counts) {
    StepSample sample;
    sample.threads = threads;
    double best_ns[2] = {1e300, 1e300};  // [eager, recorded]
    for (int rep = 0; rep < g_reps; ++rep) {
      for (int recorded = 0; recorded <= 1; ++recorded) {
        core::OmniMatchConfig config = SmokeConfig(recorded == 1, epochs);
        config.num_threads = threads;
        core::OmniMatchTrainer trainer(config, &cross, split);
        if (!trainer.Prepare().ok()) {
          std::fprintf(stderr, "bench_graph: Prepare failed\n");
          return 1;
        }
        obs::MetricsRegistry::Global().ResetAll();
        int64_t allocs_before = node_allocs->Value();
        core::TrainStats stats = trainer.Train();
        int64_t allocs = node_allocs->Value() - allocs_before;
        if (stats.steps <= 0) {
          std::fprintf(stderr, "bench_graph: no training steps ran\n");
          return 1;
        }
        // Steady-state step time: the graph-covered region (forward +
        // losses + backward), excluding document assembly and the
        // optimizer, which are identical in both modes.
        double step_ns = (PhaseSumNs("trainer.forward_ns") +
                          PhaseSumNs("trainer.losses_ns") +
                          PhaseSumNs("trainer.backward_ns")) /
                         stats.steps;
        best_ns[recorded] = std::min(best_ns[recorded], step_ns);
        if (recorded == 0) {
          // The op stream is shape-independent, so every eager step
          // allocates the same number of tensor nodes.
          sample.eager_allocs_per_step = allocs / stats.steps;
        } else {
          const nn::graph::GraphExecutor::Stats& gs =
              trainer.graph_executor()->stats();
          sample.plans = gs.plans;
          sample.record_steps = gs.record_steps;
          sample.replay_steps = gs.replay_steps;
          sample.arena_bytes = gs.arena_bytes_max;
          // Recording steps run eagerly; whatever remains was allocated by
          // the replayed steps (the zero-steady-state-allocation claim).
          int64_t record_allocs =
              sample.eager_allocs_per_step * gs.record_steps;
          sample.recorded_steady_allocs =
              gs.replay_steps > 0 ? (allocs - record_allocs) / gs.replay_steps
                                  : 0;
        }
      }
    }
    sample.eager_ns = best_ns[0];
    sample.recorded_ns = best_ns[1];
    step_samples.push_back(sample);
  }

  // --- Fused-kernel microbench (the kernel the fusion pass emits) ---
  std::vector<KernelSample> kernel_samples;
  {
    constexpr int kVocab = 2000, kEmbed = 16, kIds = 64 * 32;
    Rng rng(2);
    std::vector<float> table =
        RandomVec(static_cast<size_t>(kVocab) * kEmbed, &rng);
    std::vector<int> ids(kIds);
    for (int& id : ids) id = static_cast<int>(rng.UniformU32(kVocab));
    std::vector<float> gathered(static_cast<size_t>(kIds) * kEmbed, 0.0f);
    std::vector<float> reshaped(gathered.size(), 0.0f);
    std::string name = StrFormat("GatherReshape/%dx%d", kIds, kEmbed);
    auto gather_rows = [&](std::vector<float>* dst) {
      for (size_t i = 0; i < ids.size(); ++i) {
        const float* src = table.data() +
                           static_cast<size_t>(ids[i]) * kEmbed;
        std::copy(src, src + kEmbed, dst->data() + i * kEmbed);
      }
    };
    for (int threads : {1, max_threads}) {
      SetNumThreads(threads);
      // Eager chain materializes the gather, then Reshape copies it again.
      kernel_samples.push_back({name, "unfused", threads, BenchNs([&] {
        gather_rows(&gathered);
        std::copy(gathered.begin(), gathered.end(), reshaped.begin());
      })});
      // The fused node gathers straight into the reshaped buffer.
      kernel_samples.push_back({name, "fused", threads, BenchNs([&] {
        gather_rows(&reshaped);
      })});
    }
  }
  SetNumThreads(1);
  obs::EnableMetrics(false);

  // --- Report ---
  std::printf("%-8s %14s %14s %10s %12s %14s\n", "threads", "eager ns/step",
              "recorded ns", "speedup", "eager allocs", "replay allocs");
  for (const StepSample& s : step_samples) {
    std::printf("%-8d %14.0f %14.0f %9.2fx %12lld %14lld\n", s.threads,
                s.eager_ns, s.recorded_ns, s.speedup(),
                static_cast<long long>(s.eager_allocs_per_step),
                static_cast<long long>(s.recorded_steady_allocs));
  }
  std::printf("%-28s %-8s %8s %14s\n", "kernel", "variant", "threads",
              "ns/call");
  for (const KernelSample& k : kernel_samples) {
    std::printf("%-28s %-8s %8d %14.0f\n", k.name.c_str(), k.variant.c_str(),
                k.threads, k.ns);
  }

  std::string json = "{\n  \"schema\": \"omnimatch-bench-graph-v1\",\n";
  json += "  \"unit\": \"ns_per_step\",\n  \"trainer_step\": [\n";
  for (size_t i = 0; i < step_samples.size(); ++i) {
    const StepSample& s = step_samples[i];
    json += StrFormat(
        "    {\"threads\": %d, \"eager_ns\": %.1f, \"recorded_ns\": %.1f, "
        "\"speedup_vs_eager\": %.3f, \"eager_allocs_per_step\": %lld, "
        "\"recorded_steady_allocs_per_step\": %lld, \"plans\": %lld, "
        "\"record_steps\": %lld, \"replay_steps\": %lld, "
        "\"arena_bytes\": %lld}%s\n",
        s.threads, s.eager_ns, s.recorded_ns, s.speedup(),
        static_cast<long long>(s.eager_allocs_per_step),
        static_cast<long long>(s.recorded_steady_allocs),
        static_cast<long long>(s.plans),
        static_cast<long long>(s.record_steps),
        static_cast<long long>(s.replay_steps),
        static_cast<long long>(s.arena_bytes),
        i + 1 < step_samples.size() ? "," : "");
  }
  json += "  ],\n  \"kernels\": [\n";
  for (size_t i = 0; i < kernel_samples.size(); ++i) {
    const KernelSample& k = kernel_samples[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"variant\": \"%s\", \"threads\": %d, "
        "\"ns\": %.1f}%s\n",
        k.name.c_str(), k.variant.c_str(), k.threads, k.ns,
        i + 1 < kernel_samples.size() ? "," : "");
  }
  json += "  ]\n}\n";
  std::ofstream out(out_path);
  if (!out || !(out << json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (check_speedup_min > 0.0) {
    bool ok = true;
    for (const StepSample& s : step_samples) {
      if (s.speedup() < check_speedup_min) {
        std::fprintf(stderr,
                     "CHECK FAILED: %d threads: recorded/eager speedup "
                     "%.2fx < %.2fx\n",
                     s.threads, s.speedup(), check_speedup_min);
        ok = false;
      }
      if (s.recorded_steady_allocs != 0) {
        std::fprintf(stderr,
                     "CHECK FAILED: %d threads: %lld tensor-node allocs per "
                     "replayed step (want 0)\n",
                     s.threads,
                     static_cast<long long>(s.recorded_steady_allocs));
        ok = false;
      }
      if (s.replay_steps <= 0) {
        std::fprintf(stderr, "CHECK FAILED: %d threads: no steps replayed\n",
                     s.threads);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("speedup check passed (min %.2fx)\n", check_speedup_min);
  }
  return 0;
}
