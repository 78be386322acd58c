// Benchmark-trajectory harness: times the hot kernel suite (GEMM family,
// fused text convolution, SupCon loss, embedding gather) with the blocked
// thread-pool substrate at several pool sizes, compares against the naive
// reference kernels and the recorded seed-commit numbers, verifies that
// results are bit-identical across thread counts, and writes a
// machine-readable BENCH_nn_ops.json.
//
//   ./bench_report [--out=BENCH_nn_ops.json] [--reps=5] [--max-threads=4]
//                  [--metrics_out=BENCH_metrics.jsonl]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/threadpool.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "obs/metrics.h"

using namespace omnimatch;
using bench::KernelSample;
using nn::Tensor;

namespace {

/// Seed-commit google-benchmark measurements (Release, -march=native) of
/// the same shapes, taken before the blocked substrate existed. They anchor
/// the "trajectory" column in the JSON.
constexpr double kSeedMatMul64 = 32478;
constexpr double kSeedMatMul128 = 251199;
constexpr double kSeedMatMul256 = 1462636;
constexpr double kSeedMatMulBwd64 = 218566;
constexpr double kSeedMatMulBwd128 = 2394308;
constexpr double kSeedTextConv = 6846408;
constexpr double kSeedTextCnnFwdBwd = 31077343;
constexpr double kSeedSupCon64 = 117654;
constexpr double kSeedSupCon128 = 459406;
constexpr double kSeedGather = 54492;

int g_reps = 5;

/// Best-of-reps nanoseconds per call. Each rep runs the function enough
/// times to cover ~20 ms so the timer resolution never dominates.
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

Tensor RandomTensor(std::vector<int> shape, Rng* rng, bool grad) {
  Tensor t = Tensor::Zeros(std::move(shape), grad);
  for (float& v : t.data()) v = rng->UniformFloat(-1.0f, 1.0f);
  return t;
}

bool g_determinism_ok = true;

/// Runs `fn` (which fills `out`) at every pool size and asserts the output
/// bytes never change; the substrate's central guarantee.
void CheckThreadInvariance(const std::string& name,
                           const std::vector<int>& thread_counts,
                           std::vector<float>* out,
                           const std::function<void()>& fn) {
  std::vector<float> golden;
  for (int t : thread_counts) {
    SetNumThreads(t);
    std::fill(out->begin(), out->end(), 0.0f);
    fn();
    if (t == thread_counts.front()) {
      golden = *out;
    } else if (golden != *out) {
      std::fprintf(stderr, "FAIL: %s differs between %d and %d threads\n",
                   name.c_str(), thread_counts.front(), t);
      g_determinism_ok = false;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  g_reps = flags.GetInt("reps", 5);
  std::string out_path = flags.GetString("out", "BENCH_nn_ops.json");
  int max_threads = flags.GetInt("max-threads", 4);
  std::string metrics_path =
      flags.GetString("metrics_out", "BENCH_metrics.jsonl");
  flags.RejectUnreadFlags();
  std::vector<int> thread_counts = {1};
  for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  std::vector<KernelSample> samples;
  Rng rng(1);

  // --- GEMM family: reference vs blocked, square shapes ---
  struct MatShape {
    int n;
    double seed_ns;
  };
  for (MatShape shape : std::vector<MatShape>{{64, kSeedMatMul64},
                                              {128, kSeedMatMul128},
                                              {256, kSeedMatMul256}}) {
    int n = shape.n;
    std::vector<float> a = RandomVec(static_cast<size_t>(n) * n, &rng);
    std::vector<float> b = RandomVec(static_cast<size_t>(n) * n, &rng);
    std::vector<float> c(static_cast<size_t>(n) * n, 0.0f);
    std::string name = "MatMul/" + std::to_string(n);

    SetNumThreads(1);
    samples.push_back({name, "reference", 1,
                       BenchNs([&] {
                         std::fill(c.begin(), c.end(), 0.0f);
                         nn::reference::GemmNN(a.data(), b.data(), c.data(), n,
                                               n, n);
                       }),
                       shape.seed_ns});
    CheckThreadInvariance(name, thread_counts, &c, [&] {
      nn::GemmNN(a.data(), b.data(), c.data(), n, n, n);
    });
    for (int t : thread_counts) {
      SetNumThreads(t);
      samples.push_back({name, "blocked", t,
                         BenchNs([&] {
                           std::fill(c.begin(), c.end(), 0.0f);
                           nn::GemmNN(a.data(), b.data(), c.data(), n, n, n);
                         }),
                         shape.seed_ns});
    }
  }

  // --- Autograd pipelines at each pool size ---
  struct PipelineCase {
    std::string name;
    double seed_ns;
    std::function<void()> fn;
  };

  Rng rng_bwd(2);
  Tensor ma = RandomTensor({128, 128}, &rng_bwd, true);
  Tensor mb = RandomTensor({128, 128}, &rng_bwd, true);
  auto matmul_bwd = [&] {
    Tensor loss = nn::MeanAll(nn::MatMul(ma, mb));
    loss.Backward();
    ma.ZeroGrad();
    mb.ZeroGrad();
  };

  int batch = 64, length = 64, embed = 32, channels = 24;
  Rng rng_conv(3);
  Tensor docs = RandomTensor({batch, length, embed}, &rng_conv, false);
  Tensor w = RandomTensor({channels, 3 * embed}, &rng_conv, false);
  Tensor bias = RandomTensor({channels}, &rng_conv, false);
  auto conv_fwd = [&] {
    Tensor out = nn::TextConvMaxPool(docs, w, bias, 3);
  };

  Rng rng_cnn(4);
  nn::TextCnn cnn(embed, channels, {3, 4, 5}, &rng_cnn);
  Tensor cnn_docs = RandomTensor({batch, length, embed}, &rng_cnn, true);
  auto cnn_fwd_bwd = [&] {
    Tensor loss = nn::MeanAll(cnn.Forward(cnn_docs));
    loss.Backward();
    cnn_docs.ZeroGrad();
    cnn.ZeroGrad();
  };

  Rng rng_scl(5);
  Tensor feats = RandomTensor({128, 24}, &rng_scl, true);
  std::vector<int> labels(128);
  for (int i = 0; i < 128; ++i) labels[static_cast<size_t>(i)] = i % 5;
  auto supcon = [&] {
    Tensor loss = nn::SupConLoss(feats, labels, 0.07f);
    loss.Backward();
    feats.ZeroGrad();
  };

  Rng rng_gather(6);
  nn::EmbeddingTable table(2000, 32, &rng_gather);
  std::vector<int> ids(64 * 64);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>(rng_gather.UniformU32(2000));
  }
  auto gather = [&] {
    Tensor out = table.Forward(ids);
  };

  std::vector<PipelineCase> pipelines;
  pipelines.push_back({"MatMulBackward/128", kSeedMatMulBwd128, matmul_bwd});
  pipelines.push_back({"TextConvMaxPool", kSeedTextConv, conv_fwd});
  pipelines.push_back(
      {"TextCnnForwardBackward", kSeedTextCnnFwdBwd, cnn_fwd_bwd});
  pipelines.push_back({"SupConLoss/128", kSeedSupCon128, supcon});
  pipelines.push_back({"EmbeddingGather", kSeedGather, gather});

  for (const PipelineCase& pc : pipelines) {
    for (int t : thread_counts) {
      SetNumThreads(t);
      samples.push_back({pc.name, "blocked", t, BenchNs(pc.fn), pc.seed_ns});
    }
  }

  // Thread-invariance of a full forward+backward: compare input gradients.
  {
    std::vector<float> grads(cnn_docs.numel());
    CheckThreadInvariance("TextCnnForwardBackward/grad", thread_counts,
                          &grads, [&] {
                            Tensor loss = nn::MeanAll(cnn.Forward(cnn_docs));
                            loss.Backward();
                            grads = cnn_docs.grad();
                            cnn_docs.ZeroGrad();
                            cnn.ZeroGrad();
                          });
  }

  // --- Self-healing guard overhead: full training steps with the guard
  // observing every step vs disabled. The guard's per-step cost is one
  // parameter health scan plus the EMA bookkeeping; the acceptance budget
  // is <5% of step time.
  {
    data::SyntheticConfig world_config;
    world_config.num_users = 120;
    world_config.items_per_domain = 60;
    world_config.mean_reviews_per_user = 5;
    world_config.seed = 11;
    data::SyntheticWorld world(world_config);
    data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
    Rng split_rng(12);
    data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

    core::OmniMatchConfig config;
    config.embed_dim = 16;
    config.cnn_channels = 8;
    config.kernel_sizes = {2, 3};
    config.feature_dim = 16;
    config.projection_dim = 8;
    config.doc_len = 32;
    config.item_doc_len = 32;
    config.batch_size = 16;
    config.epochs = 2;
    config.select_best_epoch = false;
    config.seed = 13;

    // Reps are interleaved (off, on, off, on, ...) so clock-speed or load
    // drift during the benchmark hits both variants equally instead of
    // biasing whichever ran second.
    double guard_ns[2] = {1e300, 1e300};
    for (int rep = 0; rep < g_reps; ++rep) {
      for (int guarded = 0; guarded <= 1; ++guarded) {
        config.guard_enabled = guarded == 1;
        core::OmniMatchTrainer trainer(config, &cross, split);
        if (!trainer.Prepare().ok()) {
          std::fprintf(stderr, "TrainerStep: Prepare failed\n");
          return 1;
        }
        core::TrainStats stats = trainer.Train();
        if (stats.steps > 0) {
          guard_ns[guarded] = std::min(
              guard_ns[guarded], stats.train_seconds / stats.steps * 1e9);
        }
      }
    }
    for (int guarded = 0; guarded <= 1; ++guarded) {
      samples.push_back({"TrainerStep",
                         guarded == 1 ? "guard_on" : "guard_off",
                         GetNumThreads(), guard_ns[guarded], 0.0});
    }
    std::printf("guard overhead: %.2f%% per training step\n",
                (guard_ns[1] / guard_ns[0] - 1.0) * 100.0);

    // --- Observability overhead: identical training runs with the metrics
    // clock reads off vs on, interleaved like the guard pair so drift hits
    // both variants equally. The acceptance budget is <2% of step time with
    // no sink attached; the metrics_on number bounds the cost of attaching
    // one.
    config.guard_enabled = true;
    double metrics_ns[2] = {1e300, 1e300};
    for (int rep = 0; rep < g_reps; ++rep) {
      for (int on = 0; on <= 1; ++on) {
        obs::EnableMetrics(on == 1);
        core::OmniMatchTrainer trainer(config, &cross, split);
        if (!trainer.Prepare().ok()) {
          std::fprintf(stderr, "TrainerStep: Prepare failed\n");
          return 1;
        }
        core::TrainStats stats = trainer.Train();
        if (stats.steps > 0) {
          metrics_ns[on] = std::min(
              metrics_ns[on], stats.train_seconds / stats.steps * 1e9);
        }
      }
    }
    obs::EnableMetrics(false);
    for (int on = 0; on <= 1; ++on) {
      samples.push_back({"TrainerStep",
                         on == 1 ? "metrics_on" : "metrics_off",
                         GetNumThreads(), metrics_ns[on], 0.0});
    }
    std::printf("metrics overhead: %.2f%% per training step\n",
                (metrics_ns[1] / metrics_ns[0] - 1.0) * 100.0);
  }

  SetNumThreads(1);

  std::printf("%-28s %-10s %8s %14s %10s\n", "kernel", "variant", "threads",
              "ns/call", "vs-seed");
  for (const KernelSample& s : samples) {
    std::printf("%-28s %-10s %8d %14.0f %9.2fx\n", s.name.c_str(),
                s.variant.c_str(), s.threads, s.ns,
                s.seed_ns > 0 ? s.seed_ns / s.ns : 0.0);
  }

  if (!bench::WriteBenchJson(out_path, samples)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu records)\n", out_path.c_str(), samples.size());

  // Snapshot of everything the always-on counters and the metrics_on
  // training runs accumulated (GEMM calls/flops, pool jobs/chunks, trainer
  // phase histograms) — the machine-readable companion to the table above.
  if (!obs::MetricsRegistry::Global().WriteJsonLines(metrics_path)) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    return 1;
  }
  std::printf("wrote metrics snapshot %s\n", metrics_path.c_str());
  if (!g_determinism_ok) {
    std::fprintf(stderr, "determinism check FAILED\n");
    return 1;
  }
  return 0;
}
