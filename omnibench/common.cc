#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/trainer.h"
#include "nn/gemm.h"
#include "nn/gemm/int8_gemm.h"

namespace omnibench {

using namespace omnimatch;

World MakeWorld(uint64_t seed) {
  World w;
  data::SyntheticConfig config = data::SyntheticConfig::AmazonLike();
  config.seed = seed;
  w.cross = data::SyntheticWorld(config).MakePair("Books", "Movies");
  Rng split_rng(seed + 1);
  w.split = data::MakeColdStartSplit(w.cross, &split_rng);
  w.items = w.cross.target().items();
  for (const std::vector<int>* group :
       {&w.split.train_users, &w.split.validation_users,
        &w.split.test_users}) {
    w.warm_users.insert(w.warm_users.end(), group->begin(), group->end());
  }
  for (int u : w.cross.source().users()) {
    if (!w.cross.target().HasUser(u)) w.cold_users.push_back(u);
  }
  return w;
}

core::OmniMatchConfig DefaultConfig(uint64_t seed, int threads) {
  core::OmniMatchConfig config;
  config.seed = seed;
  config.num_threads = threads;
  return config;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double AcrossWindows(std::vector<double> per_window, bool lower_is_better) {
  return Quantile(std::move(per_window), lower_is_better ? 0.1 : 0.9);
}

uint64_t PairKey(int user, int item) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(user)) << 32) |
         static_cast<uint32_t>(item);
}

size_t CountMismatches(serve::Scorer* reference,
                       const std::unordered_map<uint64_t, float>& scores) {
  std::vector<serve::ScoreRequest> pairs;
  pairs.reserve(scores.size());
  for (const auto& [key, score] : scores) {
    pairs.push_back({static_cast<int>(key >> 32),
                     static_cast<int>(key & 0xffffffffu)});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const serve::ScoreRequest& a, const serve::ScoreRequest& b) {
              return a.item != b.item ? a.item < b.item : a.user < b.user;
            });
  constexpr size_t kChunk = 512;
  size_t mismatches = 0;
  for (size_t begin = 0; begin < pairs.size(); begin += kChunk) {
    const std::vector<serve::ScoreRequest> chunk(
        pairs.begin() + static_cast<std::ptrdiff_t>(begin),
        pairs.begin() + static_cast<std::ptrdiff_t>(
                            std::min(pairs.size(), begin + kChunk)));
    const std::vector<float> want = reference->ScoreBatch(chunk);
    for (size_t i = 0; i < chunk.size(); ++i) {
      const float got = scores.at(PairKey(chunk[i].user, chunk[i].item));
      if (std::memcmp(&got, &want[i], sizeof(float)) != 0) ++mismatches;
    }
  }
  return mismatches;
}

double TestRmse(serve::Scorer* scorer, const World& w) {
  std::vector<serve::ScoreRequest> requests;
  std::vector<float> gold;
  for (int u : w.split.test_users) {
    for (int idx : w.cross.target().RecordsOfUser(u)) {
      const size_t i = static_cast<size_t>(idx);
      requests.push_back({u, w.cross.target().ReviewItem(i)});
      gold.push_back(w.cross.target().ReviewRating(i));
    }
  }
  const std::vector<float> scores = scorer->ScoreBatch(requests);
  double sq = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    sq += static_cast<double>(scores[i] - gold[i]) * (scores[i] - gold[i]);
  }
  return std::sqrt(sq / static_cast<double>(std::max<size_t>(1, gold.size())));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      // data / core.trainer set-up (train)
      {"data.world_ms", "ms"},
      {"trainer.prepare_ms", "ms"},
      {"aux_review.generate_all_ms", "ms"},
      {"aux_review.match_ratio", "ratio"},
      // core.trainer phase histograms, mean per step (train)
      {"trainer.forward_ms", "ms"},
      {"trainer.backward_ms", "ms"},
      {"trainer.doc_assembly_ms", "ms"},
      {"trainer.guard_snapshot_ms", "ms"},
      {"trainer.optimizer_step_ms", "ms"},
      // core.model in training mode, one batch of 64 (train)
      {"model.extract_user_fwd_us", "us"},
      {"model.extract_item_fwd_us", "us"},
      {"model.project_fwd_us", "us"},
      {"model.rating_logits_fwd_us", "us"},
      {"model.domain_logits_fwd_us", "us"},
      {"losses.supcon_us", "us"},
      {"losses.rating_ce_us", "us"},
      {"losses.domain_ce_us", "us"},
      {"autograd.backward_us", "us"},
      {"optimizer.step_us", "us"},
      {"graph.replay_step_ms", "ms"},
      {"graph.eager_step_ms", "ms"},
      {"threadpool.busy_ratio", "ratio"},
      {"threadpool.inline_ratio", "ratio"},
      // nn.gemm kernels (every workload)
      {"gemm.gflops.conv_user", "GFLOP/s"},
      {"gemm.gflops.conv_item", "GFLOP/s"},
      {"gemm.gflops.head_mlp0", "GFLOP/s"},
      {"gemm.gflops.head_mlp1", "GFLOP/s"},
      {"int8_gemm.gops.head_mlp0", "GOP/s"},
      {"int8_gemm.gops.head_mlp1", "GOP/s"},
      // serve.snapshot / snapshot_manager
      {"snapshot.load_ms", "ms"},
      {"snapshot.load_quant_ms", "ms"},
      {"snapshot_manager.swap_ms", "ms"},
      {"snapshot.build_cold_docs_us", "us"},
      // serve.server / scorer / cache
      {"server.queue_wait_us", "us"},
      {"server.mean_batch", "count"},
      {"scorer.score_batch_us.b1", "us"},
      {"scorer.score_batch_us.b32", "us"},
      {"scorer.admit_us", "us"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_req", "ratio"},
      // core.model in eval mode (serving)
      {"model.extract_item_us.b1", "us"},
      {"model.extract_item_us.b32", "us"},
      {"model.rating_logits_us.b32", "us"},
      {"model.extract_user_us.b4", "us"},
      // serve.quant_head
      {"quant_head.rating_logits_us.b32", "us"},
      // load generator and per-phase request accounting (serving)
      {"bench.sched_lag_us", "us"},
      {"bench.rungs", "count"},
      {"nominal.sent", "count"},
      {"nominal.ok", "count"},
      {"nominal.degraded_cached", "count"},
      {"nominal.degraded_fallback", "count"},
      {"nominal.deadline_exceeded", "count"},
      {"nominal.overloaded", "count"},
      {"capacity.sent", "count"},
      {"capacity.ok", "count"},
      {"capacity.degraded_cached", "count"},
      {"capacity.degraded_fallback", "count"},
      {"capacity.deadline_exceeded", "count"},
      {"capacity.overloaded", "count"},
      {"ladder.goodput_qps", "1/s"},
      {"ladder.sent", "count"},
      {"ladder.ok", "count"},
      {"ladder.degraded_cached", "count"},
      {"ladder.degraded_fallback", "count"},
      {"ladder.deadline_exceeded", "count"},
      {"ladder.overloaded", "count"},
      // untimed fixture training and the tracing itself
      {"fixture.train_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return kMetrics;
}

int TrainFixture(uint64_t seed, const std::string& path) {
  World w = MakeWorld(seed);
  core::OmniMatchConfig config = DefaultConfig(seed, 2);
  config.epochs = kFixtureEpochs;
  const int64_t t0 = NowNs();
  core::OmniMatchTrainer trainer(config, &w.cross, w.split);
  Status status = trainer.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "fixture: Prepare failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  trainer.Train();
  status = trainer.SaveCheckpoint(path);
  if (!status.ok()) {
    std::fprintf(stderr, "fixture: SaveCheckpoint failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const double train_s = static_cast<double>(NowNs() - t0) / 1e9;
  std::ofstream(path + ".train_s") << train_s << "\n";
  std::printf("# fixture seed %llu trained in %.2f s -> %s\n",
              static_cast<unsigned long long>(seed), train_s, path.c_str());
  return 0;
}

void ProbeKernels(Report* report) {
  const int threads_before = GetNumThreads();
  SetNumThreads(1);
  Rng rng(5);
  auto random_floats = [&](size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = rng.UniformFloat(-1.0f, 1.0f);
    return v;
  };
  const core::OmniMatchConfig config;
  const int embed = config.embed_dim;
  const int channels = config.cnn_channels;
  const int k = 4;  // the middle kernel size of {3, 4, 5}
  // Text convolution: one document's sliding windows against the filters.
  for (const auto& [name, doc_len] :
       {std::pair<const char*, int>{"gemm.gflops.conv_user", config.doc_len},
        {"gemm.gflops.conv_item", config.item_doc_len}}) {
    const int windows = doc_len - k + 1;
    std::vector<float> doc = random_floats(static_cast<size_t>(doc_len) * embed);
    std::vector<float> w = random_floats(static_cast<size_t>(channels) * k * embed);
    std::vector<float> out(static_cast<size_t>(windows) * channels);
    const double us = TimeUs(200, 20, [&] {
      std::fill(out.begin(), out.end(), 0.0f);
      nn::GemmNTStrided(doc.data(), embed, w.data(), out.data(), windows,
                        k * embed, channels);
    });
    report->Set(name, 2.0 * windows * k * embed * channels / us / 1e3,
                "GFLOP/s");
  }
  // Rating-head MLP layers at a 32-row serving batch: 4f -> 2f -> f.
  const int f = config.feature_dim;
  struct Shape {
    const char* float_name;
    const char* int8_name;
    int m, k, n;
  };
  for (const Shape& s :
       {Shape{"gemm.gflops.head_mlp0", "int8_gemm.gops.head_mlp0", 32, 4 * f,
              2 * f},
        Shape{"gemm.gflops.head_mlp1", "int8_gemm.gops.head_mlp1", 32, 2 * f,
              f}}) {
    std::vector<float> a = random_floats(static_cast<size_t>(s.m) * s.k);
    std::vector<float> b = random_floats(static_cast<size_t>(s.k) * s.n);
    std::vector<float> c(static_cast<size_t>(s.m) * s.n);
    const double ops = 2.0 * s.m * s.k * s.n;
    const double us = TimeUs(500, 50, [&] {
      std::fill(c.begin(), c.end(), 0.0f);
      nn::GemmNN(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    });
    report->Set(s.float_name, ops / us / 1e3, "GFLOP/s");
    std::vector<int8_t> qa(static_cast<size_t>(s.m) * s.k);
    std::vector<int8_t> qb(static_cast<size_t>(s.n) * s.k);
    for (int8_t& x : qa) x = static_cast<int8_t>(rng.UniformInt(-127, 127));
    for (int8_t& x : qb) x = static_cast<int8_t>(rng.UniformInt(-127, 127));
    std::vector<int32_t> qc(static_cast<size_t>(s.m) * s.n);
    nn::int8gemm::Int8GemmNTFn kernel = nn::int8gemm::ActiveKernel();
    const double int8_us = TimeUs(500, 50, [&] {
      kernel(qa.data(), qb.data(), qc.data(), s.m, s.k, s.n);
    });
    report->Set(s.int8_name, ops / int8_us / 1e3, "GOP/s");
  }
  SetNumThreads(threads_before);
}

}  // namespace omnibench
