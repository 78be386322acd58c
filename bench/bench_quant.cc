// Quantized-inference harness for the int8 serving path (src/nn/quant.h +
// serve/quant_head.h): trains a model whose rating head has the production
// shapes (feature_dim 48 -> GEMMs 96x48, 192x96, 96x48, 48x5), freezes it
// into a float and a --quant ModelSnapshot of the SAME checkpoint, then
// measures:
//
//   * accuracy — RMSE of both scorers against the held-out gold ratings
//     (the Table 2 protocol on the synthetic world); the gate is the
//     DELTA between them, not the absolute value.
//   * scoring throughput — the rating head itself (feature rows -> logits,
//     the exact stage --quant swaps), float32 Mlp vs the int8 head with
//     its quantize/dequant overhead included; plus end-to-end warm-cache
//     ScoreBatch as context (shared admission/extraction caps that ratio).
//   * kernel speedup — raw int8 GemmS8NT vs float GemmNT on the head
//     shapes, per compiled ISA flavor up to the dispatched one.
//   * determinism — quant scores must be bit-identical across repeated
//     runs and thread counts (int32 accumulation + portable-TU epilogue).
//
// Writes a machine-readable BENCH_quant.json including the dispatched ISA
// and the per-node plan.
//
//   ./bench_quant [--out=BENCH_quant.json] [--smoke] [--check]
//                 [--users=200] [--epochs=2] [--reps=5]
//                 [--speedup_min=2.0] [--serving_min=1.0]
//                 [--rmse_delta_max=0.01] [--threads=N]
//
// --check self-gates: the quant snapshot must carry a planned head with
// int8 nodes, scores must be finite and deterministic, the RMSE delta must
// stay under --rmse_delta_max, the scoring-head speedup must reach
// --speedup_min (default 2.0 — the issue's acceptance bar; both sides are
// measured in the same run so the ratio is robust to a loaded host), and
// end-to-end serving must not regress (--serving_min, default 1.0:
// admission/extraction dominate it and are shared by both paths).
// The scalar-forced portable lane passes --speedup_min=0 --serving_min=0:
// scalar int8 legitimately loses to float (the win is SIMD), so only the
// accuracy/determinism gates are meaningful there.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "nn/gemm.h"
#include "nn/gemm/int8_gemm.h"
#include "nn/tensor.h"
#include "serve/scorer.h"
#include "serve/snapshot.h"

using namespace omnimatch;

namespace {

/// Head GEMM shapes for the default feature_dim=48 model, [M, K, N].
struct GemmShape {
  const char* name;
  int m, k, n;
};

/// Best-of-reps wall time of fn() in seconds.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

struct KernelResult {
  std::string isa;
  std::string shape;
  double float_gops = 0.0;
  double int8_gops = 0.0;
  double speedup = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  const bool smoke = flags.GetBool("smoke", false);
  const bool check = flags.GetBool("check", false);
  const std::string out_path = flags.GetString("out", "BENCH_quant.json");
  const int num_users = flags.GetInt("users", smoke ? 80 : 200);
  const int epochs = flags.GetInt("epochs", smoke ? 1 : 2);
  const int reps = flags.GetInt("reps", smoke ? 3 : 5);
  const double speedup_min = flags.GetDouble("speedup_min", 2.0);
  const double serving_min = flags.GetDouble("serving_min", 1.0);
  const double rmse_delta_max = flags.GetDouble("rmse_delta_max", 0.01);
  ApplyThreadsFlag(flags);
  flags.RejectUnreadFlags();

  std::printf("bench_quant: detected ISA %s, active %s, best compiled %s\n",
              IsaName(DetectedIsa()), IsaName(ActiveIsa()),
              IsaName(nn::int8gemm::BestCompiledIsa()));

  // --- World + training: tiny extractors, PRODUCTION head shapes --------
  // feature_dim stays at the paper's 48 so the quantized GEMMs are the
  // real serving shapes; the text extractors shrink so training fits a CI
  // budget.
  data::SyntheticConfig world_config;
  world_config.num_users = num_users;
  world_config.items_per_domain = num_users / 2;
  world_config.mean_reviews_per_user = 5;
  world_config.seed = 17;
  data::SyntheticWorld world(world_config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(18);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  core::OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 48;
  config.projection_dim = 16;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 16;
  config.epochs = epochs;
  config.select_best_epoch = false;
  config.seed = 19;

  core::OmniMatchTrainer trainer(config, &cross, split);
  if (!trainer.Prepare().ok()) {
    std::fprintf(stderr, "bench_quant: Prepare failed\n");
    return 1;
  }
  trainer.Train();
  const std::string ckpt = out_path + ".ckpt.omck";
  if (!trainer.SaveCheckpoint(ckpt).ok()) {
    std::fprintf(stderr, "bench_quant: SaveCheckpoint failed\n");
    return 1;
  }

  // --- Float and quantized snapshots of the same checkpoint -------------
  Result<std::shared_ptr<const serve::ModelSnapshot>> float_loaded =
      serve::ModelSnapshot::Load(config, &cross, split, ckpt);
  if (!float_loaded.ok()) {
    std::fprintf(stderr, "bench_quant: float snapshot load failed: %s\n",
                 float_loaded.status().ToString().c_str());
    return 1;
  }
  serve::ModelSnapshot::Options quant_options;
  quant_options.quantize = true;
  Result<std::shared_ptr<const serve::ModelSnapshot>> quant_loaded =
      serve::ModelSnapshot::Load(config, &cross, split, ckpt, quant_options);
  if (!quant_loaded.ok()) {
    std::fprintf(stderr, "bench_quant: quant snapshot load failed: %s\n",
                 quant_loaded.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const serve::ModelSnapshot> float_snap =
      float_loaded.value();
  std::shared_ptr<const serve::ModelSnapshot> quant_snap =
      quant_loaded.value();
  const serve::QuantizedRatingHead* head = quant_snap->quant_head();
  if (head == nullptr) {
    std::fprintf(stderr, "bench_quant: quant snapshot carries no head\n");
    return 1;
  }
  std::printf("bench_quant: %s\n", head->plan().ToString().c_str());

  // --- Eval pairs: every held-out (user, item, gold) in the target ------
  struct EvalPair {
    int user, item;
    float gold;
  };
  std::vector<EvalPair> pairs;
  for (int u : split.test_users) {
    for (int idx : cross.target().RecordsOfUser(u)) {
      const size_t i = static_cast<size_t>(idx);
      pairs.push_back({u, cross.target().ReviewItem(i),
                       cross.target().ReviewRating(i)});
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "bench_quant: no eval pairs\n");
    return 1;
  }
  std::vector<serve::ScoreRequest> requests;
  requests.reserve(pairs.size());
  for (const EvalPair& p : pairs) requests.push_back({p.user, p.item});

  // --- Accuracy: RMSE vs gold, float vs quant ---------------------------
  serve::Scorer float_scorer(float_snap, pairs.size() + 16);
  serve::Scorer quant_scorer(quant_snap, pairs.size() + 16);
  std::vector<float> float_scores = float_scorer.ScoreBatch(requests);
  std::vector<float> quant_scores = quant_scorer.ScoreBatch(requests);
  bool all_finite = true;
  double sq_f = 0.0, sq_q = 0.0, max_pair_diff = 0.0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!std::isfinite(quant_scores[i])) all_finite = false;
    sq_f += static_cast<double>(float_scores[i] - pairs[i].gold) *
            (float_scores[i] - pairs[i].gold);
    sq_q += static_cast<double>(quant_scores[i] - pairs[i].gold) *
            (quant_scores[i] - pairs[i].gold);
    max_pair_diff =
        std::max(max_pair_diff,
                 std::fabs(static_cast<double>(quant_scores[i]) -
                           float_scores[i]));
  }
  const double rmse_float = std::sqrt(sq_f / pairs.size());
  const double rmse_quant = std::sqrt(sq_q / pairs.size());
  const double rmse_delta = std::fabs(rmse_quant - rmse_float);
  std::printf(
      "accuracy: rmse float %.4f, quant %.4f, delta %.5f, "
      "max pair diff %.4f over %zu pairs\n",
      rmse_float, rmse_quant, rmse_delta, max_pair_diff, pairs.size());

  // --- Determinism: repeat + thread-count invariance --------------------
  std::vector<float> quant_again = quant_scorer.ScoreBatch(requests);
  bool deterministic = quant_again == quant_scores;
  {
    const int before = GetNumThreads();
    SetNumThreads(1);
    serve::Scorer serial_scorer(quant_snap, pairs.size() + 16);
    std::vector<float> serial = serial_scorer.ScoreBatch(requests);
    SetNumThreads(before);
    if (serial != quant_scores) deterministic = false;
  }

  // --- Scoring throughput: the rating head, single-thread ---------------
  // This is the path --quant swaps out: feature rows in, 5-class logits
  // out, float32 Mlp vs the int8 head (whose time INCLUDES activation
  // quantization and the dequant epilogue). Feature content doesn't affect
  // timing, so rows are synthetic at calibration-realistic magnitudes.
  const int before_threads = GetNumThreads();
  SetNumThreads(1);
  const int head_rows = smoke ? 256 : 512;
  const int user_width = head->user_width();
  const int item_width = head->item_width();
  std::vector<float> head_user(
      static_cast<size_t>(head_rows) * user_width);
  std::vector<float> head_item(
      static_cast<size_t>(head_rows) * item_width);
  Rng head_rng(21);
  for (float& v : head_user) v = head_rng.UniformFloat(-1.0f, 1.0f);
  for (float& v : head_item) v = head_rng.UniformFloat(-1.0f, 1.0f);
  core::OmniMatchModel* model = quant_snap->model();
  const int head_inner = smoke ? 10 : 30;
  const double head_float_s = TimeBest(reps, [&] {
    for (int i = 0; i < head_inner; ++i) {
      nn::Tensor u = nn::Tensor::FromData({head_rows, user_width},
                                          std::vector<float>(head_user));
      nn::Tensor it = nn::Tensor::FromData({head_rows, item_width},
                                           std::vector<float>(head_item));
      nn::Tensor logits = model->RatingLogits(u, it);
      (void)logits;
    }
  });
  std::vector<float> head_logits;
  const double head_quant_s = TimeBest(reps, [&] {
    for (int i = 0; i < head_inner; ++i) {
      head->RatingLogits(head_user.data(), head_item.data(), head_rows,
                         &head_logits);
    }
  });
  const double head_total = static_cast<double>(head_rows) * head_inner;
  const double head_float_qps = head_total / head_float_s;
  const double head_quant_qps = head_total / head_quant_s;
  const double head_speedup = head_float_s / head_quant_s;
  std::printf(
      "scoring head (1 thread): float %.0f rows/s, int8 %.0f rows/s, "
      "speedup %.2fx\n",
      head_float_qps, head_quant_qps, head_speedup);

  // --- End-to-end serving: single-thread, warm cache --------------------
  // Context, not the gate: admission, extractor, and cache costs are
  // shared by both paths, so Amdahl caps the end-to-end ratio well below
  // the head speedup.
  const double float_s = TimeBest(
      reps, [&] { float_scorer.ScoreBatch(requests); });
  const double quant_s = TimeBest(
      reps, [&] { quant_scorer.ScoreBatch(requests); });
  const double float_qps = pairs.size() / float_s;
  const double quant_qps = pairs.size() / quant_s;
  const double serving_speedup = float_s / quant_s;
  std::printf(
      "serving e2e (1 thread, warm): float %.0f scores/s, quant %.0f "
      "scores/s, speedup %.2fx\n",
      float_qps, quant_qps, serving_speedup);

  // --- Kernel microbench: head shapes, per runnable ISA -----------------
  // Single-threaded: GemmNT shards internally via ParallelFor while the raw
  // int8 kernels are per-call serial, so thread count 1 is the only
  // apples-to-apples comparison.
  SetNumThreads(1);
  const GemmShape shapes[] = {
      {"mlp0_192x96", 256, 192, 96},
      {"mlp1_96x48", 256, 96, 48},
      {"inter_96x48", 256, 96, 48},
  };
  std::vector<KernelResult> kernels;
  Rng krng(20);
  for (const GemmShape& s : shapes) {
    std::vector<float> fa(static_cast<size_t>(s.m) * s.k);
    std::vector<float> fb(static_cast<size_t>(s.n) * s.k);
    for (float& v : fa) v = krng.UniformFloat(-1.0f, 1.0f);
    for (float& v : fb) v = krng.UniformFloat(-1.0f, 1.0f);
    std::vector<float> fc(static_cast<size_t>(s.m) * s.n, 0.0f);
    std::vector<int8_t> qa(fa.size()), qb(fb.size());
    for (size_t i = 0; i < qa.size(); ++i) {
      qa[i] = static_cast<int8_t>(krng.UniformInt(-127, 127));
    }
    for (size_t i = 0; i < qb.size(); ++i) {
      qb[i] = static_cast<int8_t>(krng.UniformInt(-127, 127));
    }
    std::vector<int32_t> qc(fc.size(), 0);
    const double ops = 2.0 * s.m * s.k * s.n;
    const int inner = smoke ? 20 : 100;
    const double float_t = TimeBest(reps, [&] {
      for (int i = 0; i < inner; ++i) {
        std::fill(fc.begin(), fc.end(), 0.0f);
        nn::GemmNT(fa.data(), fb.data(), fc.data(), s.m, s.k, s.n);
      }
    });
    std::vector<nn::int8gemm::Int8GemmNTFn> benched;
    for (IsaLevel level :
         {IsaLevel::kScalar, IsaLevel::kNeon, IsaLevel::kAvx2,
          IsaLevel::kAvx512}) {
      if (static_cast<int>(level) > static_cast<int>(ActiveIsa())) continue;
      if (level != IsaLevel::kScalar &&
          static_cast<int>(level) >
              static_cast<int>(nn::int8gemm::BestCompiledIsa())) {
        continue;
      }
      nn::int8gemm::Int8GemmNTFn fn = nn::int8gemm::SelectKernel(level);
      // SelectKernel clamps to the flavors actually compiled in (e.g.
      // kNeon resolves to scalar on x86); don't re-time a kernel under a
      // second name.
      if (std::find(benched.begin(), benched.end(), fn) != benched.end()) {
        continue;
      }
      benched.push_back(fn);
      const double int8_t_s = TimeBest(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          fn(qa.data(), qb.data(), qc.data(), s.m, s.k, s.n);
        }
      });
      KernelResult r;
      r.isa = IsaName(level);
      r.shape = s.name;
      r.float_gops = ops * inner / float_t / 1e9;
      r.int8_gops = ops * inner / int8_t_s / 1e9;
      r.speedup = float_t / int8_t_s;
      kernels.push_back(r);
      std::printf("kernel %-14s %-7s float %7.2f GOP/s  int8 %7.2f GOP/s  "
                  "%.2fx\n",
                  s.name, r.isa.c_str(), r.float_gops, r.int8_gops,
                  r.speedup);
    }
  }
  SetNumThreads(before_threads);

  // --- JSON --------------------------------------------------------------
  {
    std::ofstream out(out_path);
    out << "{\n";
    out << StrFormat("  \"isa_detected\": \"%s\",\n", IsaName(DetectedIsa()));
    out << StrFormat("  \"isa_active\": \"%s\",\n", IsaName(ActiveIsa()));
    out << StrFormat("  \"isa_best_compiled\": \"%s\",\n",
                     IsaName(nn::int8gemm::BestCompiledIsa()));
    out << StrFormat("  \"plan\": \"%s\",\n",
                     head->plan().ToString().c_str());
    out << StrFormat("  \"int8_nodes\": %d,\n", head->plan().Int8Nodes());
    out << StrFormat("  \"eval_pairs\": %zu,\n", pairs.size());
    out << StrFormat("  \"rmse_float\": %.6f,\n", rmse_float);
    out << StrFormat("  \"rmse_quant\": %.6f,\n", rmse_quant);
    out << StrFormat("  \"rmse_delta\": %.6f,\n", rmse_delta);
    out << StrFormat("  \"max_pair_diff\": %.6f,\n", max_pair_diff);
    out << StrFormat("  \"deterministic\": %s,\n",
                     deterministic ? "true" : "false");
    out << StrFormat("  \"head_float_rows_per_s\": %.1f,\n", head_float_qps);
    out << StrFormat("  \"head_quant_rows_per_s\": %.1f,\n", head_quant_qps);
    out << StrFormat("  \"head_speedup_1t\": %.3f,\n", head_speedup);
    out << StrFormat("  \"serving_float_scores_per_s\": %.1f,\n", float_qps);
    out << StrFormat("  \"serving_quant_scores_per_s\": %.1f,\n", quant_qps);
    out << StrFormat("  \"serving_speedup_1t\": %.3f,\n", serving_speedup);
    out << "  \"kernels\": [\n";
    for (size_t i = 0; i < kernels.size(); ++i) {
      out << StrFormat(
          "    {\"shape\": \"%s\", \"isa\": \"%s\", \"float_gops\": %.2f, "
          "\"int8_gops\": %.2f, \"speedup\": %.3f}%s\n",
          kernels[i].shape.c_str(), kernels[i].isa.c_str(),
          kernels[i].float_gops, kernels[i].int8_gops, kernels[i].speedup,
          i + 1 < kernels.size() ? "," : "");
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }
  std::remove(ckpt.c_str());

  // --- Gates --------------------------------------------------------------
  if (check) {
    bool ok = true;
    auto fail = [&](const std::string& why) {
      std::fprintf(stderr, "bench_quant check FAILED: %s\n", why.c_str());
      ok = false;
    };
    if (head->plan().Int8Nodes() < 1) {
      fail("plan contains no int8 nodes — quantization never engaged");
    }
    if (!all_finite) fail("non-finite quantized score");
    if (!deterministic) {
      fail("quant scores not bit-identical across runs/thread counts");
    }
    if (rmse_delta >= rmse_delta_max) {
      fail(StrFormat("rmse delta %.5f exceeds budget %.5f", rmse_delta,
                     rmse_delta_max));
    }
    if (head_speedup < speedup_min) {
      fail(StrFormat("scoring-head speedup %.3fx below floor %.3fx",
                     head_speedup, speedup_min));
    }
    if (serving_speedup < serving_min) {
      fail(StrFormat("end-to-end serving regressed under --quant: %.3fx "
                     "(floor %.3fx)",
                     serving_speedup, serving_min));
    }
    if (!ok) return 1;
    std::printf("quant check passed\n");
  }
  return 0;
}
