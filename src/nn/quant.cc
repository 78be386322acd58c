#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

#include "common/check.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"

namespace omnimatch {
namespace nn {
namespace quant {

namespace {

obs::Counter* QuantGemmCalls() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("quant.gemm_calls");
  return c;
}
obs::Counter* QuantGemmOps() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global().GetCounter("quant.gemm_ops");
  return c;
}

/// clamp, then round-to-nearest-even — symmetric, so -128 is never produced
/// and negation commutes with quantization. Clamping BEFORE rounding is
/// equivalent (rounding is monotone and the bounds are integers). Rounding
/// uses the 1.5·2^23 magic-constant trick: for |c| <= 127 the sum lands in
/// [2^23, 2^24) where float ulp is exactly 1, so the IEEE add rounds c to
/// the nearest integer (ties to even, same as nearbyintf) and the subtract
/// is exact. Branch-free, no libm call (nearbyintf/lrintf stay PLT calls
/// under default -fmath-errno), and auto-vectorizable — this runs once per
/// activation element on the serving hot path. Lives here (one TU, portable
/// flags) so rounding is identical no matter which GEMM flavor dispatch
/// picked.
inline int8_t QuantizeOne(float x, float inv_scale) {
  constexpr float kRound = 12582912.0f;  // 1.5 * 2^23
  const float c = std::min(127.0f, std::max(-127.0f, x * inv_scale));
  return static_cast<int8_t>((c + kRound) - kRound);
}

}  // namespace

QuantizedWeights QuantizeWeightsPerChannel(const Tensor& weight) {
  OM_CHECK_EQ(weight.ndim(), 2);
  const int in = weight.dim(0);
  const int out = weight.dim(1);
  const std::vector<float>& w = weight.data();
  QuantizedWeights q;
  q.in = in;
  q.out = out;
  q.packed.resize(static_cast<size_t>(in) * out);
  q.scales.resize(static_cast<size_t>(out));
  for (int n = 0; n < out; ++n) {
    float max_abs = 0.0f;
    for (int k = 0; k < in; ++k) {
      max_abs = std::max(max_abs,
                         std::fabs(w[static_cast<size_t>(k) * out + n]));
    }
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
    q.scales[static_cast<size_t>(n)] = scale;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    int8_t* row = q.packed.data() + static_cast<size_t>(n) * in;
    for (int k = 0; k < in; ++k) {
      row[k] = QuantizeOne(w[static_cast<size_t>(k) * out + n], inv);
    }
  }
  return q;
}

void QuantizeActivations(const float* x, size_t n, float scale, int8_t* q) {
  if (scale <= 0.0f) {
    std::fill(q, q + n, static_cast<int8_t>(0));
    return;
  }
  const float inv = 1.0f / scale;
  size_t i = 0;
#if defined(__SSE2__)
  // SSE2 is part of the x86-64 baseline, so this is NOT a dispatched path —
  // it runs identically under every OMNIMATCH_ISA level, which is what the
  // bit-identity contract needs. cvtps2dq rounds to nearest-even under the
  // default MXCSR mode, exactly the scalar magic-constant rounding, and the
  // pack saturations are no-ops because the values are already clamped to
  // [-127, 127]. Branchless min/max also makes throughput independent of
  // how many inputs saturate (the scalar clamp's branches mispredict badly
  // on saturating data).
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128 vlo = _mm_set1_ps(-127.0f);
  const __m128 vhi = _mm_set1_ps(127.0f);
  for (; i + 16 <= n; i += 16) {
    __m128i d[4];
    for (int j = 0; j < 4; ++j) {
      __m128 v = _mm_mul_ps(_mm_loadu_ps(x + i + 4 * j), vinv);
      v = _mm_min_ps(vhi, _mm_max_ps(vlo, v));
      d[j] = _mm_cvtps_epi32(v);
    }
    const __m128i w0 = _mm_packs_epi32(d[0], d[1]);
    const __m128i w1 = _mm_packs_epi32(d[2], d[3]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(w0, w1));
  }
#elif defined(__ARM_NEON)
  // NEON is the aarch64 baseline; vcvtnq rounds to nearest-even like the
  // scalar path, so the same reasoning applies.
  const float32x4_t vinv = vdupq_n_f32(inv);
  const float32x4_t vlo = vdupq_n_f32(-127.0f);
  const float32x4_t vhi = vdupq_n_f32(127.0f);
  for (; i + 16 <= n; i += 16) {
    int32x4_t d[4];
    for (int j = 0; j < 4; ++j) {
      float32x4_t v = vmulq_f32(vld1q_f32(x + i + 4 * j), vinv);
      v = vminq_f32(vhi, vmaxq_f32(vlo, v));
      d[j] = vcvtnq_s32_f32(v);
    }
    const int16x8_t w0 = vcombine_s16(vmovn_s32(d[0]), vmovn_s32(d[1]));
    const int16x8_t w1 = vcombine_s16(vmovn_s32(d[2]), vmovn_s32(d[3]));
    vst1q_s8(q + i, vcombine_s8(vmovn_s16(w0), vmovn_s16(w1)));
  }
#endif
  for (; i < n; ++i) q[i] = QuantizeOne(x[i], inv);
}

ActivationCalibrator::ActivationCalibrator()
    : hist_(std::make_unique<obs::Histogram>(AbsBounds())) {}

std::vector<double> ActivationCalibrator::AbsBounds() {
  // Geometric 1e-6 .. 1e6, 16 buckets per decade: activations span a few
  // decades at most, and ~15% bucket resolution is plenty for a clip point
  // that gets clamped to the exact max anyway.
  std::vector<double> bounds;
  bounds.reserve(12 * 16 + 1);
  const double ratio = std::pow(10.0, 1.0 / 16.0);
  double b = 1e-6;
  for (int i = 0; i <= 12 * 16; ++i) {
    bounds.push_back(b);
    b *= ratio;
  }
  return bounds;
}

void ActivationCalibrator::Observe(const float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    hist_->Observe(static_cast<double>(a));
    if (a > max_abs_) max_abs_ = a;
  }
}

float ActivationCalibrator::ComputeScale(double quantile) const {
  if (hist_->Count() == 0 || max_abs_ <= 0.0f) return 0.0f;
  // The histogram bucket bound can overshoot the true quantile by one
  // bucket ratio; the exact running max caps it. With quantile == 1.0 this
  // reduces to max_abs exactly.
  const double clip = std::min(static_cast<double>(max_abs_),
                               obs::HistogramQuantile(*hist_, quantile));
  if (clip <= 0.0) return 0.0f;
  return static_cast<float>(clip / 127.0);
}

bool ShouldQuantizeNode(int k, int n, std::string* reason) {
  if (k < kQuantMinK) {
    if (reason != nullptr) {
      *reason = "K=" + std::to_string(k) + " below min_k=" +
                std::to_string(kQuantMinK);
    }
    return false;
  }
  if (n < kQuantMinN) {
    if (reason != nullptr) {
      *reason = "N=" + std::to_string(n) + " below min_n=" +
                std::to_string(kQuantMinN);
    }
    return false;
  }
  if (reason != nullptr) *reason = "int8 profitable";
  return true;
}

int QuantPlan::Int8Nodes() const {
  int count = 0;
  for (const QuantNode& node : nodes) {
    if (node.int8) ++count;
  }
  return count;
}

std::string QuantPlan::ToString() const {
  std::ostringstream os;
  os << "QuantPlan{isa=" << IsaName(isa) << ", nodes=[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << ", ";
    os << nodes[i].name << "(K=" << nodes[i].k << ",N=" << nodes[i].n
       << "," << (nodes[i].int8 ? "int8" : "float32") << ": "
       << nodes[i].reason << ")";
  }
  os << "]}";
  return os.str();
}

QuantizedLinear::QuantizedLinear(const Tensor& weight, const Tensor& bias,
                                 float input_scale, bool relu)
    : weights_(QuantizeWeightsPerChannel(weight)),
      bias_(bias.data()),
      input_scale_(input_scale),
      relu_(relu) {
  OM_CHECK_EQ(static_cast<int>(bias_.size()), weights_.out);
  OM_CHECK_LE(weights_.in, int8gemm::kMaxK);
  dequant_.resize(weights_.scales.size());
  for (size_t n = 0; n < dequant_.size(); ++n) {
    dequant_[n] = input_scale_ * weights_.scales[n];
  }
}

void QuantizedLinear::Forward(const float* x, int rows, float* y) const {
  ForwardWithKernel(x, rows, y, int8gemm::ActiveKernel());
}

void QuantizedLinear::ForwardWithKernel(
    const float* x, int rows, float* y,
    int8gemm::Int8GemmNTFn kernel) const {
  if (rows <= 0) return;
  const int k_dim = weights_.in;
  const int n_dim = weights_.out;
  QuantGemmCalls()->Increment();
  QuantGemmOps()->Add(2LL * rows * k_dim * n_dim);
  // Row sharding: quantize → integer GEMM → dequant epilogue, all on this
  // task's own rows. Each output element is produced by exactly one task
  // from exactly one (deterministic) int32 accumulator, so results are
  // bit-identical for every thread count AND every kernel flavor.
  const int64_t grain =
      std::max<int64_t>(1, kElemGrain / std::max(1, k_dim * n_dim));
  ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
    static thread_local std::vector<int8_t> xq;
    static thread_local std::vector<int32_t> acc;
    const int chunk = static_cast<int>(r1 - r0);
    xq.resize(static_cast<size_t>(chunk) * k_dim);
    acc.resize(static_cast<size_t>(chunk) * n_dim);
    QuantizeActivations(x + r0 * k_dim, static_cast<size_t>(chunk) * k_dim,
                        input_scale_, xq.data());
    kernel(xq.data(), weights_.packed.data(), acc.data(), chunk, k_dim,
           n_dim);
    for (int r = 0; r < chunk; ++r) {
      const int32_t* arow = acc.data() + static_cast<size_t>(r) * n_dim;
      float* yrow = y + (r0 + r) * n_dim;
      for (int n = 0; n < n_dim; ++n) {
        // Same epilogue expression as the float FusedLinearForward,
        // including the -0.0f -> +0.0f ReLU mapping.
        const float v =
            static_cast<float>(arow[n]) * dequant_[n] + bias_[n];
        yrow[n] = relu_ ? (v > 0.0f ? v : 0.0f) : v;
      }
    }
  });
}

}  // namespace quant
}  // namespace nn
}  // namespace omnimatch
