#ifndef OMNIMATCH_NN_QUANT_H_
#define OMNIMATCH_NN_QUANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "nn/gemm/int8_gemm.h"
#include "nn/tensor.h"
#include "obs/metrics.h"

namespace omnimatch {
namespace nn {
namespace quant {

/// Per-channel symmetric int8 quantization for the inference-only runtime
/// (ROADMAP item 3).
///
/// Scheme — symmetric, zero-point-free (the npu_compiler quantization_params
/// plumbing reduced to the symmetric case):
///   * Weights: per OUTPUT CHANNEL. Column n of a Linear weight W[in, out]
///     gets scale_w[n] = max|W[:, n]| / 127 and is stored as a contiguous
///     int8 row in NT layout (one row per output channel), the exact layout
///     the int8 GEMM kernels consume.
///   * Activations: per tensor, with a scale CALIBRATED OFFLINE from
///     activation histograms (ActivationCalibrator below, built on the obs
///     histogram machinery) recorded during a float calibration pass.
///   * Accumulation: exact int32 (nn/gemm/int8_gemm.h), dequantized in the
///     epilogue by scale_x * scale_w[n], plus the float bias.
///
/// Determinism contract: requantization, the epilogue and every other float
/// instruction live in THIS translation unit, compiled once with portable
/// flags; the per-ISA kernels are integer-only and bit-identical. So the
/// quantized path's results do not depend on the dispatched ISA, and the
/// per-ISA equivalence test can assert full-output bit-identity.

/// Quantile of the |activation| histogram used as the clip point (clamped
/// to the exact observed max — the histogram's bucket upper bound can
/// overshoot it by one bucket ratio).
inline constexpr double kCalibrationQuantile = 0.9995;
/// Rows of calibration input sampled per layer (snapshot load caps this at
/// what the frozen world offers).
inline constexpr int kCalibrationRows = 256;
/// Per-node planning floors: a Linear with K < kQuantMinK or N < kQuantMinN
/// stays float32 — the quantize/dequantize round trip would cost more than
/// the integer GEMM saves.
inline constexpr int kQuantMinK = 16;
inline constexpr int kQuantMinN = 4;

/// A Linear weight quantized per output channel into the kernels' NT
/// layout.
struct QuantizedWeights {
  std::vector<int8_t> packed;  // [out][in], row n = output channel n
  std::vector<float> scales;   // [out]
  int in = 0;
  int out = 0;
};

/// Quantizes W[in, out] per output channel. An all-zero channel gets
/// scale 0 (its products are all zero regardless).
QuantizedWeights QuantizeWeightsPerChannel(const Tensor& weight);

/// Symmetric activation quantization: q = clamp(nearbyint(x / scale),
/// -127, 127). scale <= 0 quantizes everything to 0 (degenerate layer).
void QuantizeActivations(const float* x, size_t n, float scale, int8_t* q);

/// Round trip for tests: dequantize q back to float.
inline float Dequantize(int8_t q, float scale) {
  return static_cast<float>(q) * scale;
}

/// Records the |activation| distribution of one layer input during the
/// float calibration pass: an obs::Histogram (geometric buckets, private
/// instance so repeated snapshot loads never pollute each other) plus the
/// exact running max.
class ActivationCalibrator {
 public:
  ActivationCalibrator();

  void Observe(const float* x, size_t n);

  /// The symmetric int8 scale: clip / 127, where clip is the histogram's
  /// `quantile` of |x| clamped to the exact observed max. Returns 0 when
  /// nothing (or only zeros) was observed.
  float ComputeScale(double quantile) const;

  float max_abs() const { return max_abs_; }
  int64_t observed() const { return hist_->Count(); }
  const obs::Histogram& histogram() const { return *hist_; }

  /// Geometric |activation| bounds, 1e-6 .. 1e6, 16 buckets per decade.
  static std::vector<double> AbsBounds();

 private:
  std::unique_ptr<obs::Histogram> hist_;
  float max_abs_ = 0.0f;
};

/// One planner decision: a named GEMM node either runs int8 or stays
/// float32, decided from its compile-time shape (the same per-node shape
/// knowledge the recorded-graph planner carries).
struct QuantNode {
  std::string name;
  int k = 0;  // reduction width (layer input features)
  int n = 0;  // output channels
  bool int8 = false;
  std::string reason;  // why the decision fell the way it did
};

/// The plan for a quantized module: the ISA every int8 node will dispatch
/// to (decided once, from cpuid + OMNIMATCH_ISA) and the per-node
/// precision decisions.
struct QuantPlan {
  IsaLevel isa = IsaLevel::kScalar;
  std::vector<QuantNode> nodes;

  int Int8Nodes() const;
  std::string ToString() const;
};

/// The planning rule, exposed for tests: int8 iff k >= kQuantMinK &&
/// n >= kQuantMinN.
bool ShouldQuantizeNode(int k, int n, std::string* reason);

/// A frozen affine layer y = x·Wq + b (optional fused ReLU) running on the
/// int8 kernels: quantize rows of x with the calibrated input scale, one
/// s8×s8→s32 GEMM, dequantize + bias (+ReLU) epilogue. Rows are sharded
/// over the thread pool (row-independent, so thread count never changes a
/// bit). Thread-safe after construction (all state is immutable).
class QuantizedLinear {
 public:
  /// `weight` [in, out] and `bias` [out] are copied/quantized; the float
  /// originals are not retained. `input_scale` comes from an
  /// ActivationCalibrator over this layer's input.
  QuantizedLinear(const Tensor& weight, const Tensor& bias, float input_scale,
                  bool relu);

  /// x: [rows, in()] row-major float. Writes [rows, out()] into y.
  void Forward(const float* x, int rows, float* y) const;

  /// Same, forcing a specific kernel flavor (per-ISA equivalence tests).
  void ForwardWithKernel(const float* x, int rows, float* y,
                         int8gemm::Int8GemmNTFn kernel) const;

  int in() const { return weights_.in; }
  int out() const { return weights_.out; }
  float input_scale() const { return input_scale_; }
  const QuantizedWeights& weights() const { return weights_; }

 private:
  QuantizedWeights weights_;
  std::vector<float> bias_;
  std::vector<float> dequant_;  // input_scale * weight scale, per channel
  float input_scale_ = 0.0f;
  bool relu_ = false;
};

}  // namespace quant
}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_QUANT_H_
