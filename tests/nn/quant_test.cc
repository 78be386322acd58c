#include "nn/quant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "nn/gemm.h"
#include "nn/gemm/int8_gemm.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {
namespace quant {
namespace {

std::vector<int8_t> RandomInt8(size_t n, Rng* rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(rng->UniformInt(-127, 127));
  }
  return v;
}

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// Ground truth for the int8 kernels: naive triple loop, exact int32.
void ReferenceGemmS8NT(const int8_t* a, const int8_t* b, int32_t* c, int m,
                       int k, int n) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(a[static_cast<size_t>(i) * k + p]) *
               static_cast<int32_t>(b[static_cast<size_t>(j) * k + p]);
      }
      c[static_cast<size_t>(i) * n + j] = acc;
    }
  }
}

/// Every compiled flavor, scalar first. Shapes below include K values that
/// exercise the 64/32/16-byte SIMD chunks AND their scalar tails.
std::vector<IsaLevel> CompiledLevels() {
  std::vector<IsaLevel> levels = {IsaLevel::kScalar};
  const IsaLevel best = int8gemm::BestCompiledIsa();
  for (IsaLevel l : {IsaLevel::kNeon, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (static_cast<int>(l) <= static_cast<int>(best)) levels.push_back(l);
  }
  return levels;
}

/// Levels the host can actually EXECUTE (compiled and cpuid-approved) —
/// the set the equivalence tests may safely run.
std::vector<IsaLevel> RunnableLevels() {
  std::vector<IsaLevel> levels;
  for (IsaLevel l : CompiledLevels()) {
    if (static_cast<int>(l) <= static_cast<int>(DetectedIsa())) {
      levels.push_back(l);
    }
  }
  return levels;
}

const int kDims[] = {1, 3, 17, 48, 65, 192};

TEST(Int8GemmTest, ScalarMatchesReferenceOnAllShapes) {
  Rng rng(21);
  for (int m : {1, 3, 7}) {
    for (int k : kDims) {
      for (int n : {1, 5, 48}) {
        std::vector<int8_t> a = RandomInt8(static_cast<size_t>(m) * k, &rng);
        std::vector<int8_t> b = RandomInt8(static_cast<size_t>(n) * k, &rng);
        std::vector<int32_t> want(static_cast<size_t>(m) * n, -1);
        std::vector<int32_t> got(static_cast<size_t>(m) * n, -1);
        ReferenceGemmS8NT(a.data(), b.data(), want.data(), m, k, n);
        int8gemm::isa_scalar::GemmS8NT(a.data(), b.data(), got.data(), m, k,
                                       n);
        EXPECT_EQ(want, got) << "shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

// The cross-ISA contract the whole quantized path rests on: every kernel
// flavor this host can run produces EXACTLY the scalar flavor's int32
// output, bit for bit, on shapes covering full vector chunks and tails.
TEST(Int8GemmTest, AllRunnableIsasBitIdenticalToScalar) {
  Rng rng(22);
  for (int m : {1, 4, 9}) {
    for (int k : kDims) {
      for (int n : {1, 5, 48}) {
        std::vector<int8_t> a = RandomInt8(static_cast<size_t>(m) * k, &rng);
        std::vector<int8_t> b = RandomInt8(static_cast<size_t>(n) * k, &rng);
        std::vector<int32_t> scalar_out(static_cast<size_t>(m) * n, 0);
        int8gemm::isa_scalar::GemmS8NT(a.data(), b.data(), scalar_out.data(),
                                       m, k, n);
        for (IsaLevel level : RunnableLevels()) {
          std::vector<int32_t> got(static_cast<size_t>(m) * n, -7);
          int8gemm::SelectKernel(level)(a.data(), b.data(), got.data(), m, k,
                                        n);
          EXPECT_EQ(scalar_out, got)
              << IsaName(level) << " diverges from scalar on shape " << m
              << "x" << k << "x" << n;
        }
      }
    }
  }
}

TEST(Int8GemmTest, SaturatedInputsDoNotOverflow) {
  // Worst case |a|=|b|=127 over the kernel's max K: 127*127*65536 fits
  // int32 with headroom; every flavor must agree there too.
  const int k = int8gemm::kMaxK;
  std::vector<int8_t> a(static_cast<size_t>(k), 127);
  std::vector<int8_t> b(static_cast<size_t>(k), -127);
  for (IsaLevel level : RunnableLevels()) {
    int32_t got = 0;
    int8gemm::SelectKernel(level)(a.data(), b.data(), &got, 1, k, 1);
    EXPECT_EQ(got, -127 * 127 * k) << IsaName(level);
  }
}

TEST(Int8GemmTest, SelectKernelClampsAboveBestCompiled) {
  // Asking for a flavor the build does not carry must fall back to the
  // widest compiled one, never return null or a wider-than-compiled path.
  EXPECT_EQ(int8gemm::SelectKernel(IsaLevel::kAvx512),
            int8gemm::SelectKernel(int8gemm::BestCompiledIsa()));
  EXPECT_NE(int8gemm::SelectKernel(IsaLevel::kScalar), nullptr);
}

TEST(CpuDispatchTest, ResolveIsaHonorsAndClampsOverride) {
  using internal::ResolveIsa;
  // No override: the detected level stands.
  EXPECT_EQ(ResolveIsa(nullptr, IsaLevel::kAvx512), IsaLevel::kAvx512);
  EXPECT_EQ(ResolveIsa("", IsaLevel::kAvx2), IsaLevel::kAvx2);
  // Forcing DOWN is allowed (portable CI lane).
  EXPECT_EQ(ResolveIsa("scalar", IsaLevel::kAvx512), IsaLevel::kScalar);
  EXPECT_EQ(ResolveIsa("avx2", IsaLevel::kAvx512), IsaLevel::kAvx2);
  // Forcing UP would SIGILL: clamps to detected.
  EXPECT_EQ(ResolveIsa("avx512", IsaLevel::kScalar), IsaLevel::kScalar);
  EXPECT_EQ(ResolveIsa("avx2", IsaLevel::kScalar), IsaLevel::kScalar);
  // Cross-family request degrades to scalar, not to an x86 level.
  EXPECT_EQ(ResolveIsa("neon", IsaLevel::kAvx512), IsaLevel::kScalar);
  // Garbage is ignored.
  EXPECT_EQ(ResolveIsa("pentium", IsaLevel::kAvx2), IsaLevel::kAvx2);
}

TEST(CpuDispatchTest, IsaNamesRoundTrip) {
  for (IsaLevel l : {IsaLevel::kScalar, IsaLevel::kNeon, IsaLevel::kAvx2,
                     IsaLevel::kAvx512}) {
    IsaLevel parsed;
    ASSERT_TRUE(ParseIsaName(IsaName(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  IsaLevel unused;
  EXPECT_FALSE(ParseIsaName("sse9", &unused));
}

TEST(QuantizeTest, ActivationRoundTripBoundedByHalfScale) {
  Rng rng(23);
  const float scale = 0.01f;
  std::vector<float> x(1000);
  for (float& v : x) v = rng.UniformFloat(-1.27f, 1.27f);
  std::vector<int8_t> q(x.size());
  QuantizeActivations(x.data(), x.size(), scale, q.data());
  for (size_t i = 0; i < x.size(); ++i) {
    // In-range values round to the nearest grid point: error <= scale/2.
    EXPECT_LE(std::fabs(Dequantize(q[i], scale) - x[i]), scale / 2 + 1e-7f)
        << "x=" << x[i];
  }
}

TEST(QuantizeTest, ActivationClampsOutOfRangeSymmetrically) {
  const float scale = 0.5f;
  const float x[] = {1000.0f, -1000.0f, 63.5f, -63.5f};
  int8_t q[4];
  QuantizeActivations(x, 4, scale, q);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);  // symmetric: never -128
  EXPECT_EQ(q[2], 127);
  EXPECT_EQ(q[3], -127);
}

TEST(QuantizeTest, ZeroScaleQuantizesToZero) {
  const float x[] = {1.0f, -2.0f, 3.0f};
  int8_t q[3] = {9, 9, 9};
  QuantizeActivations(x, 3, 0.0f, q);
  for (int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(QuantizeTest, WeightsPerChannelScalesAndPacking) {
  // W[in=2, out=3], column n is output channel n.
  Tensor w = Tensor::FromData({2, 3}, {1.0f, -2.0f, 0.0f,   //
                                       0.5f, 4.0f, 0.0f});
  QuantizedWeights q = QuantizeWeightsPerChannel(w);
  ASSERT_EQ(q.in, 2);
  ASSERT_EQ(q.out, 3);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f / 127.0f);
  EXPECT_FLOAT_EQ(q.scales[1], 4.0f / 127.0f);
  EXPECT_FLOAT_EQ(q.scales[2], 0.0f);  // all-zero channel
  // NT packing: row n = channel n = column n of W.
  EXPECT_EQ(q.packed[0 * 2 + 0], 127);   // 1.0 / (1/127)
  EXPECT_EQ(q.packed[0 * 2 + 1], 64);    // 0.5 * 127 = 63.5, round-to-even
  EXPECT_EQ(q.packed[1 * 2 + 0], -64);   // -2/4 * 127 = -63.5
  EXPECT_EQ(q.packed[1 * 2 + 1], 127);
  EXPECT_EQ(q.packed[2 * 2 + 0], 0);
  EXPECT_EQ(q.packed[2 * 2 + 1], 0);
}

TEST(QuantizeTest, WeightRoundTripBoundedByHalfScalePerChannel) {
  Rng rng(24);
  const int in = 48, out = 16;
  Tensor w = Tensor::FromData({in, out},
                              RandomVec(static_cast<size_t>(in) * out, &rng));
  QuantizedWeights q = QuantizeWeightsPerChannel(w);
  for (int n = 0; n < out; ++n) {
    for (int k = 0; k < in; ++k) {
      const float orig = w.data()[static_cast<size_t>(k) * out + n];
      const float rt = Dequantize(q.packed[static_cast<size_t>(n) * in + k],
                                  q.scales[static_cast<size_t>(n)]);
      EXPECT_LE(std::fabs(rt - orig),
                q.scales[static_cast<size_t>(n)] / 2 + 1e-7f);
    }
  }
}

TEST(CalibratorTest, FullQuantileUsesExactMax) {
  ActivationCalibrator calib;
  const float x[] = {0.1f, -0.4f, 0.25f};
  calib.Observe(x, 3);
  EXPECT_FLOAT_EQ(calib.max_abs(), 0.4f);
  // quantile 1.0 clamps the bucket bound to the exact observed max.
  EXPECT_FLOAT_EQ(calib.ComputeScale(1.0), 0.4f / 127.0f);
}

TEST(CalibratorTest, QuantileClipsOutliers) {
  ActivationCalibrator calib;
  std::vector<float> x(999, 0.5f);
  x.push_back(1e5f);  // one wild outlier
  calib.Observe(x.data(), x.size());
  const float scale = calib.ComputeScale(0.999);
  // The 99.9% clip lands near 0.5, nowhere near the outlier.
  EXPECT_LT(scale, 1.0f / 127.0f);
  EXPECT_GT(scale, 0.4f / 127.0f);
}

TEST(CalibratorTest, EmptyOrZeroObservationsGiveZeroScale) {
  ActivationCalibrator calib;
  EXPECT_FLOAT_EQ(calib.ComputeScale(1.0), 0.0f);
  const float zeros[] = {0.0f, 0.0f};
  calib.Observe(zeros, 2);
  EXPECT_FLOAT_EQ(calib.ComputeScale(1.0), 0.0f);
}

TEST(QuantPlanTest, ShouldQuantizeNodeAppliesShapeFloors) {
  std::string reason;
  EXPECT_TRUE(ShouldQuantizeNode(16, 4, &reason));
  EXPECT_FALSE(ShouldQuantizeNode(15, 4, &reason));
  EXPECT_NE(reason.find("min_k"), std::string::npos);
  EXPECT_FALSE(ShouldQuantizeNode(16, 3, &reason));
  EXPECT_NE(reason.find("min_n"), std::string::npos);
  EXPECT_TRUE(ShouldQuantizeNode(16, 4, nullptr));
}

/// Builds a random QuantizedLinear plus its float twin's expected output.
struct LinearFixture {
  Tensor weight;
  Tensor bias;
  std::vector<float> x;
  std::vector<float> expect;  // float32 FusedLinearForward output
  float input_scale = 0.0f;
  int rows, in, out;

  LinearFixture(int rows, int in, int out, bool relu, Rng* rng)
      : rows(rows), in(in), out(out) {
    weight = Tensor::FromData({in, out},
                              RandomVec(static_cast<size_t>(in) * out, rng));
    bias = Tensor::FromData({out}, RandomVec(static_cast<size_t>(out), rng));
    x = RandomVec(static_cast<size_t>(rows) * in, rng);
    ActivationCalibrator calib;
    calib.Observe(x.data(), x.size());
    input_scale = calib.ComputeScale(1.0);
    expect.assign(static_cast<size_t>(rows) * out, 0.0f);
    FusedLinearForward(x.data(), weight.data().data(), bias.data().data(),
                       expect.data(), rows, in, out, relu);
  }
};

TEST(QuantizedLinearTest, TracksFloatReferenceWithinQuantizationError) {
  Rng rng(25);
  LinearFixture fx(7, 48, 16, /*relu=*/false, &rng);
  QuantizedLinear layer(fx.weight, fx.bias, fx.input_scale, /*relu=*/false);
  std::vector<float> got(fx.expect.size(), 0.0f);
  layer.Forward(fx.x.data(), fx.rows, got.data());
  // Error budget: each of K products carries one half-step of activation
  // error and one of weight error; a loose linear bound suffices here (the
  // serving-level RMSE gate is the real accuracy test).
  float max_w = 0.0f;
  for (float w : fx.weight.data()) max_w = std::max(max_w, std::fabs(w));
  const float budget = static_cast<float>(fx.in) *
                       (fx.input_scale * max_w + 1.0f / 127.0f);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_LE(std::fabs(got[i] - fx.expect[i]), budget) << "i=" << i;
  }
}

TEST(QuantizedLinearTest, BitIdenticalAcrossRunnableIsas) {
  Rng rng(26);
  LinearFixture fx(9, 192, 96, /*relu=*/true, &rng);
  QuantizedLinear layer(fx.weight, fx.bias, fx.input_scale, /*relu=*/true);
  std::vector<float> scalar_out(static_cast<size_t>(fx.rows) * fx.out, 0.0f);
  layer.ForwardWithKernel(fx.x.data(), fx.rows, scalar_out.data(),
                          int8gemm::SelectKernel(IsaLevel::kScalar));
  for (IsaLevel level : RunnableLevels()) {
    std::vector<float> got(scalar_out.size(), -1.0f);
    layer.ForwardWithKernel(fx.x.data(), fx.rows, got.data(),
                            int8gemm::SelectKernel(level));
    EXPECT_EQ(scalar_out, got) << IsaName(level);
  }
}

TEST(QuantizedLinearTest, BitIdenticalAcrossThreadCounts) {
  Rng rng(27);
  LinearFixture fx(64, 192, 96, /*relu=*/true, &rng);
  QuantizedLinear layer(fx.weight, fx.bias, fx.input_scale, /*relu=*/true);
  const int before = GetNumThreads();
  SetNumThreads(1);
  std::vector<float> serial(static_cast<size_t>(fx.rows) * fx.out, 0.0f);
  layer.Forward(fx.x.data(), fx.rows, serial.data());
  SetNumThreads(4);
  std::vector<float> parallel(serial.size(), -1.0f);
  layer.Forward(fx.x.data(), fx.rows, parallel.data());
  SetNumThreads(before);
  EXPECT_EQ(serial, parallel);
}

TEST(QuantizedLinearTest, ReluEpilogueMatchesFloatSemantics) {
  // A layer whose pre-activation is exactly zero must produce +0.0f under
  // ReLU, matching FusedLinearForward's expression.
  Tensor w = Tensor::FromData({1, 1}, {1.0f});
  Tensor b = Tensor::FromData({1}, {0.0f});
  QuantizedLinear layer(w, b, 0.1f, /*relu=*/true);
  const float x = 0.0f;
  float y = -1.0f;
  layer.Forward(&x, 1, &y);
  EXPECT_EQ(y, 0.0f);
  EXPECT_FALSE(std::signbit(y));
}

}  // namespace
}  // namespace quant
}  // namespace nn
}  // namespace omnimatch
