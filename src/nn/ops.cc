#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "nn/gemm.h"
#include "nn/graph.h"
#include "nn/kernels.h"

namespace omnimatch {
namespace nn {

namespace {

using graph::OpKind;
using kernels::MakeOutput;
using kernels::RunEager;
using kernels::TryReplay;
using Impl = std::shared_ptr<TensorImpl>;

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  OM_CHECK(a.shape() == b.shape())
      << op << ": " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

/// Concat replay keeps the input-pointer array on the stack so the replay
/// path performs no heap allocation (graph::Record refuses wider concats).
bool ReplayConcat(OpKind kind, const std::vector<Tensor>& parts,
                  Tensor* out) {
  if (graph::ActiveReplay() == nullptr) return false;
  OM_CHECK_LE(parts.size(), static_cast<size_t>(graph::kMaxReplayInputs))
      << "concat too wide to replay";
  const Tensor* ptrs[graph::kMaxReplayInputs];
  for (size_t i = 0; i < parts.size(); ++i) ptrs[i] = &parts[i];
  return TryReplay(kind, ptrs, static_cast<int>(parts.size()), {}, out);
}

Tensor RunConcat(OpKind kind, const std::vector<Tensor>& parts,
                 std::vector<int> out_shape) {
  std::vector<const Tensor*> ptrs;
  ptrs.reserve(parts.size());
  for (const Tensor& p : parts) ptrs.push_back(&p);
  return RunEager(kind, ptrs.data(), static_cast<int>(ptrs.size()),
                  std::move(out_shape), {});
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  if (Tensor r; TryReplay(OpKind::kAdd, {&a, &b}, {}, &r)) return r;
  CheckSameShape(a, b, "Add");
  return RunEager(OpKind::kAdd, {&a, &b}, a.shape(), {});
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (Tensor r; TryReplay(OpKind::kMul, {&a, &b}, {}, &r)) return r;
  CheckSameShape(a, b, "Mul");
  return RunEager(OpKind::kMul, {&a, &b}, a.shape(), {});
}

Tensor Scale(const Tensor& a, float s) {
  graph::OpArgs args;
  args.f0 = s;
  if (Tensor r; TryReplay(OpKind::kScale, {&a}, args, &r)) return r;
  return RunEager(OpKind::kScale, {&a}, a.shape(), args);
}

Tensor AddRowBroadcast(const Tensor& mat, const Tensor& row) {
  if (Tensor r; TryReplay(OpKind::kAddRowBroadcast, {&mat, &row}, {}, &r)) {
    return r;
  }
  OM_CHECK_EQ(mat.ndim(), 2);
  OM_CHECK_EQ(static_cast<int>(row.numel()), mat.dim(1))
      << "bias length must equal column count";
  return RunEager(OpKind::kAddRowBroadcast, {&mat, &row}, mat.shape(), {});
}

Tensor Relu(const Tensor& x) {
  if (Tensor r; TryReplay(OpKind::kRelu, {&x}, {}, &r)) return r;
  return RunEager(OpKind::kRelu, {&x}, x.shape(), {});
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  graph::UnsupportedOp("LeakyRelu");
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelElems(ov.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ov[i] = xv[i] > 0.0f ? xv[i] : slope * xv[i];
    }
  });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, slope]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelElems(o->grad.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          xi->grad[i] += o->grad[i] * (xi->data[i] > 0.0f ? 1.0f : slope);
        }
      });
    };
  }
  return out;
}

Tensor Reshape(const Tensor& x, std::vector<int> new_shape) {
  graph::OpArgs args;
  args.shape = &new_shape;
  if (Tensor r; TryReplay(OpKind::kReshape, {&x}, args, &r)) return r;
  OM_CHECK_EQ(ShapeNumel(new_shape), x.numel())
      << ShapeToString(x.shape()) << " -> " << ShapeToString(new_shape);
  return RunEager(OpKind::kReshape, {&x}, new_shape, args);
}

Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng) {
  OM_CHECK(p >= 0.0f && p < 1.0f) << "dropout p=" << p;
  if (!training || p == 0.0f) return x;
  OM_CHECK(rng != nullptr);
  // Hook after the early return: an identity Dropout issues no op call, in
  // recording and replay alike.
  graph::OpArgs args;
  args.f0 = p;
  args.rng = rng;
  if (Tensor r; TryReplay(OpKind::kDropout, {&x}, args, &r)) return r;
  return RunEager(OpKind::kDropout, {&x}, x.shape(), args);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (Tensor r; TryReplay(OpKind::kMatMul, {&a, &b}, {}, &r)) return r;
  OM_CHECK_EQ(a.ndim(), 2);
  OM_CHECK_EQ(b.ndim(), 2);
  OM_CHECK_EQ(a.dim(1), b.dim(0)) << "MatMul inner dims";
  return RunEager(OpKind::kMatMul, {&a, &b}, {a.dim(0), b.dim(1)}, {});
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  graph::UnsupportedOp("MatMulNT");
  OM_CHECK_EQ(a.ndim(), 2);
  OM_CHECK_EQ(b.ndim(), 2);
  int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  OM_CHECK_EQ(k, b.dim(1)) << "MatMulNT inner dims";
  Tensor out = MakeOutput({m, n}, {a.impl(), b.impl()});
  GemmNT(a.data().data(), b.data().data(), out.data().data(), m, k, n);
  if (out.requires_grad()) {
    Impl ai = a.impl(), bi = b.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [ai, bi, o, m, k, n]() {
      o->EnsureGrad();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA[M,K] += dOut[M,N] * B[N,K]
        GemmNN(o->grad.data(), bi->data.data(), ai->grad.data(), m, n, k);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB[N,K] += dOut[M,N]^T * A[M,K]
        GemmTN(o->grad.data(), ai->data.data(), bi->grad.data(), n, m, k);
      }
    };
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  OM_CHECK(!parts.empty());
  if (Tensor r; ReplayConcat(OpKind::kConcatCols, parts, &r)) return r;
  int rows = parts[0].dim(0);
  int total_cols = 0;
  for (const Tensor& p : parts) {
    OM_CHECK_EQ(p.ndim(), 2);
    OM_CHECK_EQ(p.dim(0), rows) << "ConcatCols row mismatch";
    total_cols += p.dim(1);
  }
  return RunConcat(OpKind::kConcatCols, parts, {rows, total_cols});
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  OM_CHECK(!parts.empty());
  if (Tensor r; ReplayConcat(OpKind::kConcatRows, parts, &r)) return r;
  int cols = parts[0].dim(1);
  int total_rows = 0;
  for (const Tensor& p : parts) {
    OM_CHECK_EQ(p.ndim(), 2);
    OM_CHECK_EQ(p.dim(1), cols) << "ConcatRows column mismatch";
    total_rows += p.dim(0);
  }
  return RunConcat(OpKind::kConcatRows, parts, {total_rows, cols});
}

Tensor Gather(const Tensor& table, const std::vector<int>& ids) {
  graph::OpArgs args;
  args.ints = &ids;
  if (Tensor r; TryReplay(OpKind::kGather, {&table}, args, &r)) return r;
  OM_CHECK_EQ(table.ndim(), 2);
  OM_CHECK(!ids.empty());
  return RunEager(OpKind::kGather, {&table},
                  {static_cast<int>(ids.size()), table.dim(1)}, args);
}

Tensor MeanRows(const Tensor& x) {
  graph::UnsupportedOp("MeanRows");
  OM_CHECK_EQ(x.ndim(), 2);
  int rows = x.dim(0);
  int cols = x.dim(1);
  Tensor out = MakeOutput({1, cols}, {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      ov[c] += xv[static_cast<size_t>(r) * cols + c];
    }
  }
  float inv = 1.0f / static_cast<float>(rows);
  for (int c = 0; c < cols; ++c) ov[c] *= inv;
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, rows, cols, inv]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          xi->grad[static_cast<size_t>(r) * cols + c] += inv * o->grad[c];
        }
      }
    };
  }
  return out;
}

Tensor RowSum(const Tensor& x) {
  graph::UnsupportedOp("RowSum");
  OM_CHECK_EQ(x.ndim(), 2);
  int rows = x.dim(0);
  int cols = x.dim(1);
  Tensor out = MakeOutput({rows, 1}, {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  for (int r = 0; r < rows; ++r) {
    float acc = 0.0f;
    const float* row = xv.data() + static_cast<size_t>(r) * cols;
    for (int c = 0; c < cols; ++c) acc += row[c];
    ov[static_cast<size_t>(r)] = acc;
  }
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, rows, cols]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      for (int r = 0; r < rows; ++r) {
        float g = o->grad[static_cast<size_t>(r)];
        float* row = xi->grad.data() + static_cast<size_t>(r) * cols;
        for (int c = 0; c < cols; ++c) row[c] += g;
      }
    };
  }
  return out;
}

Tensor MeanAxis1(const Tensor& x) {
  if (Tensor r; TryReplay(OpKind::kMeanAxis1, {&x}, {}, &r)) return r;
  OM_CHECK_EQ(x.ndim(), 3);
  return RunEager(OpKind::kMeanAxis1, {&x}, {x.dim(0), x.dim(2)}, {});
}

Tensor Softmax(const Tensor& x) {
  graph::UnsupportedOp("Softmax");
  OM_CHECK_EQ(x.ndim(), 2);
  int rows = x.dim(0);
  int cols = x.dim(1);
  Tensor out = MakeOutput(x.shape(), {x.impl()});
  const auto& xv = x.data();
  auto& ov = out.data();
  ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const float* xr = xv.data() + static_cast<size_t>(r) * cols;
                  float* orow = ov.data() + static_cast<size_t>(r) * cols;
                  float max_v = xr[0];
                  for (int c = 1; c < cols; ++c) {
                    max_v = std::max(max_v, xr[c]);
                  }
                  float sum = 0.0f;
                  for (int c = 0; c < cols; ++c) {
                    orow[c] = std::exp(xr[c] - max_v);
                    sum += orow[c];
                  }
                  float inv = 1.0f / sum;
                  for (int c = 0; c < cols; ++c) orow[c] *= inv;
                }
              });
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o, rows, cols]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
                  [&](int64_t r0, int64_t r1) {
                    for (int64_t r = r0; r < r1; ++r) {
                      const float* y =
                          o->data.data() + static_cast<size_t>(r) * cols;
                      const float* dy =
                          o->grad.data() + static_cast<size_t>(r) * cols;
                      float* dx =
                          xi->grad.data() + static_cast<size_t>(r) * cols;
                      float dot = 0.0f;
                      for (int c = 0; c < cols; ++c) dot += y[c] * dy[c];
                      for (int c = 0; c < cols; ++c) {
                        dx[c] += y[c] * (dy[c] - dot);
                      }
                    }
                  });
    };
  }
  return out;
}

Tensor SumAll(const Tensor& x) {
  graph::UnsupportedOp("SumAll");
  Tensor out = MakeOutput({1}, {x.impl()});
  const auto& xv = x.data();
  // Serial double accumulation: the canonical fixed-order reduction.
  double acc = 0.0;
  for (float v : xv) acc += v;
  out.data()[0] = static_cast<float>(acc);
  if (out.requires_grad()) {
    Impl xi = x.impl();
    TensorImpl* o = out.impl().get();
    out.impl()->backward_fn = [xi, o]() {
      o->EnsureGrad();
      xi->EnsureGrad();
      float g = o->grad[0];
      for (float& v : xi->grad) v += g;
    };
  }
  return out;
}

Tensor MeanAll(const Tensor& x) {
  float inv = 1.0f / static_cast<float>(x.numel());
  return Scale(SumAll(x), inv);
}

Tensor GradReverse(const Tensor& x, float lambda) {
  graph::OpArgs args;
  args.f0 = lambda;
  if (Tensor r; TryReplay(OpKind::kGradReverse, {&x}, args, &r)) return r;
  return RunEager(OpKind::kGradReverse, {&x}, x.shape(), args);
}

Tensor TextConvMaxPool(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, int kernel_size) {
  graph::OpArgs args;
  args.i0 = kernel_size;
  if (Tensor r; TryReplay(OpKind::kTextConvMaxPool, {&input, &weight, &bias},
                          args, &r)) {
    return r;
  }
  OM_CHECK_EQ(input.ndim(), 3);
  OM_CHECK_EQ(weight.ndim(), 2);
  int channels = weight.dim(0);
  OM_CHECK_EQ(weight.dim(1), kernel_size * input.dim(2))
      << "filter width must be kernel_size * embed";
  OM_CHECK_EQ(static_cast<int>(bias.numel()), channels);
  OM_CHECK_GE(input.dim(1), kernel_size) << "document shorter than kernel";
  return RunEager(OpKind::kTextConvMaxPool, {&input, &weight, &bias},
                  {input.dim(0), channels}, args);
}

}  // namespace nn
}  // namespace omnimatch
