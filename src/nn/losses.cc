#include "nn/losses.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "nn/graph.h"
#include "nn/kernels.h"

namespace omnimatch {
namespace nn {

using graph::OpKind;

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels) {
  graph::OpArgs args;
  args.ints = &labels;
  if (Tensor r;
      kernels::TryReplay(OpKind::kSoftmaxCrossEntropy, {&logits}, args, &r)) {
    return r;
  }
  OM_CHECK_EQ(logits.ndim(), 2);
  OM_CHECK_GT(logits.dim(0), 0);  // mean over an empty batch is NaN
  OM_CHECK_EQ(static_cast<size_t>(logits.dim(0)), labels.size());
  return kernels::RunEager(OpKind::kSoftmaxCrossEntropy, {&logits}, {1},
                           args);
}

Tensor MseLoss(const Tensor& pred, const std::vector<float>& target) {
  graph::UnsupportedOp("MseLoss");
  OM_CHECK_EQ(static_cast<size_t>(pred.numel()), target.size());
  int n = static_cast<int>(target.size());
  OM_CHECK_GT(n, 0);  // mean over an empty batch is NaN

  Tensor out = kernels::MakeOutput({1}, {pred.impl()});
  const float* p = pred.data().data();
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    double d = static_cast<double>(p[i]) - target[i];
    total += d * d;
  }
  out.data()[0] = static_cast<float>(total / n);

  if (out.requires_grad()) {
    auto pi = pred.impl();
    TensorImpl* o = out.impl().get();
    auto target_copy = std::make_shared<std::vector<float>>(target);
    o->backward_fn = [pi, o, target_copy, n]() {
      o->EnsureGrad();
      pi->EnsureGrad();
      float g = o->grad[0] * 2.0f / static_cast<float>(n);
      for (int i = 0; i < n; ++i) {
        pi->grad[i] += g * (pi->data[i] - (*target_copy)[i]);
      }
    };
  }
  return out;
}

Tensor SupConLoss(const Tensor& features, const std::vector<int>& labels,
                  float temperature) {
  graph::OpArgs args;
  args.f0 = temperature;
  args.ints = &labels;
  if (Tensor r;
      kernels::TryReplay(OpKind::kSupConLoss, {&features}, args, &r)) {
    return r;
  }
  OM_CHECK_EQ(features.ndim(), 2);
  OM_CHECK_EQ(static_cast<size_t>(features.dim(0)), labels.size());
  OM_CHECK_GT(temperature, 0.0f);

  // No anchor has a positive when no label repeats (in particular with a
  // single feature): the loss is a constant 0 with no gradient. Skipping
  // the kernel also skips its softmax over A(i), whose log-sum-exp is
  // log(0) = -inf for an empty A(i) — a non-finite intermediate health
  // scans would flag. A replay of this signature could later see
  // positives, so such a step is not representable as a recorded node.
  std::vector<int> sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end()) {
    graph::AbortRecording(graph::ActiveRecording(),
                          "SupConLoss batch with no positive pairs");
    return Tensor::Scalar(0.0f);
  }
  return kernels::RunEager(OpKind::kSupConLoss, {&features}, {1}, args);
}

}  // namespace nn
}  // namespace omnimatch
