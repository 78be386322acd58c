#include "serve/quant_head.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "nn/gemm.h"

namespace omnimatch {
namespace serve {

using nn::quant::ActivationCalibrator;
using nn::quant::QuantNode;
using nn::quant::QuantizedLinear;
using nn::quant::ShouldQuantizeNode;

std::unique_ptr<QuantizedRatingHead> QuantizedRatingHead::Build(
    const core::OmniMatchModel& model, const CalibrationSample& calibration) {
  if (calibration.rows <= 0) return nullptr;

  const int f = model.config().feature_dim;
  const nn::Linear* inter = model.interaction_proj();
  const nn::Mlp& mlp = model.rating_classifier();
  const size_t n_layers = mlp.num_layers();
  OM_CHECK(n_layers > 0);

  auto head = std::unique_ptr<QuantizedRatingHead>(new QuantizedRatingHead());
  head->use_interaction_ = inter != nullptr;
  head->user_width_ = 2 * f;
  head->item_width_ = f;
  head->num_classes_ =
      mlp.layer(n_layers - 1).out_features();

  const int rows = calibration.rows;
  const int feat_width =
      head->user_width_ + head->item_width_ + (inter ? head->item_width_ : 0);
  OM_CHECK_EQ(mlp.layer(0).in_features(), feat_width);
  OM_CHECK_EQ(calibration.user_rows.size(),
              static_cast<size_t>(rows) * head->user_width_);
  OM_CHECK_EQ(calibration.item_rows.size(),
              static_cast<size_t>(rows) * head->item_width_);

  // --- Float calibration pass -------------------------------------------
  // Replays the eval-mode RatingLogits math (model.cc) with the exact float
  // kernels while an ActivationCalibrator watches every GEMM node's input.
  // Eval mode means dropout is identity, so this IS the serving float path.
  ActivationCalibrator inter_calib;
  std::vector<ActivationCalibrator> mlp_calibs(n_layers);

  const float* user = calibration.user_rows.data();
  const float* item = calibration.item_rows.data();
  std::vector<float> inter_out;
  if (inter) {
    inter_calib.Observe(user, calibration.user_rows.size());
    inter_out.assign(static_cast<size_t>(rows) * f, 0.0f);
    nn::FusedLinearForward(user, inter->weight().data().data(),
                           inter->bias().data().data(), inter_out.data(), rows,
                           head->user_width_, f, /*relu=*/false);
  }

  std::vector<float> cur(static_cast<size_t>(rows) * feat_width);
  for (int r = 0; r < rows; ++r) {
    float* dst = cur.data() + static_cast<size_t>(r) * feat_width;
    const float* u = user + static_cast<size_t>(r) * head->user_width_;
    const float* it = item + static_cast<size_t>(r) * f;
    std::memcpy(dst, u, sizeof(float) * head->user_width_);
    std::memcpy(dst + head->user_width_, it, sizeof(float) * f);
    if (inter) {
      const float* io = inter_out.data() + static_cast<size_t>(r) * f;
      float* mul = dst + head->user_width_ + f;
      for (int c = 0; c < f; ++c) mul[c] = io[c] * it[c];
    }
  }

  std::vector<float> next;
  for (size_t i = 0; i < n_layers; ++i) {
    const nn::Linear& layer = mlp.layer(i);
    OM_CHECK_EQ(layer.in_features(),
                static_cast<int>(cur.size()) / rows);
    mlp_calibs[i].Observe(cur.data(), cur.size());
    next.assign(static_cast<size_t>(rows) * layer.out_features(), 0.0f);
    nn::FusedLinearForward(cur.data(), layer.weight().data().data(),
                           layer.bias().data().data(), next.data(), rows,
                           layer.in_features(), layer.out_features(),
                           /*relu=*/i + 1 < n_layers);
    cur.swap(next);
  }

  // --- Plan + quantize ---------------------------------------------------
  head->plan_.isa = std::min(ActiveIsa(), nn::int8gemm::BestCompiledIsa());
  if (inter) {
    BuildNode(*inter, "interaction_proj", /*relu=*/false, inter_calib,
              &head->interaction_, &head->plan_.nodes);
  }
  head->mlp_.resize(n_layers);
  for (size_t i = 0; i < n_layers; ++i) {
    BuildNode(mlp.layer(i), "rating_mlp." + std::to_string(i),
              /*relu=*/i + 1 < n_layers, mlp_calibs[i],
              &head->mlp_[i], &head->plan_.nodes);
  }
  return head;
}

void QuantizedRatingHead::BuildNode(
    const nn::Linear& linear, const std::string& name, bool relu,
    const ActivationCalibrator& calibrator, Node* node,
    std::vector<QuantNode>* plan_nodes) {
  QuantNode record;
  record.name = name;
  record.k = linear.in_features();
  record.n = linear.out_features();
  record.int8 = ShouldQuantizeNode(record.k, record.n, &record.reason);

  node->in = record.k;
  node->out = record.n;
  node->relu = relu;
  if (record.int8) {
    node->int8 = std::make_unique<QuantizedLinear>(
        linear.weight(), linear.bias(),
        calibrator.ComputeScale(nn::quant::kCalibrationQuantile), relu);
  } else {
    node->weight = linear.weight().data();
    node->bias = linear.bias().data();
  }
  plan_nodes->push_back(std::move(record));
}

void QuantizedRatingHead::Node::Forward(const float* x, int rows,
                                        float* y) const {
  if (int8) {
    int8->Forward(x, rows, y);
    return;
  }
  nn::FusedLinearForward(x, weight.data(), bias.data(), y, rows, in, out,
                         relu);
}

void QuantizedRatingHead::RatingLogits(const float* user, const float* item,
                                       int rows,
                                       std::vector<float>* logits) const {
  OM_CHECK(rows >= 0);
  logits->resize(static_cast<size_t>(rows) * num_classes_);
  if (rows == 0) return;

  // Thread-local scratch: these are ~hundreds of KB per call at serving
  // chunk sizes, and a fresh allocation that large goes straight to mmap —
  // page faults on every request batch. Reusing the buffers keeps the head
  // allocation-free in steady state (executors are pool threads). Every
  // element is overwritten before it is read, so stale capacity is safe.
  static thread_local std::vector<float> inter_out;
  static thread_local std::vector<float> cur;
  static thread_local std::vector<float> next;

  const int feat_width = mlp_.front().in;
  if (use_interaction_) {
    inter_out.resize(static_cast<size_t>(rows) * item_width_);
    interaction_.Forward(user, rows, inter_out.data());
  }

  cur.resize(static_cast<size_t>(rows) * feat_width);
  for (int r = 0; r < rows; ++r) {
    float* dst = cur.data() + static_cast<size_t>(r) * feat_width;
    const float* u = user + static_cast<size_t>(r) * user_width_;
    const float* it = item + static_cast<size_t>(r) * item_width_;
    std::memcpy(dst, u, sizeof(float) * user_width_);
    std::memcpy(dst + user_width_, it, sizeof(float) * item_width_);
    if (use_interaction_) {
      const float* io = inter_out.data() + static_cast<size_t>(r) * item_width_;
      float* mul = dst + user_width_ + item_width_;
      for (int c = 0; c < item_width_; ++c) mul[c] = io[c] * it[c];
    }
  }

  for (size_t i = 0; i < mlp_.size(); ++i) {
    const Node& node = mlp_[i];
    if (i + 1 == mlp_.size()) {
      node.Forward(cur.data(), rows, logits->data());
    } else {
      next.resize(static_cast<size_t>(rows) * node.out);
      node.Forward(cur.data(), rows, next.data());
      cur.swap(next);
    }
  }
}

}  // namespace serve
}  // namespace omnimatch
