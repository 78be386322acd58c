#ifndef OMNIMATCH_SERVE_QUANT_HEAD_H_
#define OMNIMATCH_SERVE_QUANT_HEAD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "nn/quant.h"

namespace omnimatch {
namespace serve {

/// Int8 mirror of the per-request rating head — the two-GEMM path Scorer
/// drives for every (user, item) pair (OmniMatchModel::RatingLogits in
/// eval mode): optional interaction projection, the ⊙ feature, and the
/// three-layer rating classifier MLP.
///
/// Built once at snapshot load (--quant): a float calibration pass over
/// sampled frozen representations records per-layer activation histograms
/// (nn::quant::ActivationCalibrator), scales are fixed from them, weights
/// are quantized per output channel, and each GEMM node gets a planner
/// decision (int8 vs float32, from its compile-time shape) plus the ISA
/// picked once by cpuid dispatch. Nodes planned float32 run through the
/// exact float kernels (FusedLinearForward), so a layer the planner
/// rejects costs nothing in accuracy.
///
/// Thread-safety: immutable after Build; any number of executor threads
/// may call RatingLogits concurrently. Results are bit-identical across
/// thread counts and dispatched ISAs (see nn/quant.h), though NOT to the
/// float32 path — that is the quantization error the RMSE gate bounds.
class QuantizedRatingHead {
 public:
  /// Representative eval-path inputs for calibration: flattened row-major
  /// user representation rows [rows, user_width] (invariant ⊕ specific)
  /// and item representation rows [rows, feature_dim], pre-paired
  /// positionally.
  struct CalibrationSample {
    std::vector<float> user_rows;
    std::vector<float> item_rows;
    int rows = 0;
  };

  /// Quantizes the model's rating path. `model` is only read (frozen
  /// weights + a float calibration forward). Returns null when the sample
  /// is empty — there is nothing to calibrate against, so serving stays
  /// float32.
  static std::unique_ptr<QuantizedRatingHead> Build(
      const core::OmniMatchModel& model, const CalibrationSample& calibration);

  /// Logits [rows, num_classes] for user rows [rows, user_width] and item
  /// rows [rows, feature_dim], row-aligned. Appends nothing; `logits` is
  /// resized and overwritten.
  void RatingLogits(const float* user, const float* item, int rows,
                    std::vector<float>* logits) const;

  int user_width() const { return user_width_; }
  int item_width() const { return item_width_; }
  int num_classes() const { return num_classes_; }
  const nn::quant::QuantPlan& plan() const { return plan_; }

 private:
  QuantizedRatingHead() = default;

  /// One GEMM node: the int8 kernel when planned, the float kernel (with
  /// retained float weights) otherwise.
  struct Node {
    std::unique_ptr<nn::quant::QuantizedLinear> int8;
    // Float fallback (planner said no): weight kept [in, out] + bias.
    std::vector<float> weight;
    std::vector<float> bias;
    int in = 0;
    int out = 0;
    bool relu = false;

    void Forward(const float* x, int rows, float* y) const;
  };

  /// Fills `node` from a frozen Linear — quantized when the planner says
  /// so, a retained-float copy otherwise — and appends its plan record.
  static void BuildNode(const nn::Linear& linear, const std::string& name,
                        bool relu,
                        const nn::quant::ActivationCalibrator& calibrator,
                        Node* node, std::vector<nn::quant::QuantNode>* nodes);

  bool use_interaction_ = false;
  int user_width_ = 0;
  int item_width_ = 0;
  int num_classes_ = 0;
  Node interaction_;
  std::vector<Node> mlp_;
  nn::quant::QuantPlan plan_;
};

}  // namespace serve
}  // namespace omnimatch

#endif  // OMNIMATCH_SERVE_QUANT_HEAD_H_
