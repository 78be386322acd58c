#ifndef OMNIMATCH_NN_KERNELS_H_
#define OMNIMATCH_NN_KERNELS_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/graph.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {
namespace kernels {

/// The one forward and one backward kernel of every graph-lowered op, and
/// the table row holding every other per-op fact (see DESIGN.md
/// "Recorded-graph execution"). A kernel is a raw-pointer function over a
/// Call. Eager ops (ops.cc, losses.cc) bind the Call to tensor storage
/// through RunEager; graph replay (graph.cc) binds it to arena buffers.
/// Both paths run the same code, so a replayed step is bit-identical to the
/// eager step it was recorded from by construction.

/// One operand as a kernel sees it. `grad` is null when no gradient flows
/// into the operand. In a replayed backward `data` is null unless the op's
/// row lists the operand in `bwd_reads` (its arena bytes may be reused).
struct Operand {
  float* data = nullptr;
  float* grad = nullptr;
  const std::vector<int>* shape = nullptr;
  int64_t numel = 0;

  int dim(int i) const { return (*shape)[static_cast<size_t>(i)]; }
};

/// Scratch one forward/backward kernel pair shares: the dropout mask,
/// softmax probabilities, SupCon intermediates and the conv argmax. Sized
/// by the op's row from the call's shapes. An eager op holds one per call
/// in its backward closure; a compiled plan holds one per node, reused
/// every step.
struct Workspace {
  std::vector<float> f[8];
  std::vector<double> d;
  std::vector<int> i[2];
};

/// Everything one kernel invocation reads or writes.
struct Call {
  Operand out;
  std::vector<Operand> in;
  float f0 = 0.0f;  // Scale s / Dropout p / GradReverse lambda / SupCon tau
  int i0 = 0;       // TextConvMaxPool kernel_size
  Rng* rng = nullptr;                      // Dropout stream
  const std::vector<int>* ints = nullptr;  // Gather ids / loss labels
  Workspace* ws = nullptr;
  // TextConvMaxPool per-document score slabs; null makes the kernel use one
  // slab per pool chunk instead.
  float* scratch = nullptr;
};

using Kernel = void (*)(const Call&);

/// `OpInfo::bwd_reads` bits: the data buffers a backward kernel reads
/// (bit j: input j).
enum : uint8_t {
  kReadsIn0 = 1,
  kReadsIn1 = 2,
  kReadsOut = 4,
};

/// Every fact about one OpKind. Function fields see only the call's shapes
/// and attributes; null means "none" (for `work`: 4 ops per output element).
struct OpInfo {
  const char* name = "";
  Kernel forward = nullptr;
  Kernel backward = nullptr;
  uint8_t bwd_reads = 0;
  void (*size_workspace)(const Call&, Workspace*) = nullptr;
  // Forward-only scratch, in floats (Call::scratch).
  int64_t (*scratch_floats)(const Call&) = nullptr;
  // Estimated scalar ops of the forward kernel (backward is the same order).
  int64_t (*work)(const Call&) = nullptr;
};

const OpInfo& Info(graph::OpKind kind);

/// --- eager execution ----------------------------------------------------

/// Creates the output node of an eager op: shape, zero-filled data,
/// requires_grad propagation, and (when grad is needed) the parent edges.
Tensor MakeOutput(std::vector<int> shape,
                  std::vector<std::shared_ptr<TensorImpl>> parents);

/// Graph-replay entry hook: while the calling thread replays a compiled
/// plan, dispatches this op call to the plan and returns true with the
/// node's output tensor. Ops call it before their own input checks.
bool TryReplay(graph::OpKind kind, const Tensor* const* inputs,
               int num_inputs, const graph::OpArgs& args, Tensor* out);
inline bool TryReplay(graph::OpKind kind,
                      std::initializer_list<const Tensor*> inputs,
                      const graph::OpArgs& args, Tensor* out) {
  return TryReplay(kind, inputs.begin(), static_cast<int>(inputs.size()),
                   args, out);
}

/// Runs one lowered op eagerly: allocates the output node, runs the op's
/// forward kernel on tensor storage and, when a gradient is needed,
/// attaches a closure that runs its backward kernel on the same storage.
/// An active graph recording observes the call.
Tensor RunEager(graph::OpKind kind, const Tensor* const* inputs,
                int num_inputs, std::vector<int> out_shape,
                const graph::OpArgs& args);
inline Tensor RunEager(graph::OpKind kind,
                       std::initializer_list<const Tensor*> inputs,
                       std::vector<int> out_shape,
                       const graph::OpArgs& args) {
  return RunEager(kind, inputs.begin(), static_cast<int>(inputs.size()),
                  std::move(out_shape), args);
}

}  // namespace kernels
}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_KERNELS_H_
