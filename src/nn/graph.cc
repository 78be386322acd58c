#include "nn/graph.h"

#include <algorithm>
#include <climits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/threadpool.h"
#include "nn/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace omnimatch {
namespace nn {
namespace graph {

namespace {

obs::Counter* RecordStepsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("graph.record_steps");
  return counter;
}

obs::Counter* ReplayStepsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("graph.replay_steps");
  return counter;
}

obs::Gauge* ArenaBytesGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("graph.arena_bytes");
  return gauge;
}

int64_t AlignUp(int64_t v) {
  return (v + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
}

/// Recording longer than this means a StepScope leaked across steps.
constexpr size_t kMaxRecordedCalls = size_t{1} << 20;

}  // namespace

const char* OpKindName(OpKind kind) { return kernels::Info(kind).name; }

std::vector<int64_t> FirstFitArena(const std::vector<ArenaRequest>& requests,
                                   int64_t* total_bytes) {
  std::vector<int64_t> offsets(requests.size(), 0);
  int64_t high = 0;
  std::vector<std::pair<int64_t, int64_t>> busy;  // [offset, offset + bytes)
  for (size_t i = 0; i < requests.size(); ++i) {
    const ArenaRequest& r = requests[i];
    OM_CHECK_GE(r.end, r.start);
    OM_CHECK_GT(r.bytes, 0);
    busy.clear();
    for (size_t j = 0; j < i; ++j) {
      const ArenaRequest& q = requests[j];
      // Closed intervals: live at the same step means bytes must not alias.
      if (q.start <= r.end && r.start <= q.end) {
        busy.emplace_back(offsets[j], offsets[j] + q.bytes);
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t cand = 0;
    for (const auto& [begin, end] : busy) {
      if (cand + r.bytes <= begin) break;  // fits in the gap before `begin`
      cand = std::max(cand, AlignUp(end));
    }
    offsets[i] = cand;
    high = std::max(high, cand + r.bytes);
  }
  *total_bytes = AlignUp(high);
  return offsets;
}

/// One IR node: either an interned leaf (parameter / input tensor) or one
/// recorded op call. After the pass pipeline a node may additionally be a
/// fusion tail (kind kGatherReshape, executing its chain head's kernel), a
/// fused-away member (kind kNop), or dead (live == false).
struct Node {
  OpKind call_kind = OpKind::kLeaf;  // matched against the op-call stream
  OpKind kind = OpKind::kLeaf;       // what actually executes
  bool is_op = false;                // recorded op (false: interned leaf)
  bool live = true;                  // false after dead-node elimination
  bool req_grad = false;
  // Pre-scheduled chunking decision: true when the node's recorded work is
  // too small to amortize a pool dispatch, so its kernels (forward and
  // backward) run inside a SerialRegion. Bit-identical either way by the
  // pool's determinism contract; this only removes scheduling overhead.
  bool serial = false;

  std::vector<int> inputs;   // node ids as the call stream presented them
  std::vector<char> in_req;  // input requires_grad at record time
  // Fusion tail: the chain head whose kernel, inputs and attributes it
  // executes, writing the tail's own buffers.
  int head = -1;

  std::vector<int> shape;
  int64_t numel = 0;
  int fpos = -1;  // index in Plan::call_order
  std::shared_ptr<TensorImpl> impl;

  // Attributes. f0 and ints are dynamic (copied from the live call each
  // step); i0, rng and shape_attr are static and verified on replay.
  float f0 = 0.0f;  // Scale s / Dropout p / GradReverse lambda / SupCon tau
  int i0 = 0;       // TextConvMaxPool kernel_size
  Rng* rng = nullptr;
  std::vector<int> ints;        // Gather ids / loss labels
  std::vector<int> shape_attr;  // Reshape target shape

  // Arena placement in floats (-1: backed by impl storage — leaves and
  // scalars). scratch holds the op row's forward-only scratch (the conv
  // score slabs).
  int64_t data_off = -1;
  int64_t grad_off = -1;
  int64_t scratch_off = -1;

  // Plan-owned op workspace, sized once at compile by the op's row and
  // reused every step.
  kernels::Workspace ws;
};

/// A compiled step: the node IR, the forward call order, the backward
/// schedule (an exact mirror of the eager reverse-topological walk), and
/// the arena every intermediate lives in.
struct Plan {
  int64_t signature = 0;
  std::vector<Node> nodes;
  std::vector<int> call_order;
  int root = -1;

  struct BwdStep {
    int node = -1;
    // Arena grad buffers zeroed right before this step runs (their first
    // writer); eager gets the same zeros from fresh EnsureGrad() buffers.
    std::vector<int> zero_grads;
  };
  std::vector<BwdStep> bwd;
  // Impl-backed scalar grads zeroed once before the schedule runs.
  std::vector<int> scalar_grad_zero;

  std::vector<float> arena;
  int64_t arena_bytes = 0;

  // Reused for every kernel call, so binding allocates nothing once its
  // operand list has grown to the widest node.
  kernels::Call call;
};

/// One StepScope's state: either recording into `rec` or replaying `plan`.
class Session {
 public:
  GraphExecutor* exec = nullptr;
  int64_t signature = 0;
  bool recording = false;
  bool replaying = false;
  bool aborted = false;
  std::string abort_reason;

  // Recording.
  std::unique_ptr<Plan> rec;
  std::unordered_map<const TensorImpl*, int> node_of;
  int root_node = -1;

  // Replaying.
  Plan* plan = nullptr;
  size_t cursor = 0;
  bool bwd_ran = false;
};

namespace {

/// Ops run only on the thread that owns the StepScope (pool workers execute
/// kernel chunks, never ops), so one thread-local is the whole story.
thread_local Session* tls_session = nullptr;

float* NodeData(Plan& p, int id) {
  Node& n = p.nodes[id];
  return n.data_off >= 0 ? p.arena.data() + n.data_off
                         : n.impl->data.data();
}

float* NodeGrad(Plan& p, int id) {
  Node& n = p.nodes[id];
  if (n.grad_off >= 0) return p.arena.data() + n.grad_off;
  n.impl->EnsureGrad();
  return n.impl->grad.data();
}

/// The node whose kernel inputs and attributes `n` executes with: itself,
/// or its chain head for a fusion tail.
const Node& Head(const Plan& p, const Node& n) {
  return n.head >= 0 ? p.nodes[n.head] : n;
}

/// Which buffers BindCall binds: shapes and attributes only (compile-time
/// sizing), forward (all data), or backward (grads plus the data the op's
/// row lists in bwd_reads).
enum class Bind { kShapes, kForward, kBackward };

/// Binds node `id` as a kernel call on the plan's buffers.
const kernels::Call& BindCall(Plan& p, int id, Bind mode) {
  Node& n = p.nodes[id];
  const Node& head = Head(p, n);
  bool fwd = mode == Bind::kForward;
  bool bwd = mode == Bind::kBackward;
  uint8_t bwd_reads = bwd ? kernels::Info(n.kind).bwd_reads : 0;
  kernels::Call& c = p.call;
  c.out = {fwd || (bwd_reads & kernels::kReadsOut) ? NodeData(p, id) : nullptr,
           bwd ? NodeGrad(p, id) : nullptr, &n.shape, n.numel};
  c.in.clear();
  for (size_t j = 0; j < head.inputs.size(); ++j) {
    int in = head.inputs[j];
    bool data = fwd || (j < 2 && ((bwd_reads >> j) & 1));
    c.in.push_back({data ? NodeData(p, in) : nullptr,
                    bwd && head.in_req[j] ? NodeGrad(p, in) : nullptr,
                    &p.nodes[in].shape, p.nodes[in].numel});
  }
  c.f0 = head.f0;
  c.i0 = head.i0;
  c.rng = head.rng;
  c.ints = &head.ints;
  c.ws = &n.ws;
  c.scratch = mode != Bind::kShapes && n.scratch_off >= 0
                  ? p.arena.data() + n.scratch_off
                  : nullptr;
  return c;
}

void ExecForward(Plan& p, int id) {
  kernels::Info(p.nodes[id].kind).forward(BindCall(p, id, Bind::kForward));
}

/// Runs one backward step: zero this step's first-touched grad buffers,
/// then the node's backward kernel.
void ExecBackwardStep(Plan& p, const Plan::BwdStep& step) {
  for (int gid : step.zero_grads) {
    Node& g = p.nodes[gid];
    float* buf = p.arena.data() + g.grad_off;
    std::fill(buf, buf + g.numel, 0.0f);
  }
  kernels::Info(p.nodes[step.node].kind)
      .backward(BindCall(p, step.node, Bind::kBackward));
}

/// The compiled backward, installed as the root impl's backward_fn. Runs
/// only inside the replay StepScope that owns the plan.
void RunCompiledBackward(Plan* p) {
  Session* s = tls_session;
  OM_CHECK(s != nullptr && s->replaying && s->plan == p)
      << "compiled backward invoked outside its replay step";
  OM_CHECK(!s->bwd_ran) << "compiled backward invoked twice in one step";
  OM_CHECK_EQ(s->cursor, p->call_order.size())
      << "Backward() before the recorded forward finished";
  s->bwd_ran = true;
  for (int id : p->scalar_grad_zero) {
    Node& n = p->nodes[id];
    n.impl->EnsureGrad();
    std::fill(n.impl->grad.begin(), n.impl->grad.end(), 0.0f);
  }
  for (const Plan::BwdStep& step : p->bwd) {
    if (p->nodes[step.node].serial) {
      SerialRegion serial;
      ExecBackwardStep(*p, step);
    } else {
      ExecBackwardStep(*p, step);
    }
  }
}

/// Interns an op input: an already-recorded node keeps its id; anything
/// else (parameter, batch input) becomes a leaf node.
int InternInput(Session* s, const Tensor& t) {
  auto it = s->node_of.find(t.impl().get());
  if (it != s->node_of.end()) return it->second;
  Plan& p = *s->rec;
  Node leaf;
  leaf.call_kind = OpKind::kLeaf;
  leaf.kind = OpKind::kLeaf;
  leaf.shape = t.shape();
  leaf.numel = static_cast<int64_t>(t.data().size());
  leaf.req_grad = t.requires_grad();
  leaf.impl = t.impl();
  int id = static_cast<int>(p.nodes.size());
  p.nodes.push_back(std::move(leaf));
  s->node_of.emplace(t.impl().get(), id);
  return id;
}

/// --- pass pipeline -------------------------------------------------------

/// Dead-node elimination: roots are the backward root, every scalar (the
/// trainer reads loss components), and every RNG-consuming node (a skipped
/// Dropout would shift the stream for later steps). Dead nodes stay in the
/// call order for cursor matching but never execute and get no buffers.
void PassDeadNodes(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile.dce");
  std::vector<char> live(p.nodes.size(), 0);
  std::vector<int> work;
  auto mark = [&](int id) {
    if (!live[id]) {
      live[id] = 1;
      work.push_back(id);
    }
  };
  mark(p.root);
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (n.numel == 1 || n.kind == OpKind::kDropout) mark(id);
  }
  while (!work.empty()) {
    int id = work.back();
    work.pop_back();
    for (int in : p.nodes[id].inputs) mark(in);
  }
  for (int id : p.call_order) {
    if (!live[id]) {
      p.nodes[id].live = false;
      stats->dead_nodes += 1;
    }
  }
}

/// Fusion of strictly call-adjacent Gather + Reshape pairs whose gather
/// output has a single consumer: the Reshape becomes a kGatherReshape tail
/// that runs the Gather kernels straight into its own [B, L, E] buffer, and
/// the Gather becomes kNop (still matched against the call stream, never
/// executed, no buffers).
void PassFusion(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile.fuse");
  std::vector<int> consumers(p.nodes.size(), 0);
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live) continue;
    for (int in : n.inputs) ++consumers[in];
  }
  for (size_t i = 0; i + 1 < p.call_order.size(); ++i) {
    int aid = p.call_order[i];
    Node& a = p.nodes[aid];
    if (!a.live || a.numel == 1 || a.kind != OpKind::kGather) continue;
    int bid = p.call_order[i + 1];
    Node& b = p.nodes[bid];
    if (!b.live || b.kind != OpKind::kReshape || b.inputs[0] != aid ||
        consumers[aid] != 1 || b.numel == 1) {
      continue;
    }
    b.kind = OpKind::kGatherReshape;
    b.head = aid;
    a.kind = OpKind::kNop;
    stats->fused_gather += 1;
    i += 1;
  }
}

/// Backward schedule: an exact simulation of tensor.cc's TopologicalOrder
/// over the recorded graph (a node's eager `parents` are its call inputs,
/// present iff it requires grad), reversed. Fused members emit no step —
/// the chain's backward runs at the tail's position, which is where the
/// eager schedule placed it (the members are consecutive among the
/// executing steps).
void PassBackwardSchedule(Plan& p) {
  OM_TRACE_SPAN("graph.compile.schedule");
  std::vector<int> order;
  std::vector<char> visited(p.nodes.size(), 0);
  std::vector<std::pair<int, size_t>> stack;
  stack.emplace_back(p.root, 0);
  visited[p.root] = 1;
  const std::vector<int> kNoParents;
  while (!stack.empty()) {
    auto& [id, idx] = stack.back();
    const Node& n = p.nodes[id];
    const std::vector<int>& parents =
        (n.is_op && n.req_grad) ? n.inputs : kNoParents;
    if (idx < parents.size()) {
      int parent = parents[idx];
      ++idx;
      if (!visited[parent]) {
        visited[parent] = 1;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(id);
      stack.pop_back();
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int id = *it;
    const Node& n = p.nodes[id];
    // Leaves have no backward_fn; kNop members run at their fusion tail.
    if (!n.is_op || !n.req_grad || n.kind == OpKind::kNop) continue;
    p.bwd.push_back({id, {}});
  }
  for (const Plan::BwdStep& step : p.bwd) {
    if (p.nodes[step.node].numel == 1 && step.node != p.root) {
      p.scalar_grad_zero.push_back(step.node);
    }
  }
}

/// The node ids whose grads `n`'s backward step writes.
void GradTargets(const Plan& p, const Node& n, std::vector<int>* out) {
  out->clear();
  const Node& head = Head(p, n);
  for (size_t j = 0; j < head.inputs.size(); ++j) {
    if (head.in_req[j]) out->push_back(head.inputs[j]);
  }
}

/// Liveness analysis + first-fit arena assignment for every intermediate
/// data buffer, grad buffer and kernel scratch slab. Positions: forward
/// call i is step i; backward step j is step call_order.size() + j.
void PassArena(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile.arena");
  int F = static_cast<int>(p.call_order.size());
  struct Placement {
    int node;
    int which;  // 0 = data, 1 = grad, 2 = scratch
  };
  std::vector<Placement> placements;
  std::vector<ArenaRequest> requests;

  // Grad buffers: a schedule node's grad is written by its consumers'
  // (earlier) steps and read at its own step. The first writer zeroes it.
  std::vector<int> first_touch(p.nodes.size(), INT_MAX);
  std::vector<int> targets;
  for (size_t i = 0; i < p.bwd.size(); ++i) {
    GradTargets(p, p.nodes[p.bwd[i].node], &targets);
    for (int t : targets) {
      first_touch[t] = std::min(first_touch[t], static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < p.bwd.size(); ++i) {
    int gid = p.bwd[i].node;
    Node& g = p.nodes[gid];
    if (g.numel == 1) continue;  // impl-backed, zeroed in the preamble
    int ft = std::min(first_touch[gid], static_cast<int>(i));
    p.bwd[ft].zero_grads.push_back(gid);
    placements.push_back({gid, 1});
    requests.push_back({F + ft, F + static_cast<int>(i), g.numel * 4});
  }

  // Data buffers: live from the producing call to the last read. Forward
  // reads happen at each consumer's call; backward reads are the ones the
  // op's row lists in bwd_reads.
  std::vector<int> data_end(p.nodes.size(), -1);
  auto read_at = [&](int nid, int pos) {
    data_end[nid] = std::max(data_end[nid], pos);
  };
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live || n.kind == OpKind::kNop) continue;
    for (int in : Head(p, n).inputs) read_at(in, n.fpos);
  }
  for (size_t i = 0; i < p.bwd.size(); ++i) {
    int id = p.bwd[i].node;
    const std::vector<int>& ins = Head(p, p.nodes[id]).inputs;
    uint8_t reads = kernels::Info(p.nodes[id].kind).bwd_reads;
    int pos = F + static_cast<int>(i);
    if (reads & kernels::kReadsIn0) read_at(ins[0], pos);
    if (reads & kernels::kReadsIn1) read_at(ins[1], pos);
    if (reads & kernels::kReadsOut) read_at(id, pos);
  }
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    if (!n.live || n.kind == OpKind::kNop || n.numel == 1) continue;
    placements.push_back({id, 0});
    requests.push_back(
        {n.fpos, std::max(data_end[id], n.fpos), n.numel * 4});
  }

  // Forward-only kernel scratch (the conv score slabs).
  for (int id : p.call_order) {
    const Node& n = p.nodes[id];
    auto scratch_floats = kernels::Info(n.kind).scratch_floats;
    if (!n.live || scratch_floats == nullptr) continue;
    placements.push_back({id, 2});
    requests.push_back(
        {n.fpos, n.fpos, scratch_floats(BindCall(p, id, Bind::kShapes)) * 4});
  }

  int64_t total_bytes = 0;
  std::vector<int64_t> offsets = FirstFitArena(requests, &total_bytes);
  p.arena.assign(static_cast<size_t>(total_bytes / 4), 0.0f);
  p.arena_bytes = total_bytes;
  for (size_t i = 0; i < placements.size(); ++i) {
    Node& n = p.nodes[placements[i].node];
    int64_t off = offsets[i] / 4;
    switch (placements[i].which) {
      case 0: n.data_off = off; break;
      case 1: n.grad_off = off; break;
      default: n.scratch_off = off; break;
    }
  }
  stats->arena_bytes_max = std::max(stats->arena_bytes_max, total_bytes);
}

/// Estimated scalar operations of one node's forward kernel (its backward
/// is the same order of magnitude). Only has to be right about which side
/// of kSerialWorkLimit a node lands on.
int64_t WorkEstimate(Plan& p, int id) {
  auto work = kernels::Info(p.nodes[id].kind).work;
  return work != nullptr ? work(BindCall(p, id, Bind::kShapes))
                         : p.nodes[id].numel * 4;
}

/// Below this much estimated work a pool dispatch costs more than the
/// parallelism returns (a dispatch is a few microseconds of wakeup and
/// join; kernels retire roughly one scalar op per nanosecond serially).
constexpr int64_t kSerialWorkLimit = 1 << 16;

/// Pre-schedules each live node's chunking: a node whose recorded work is
/// below kSerialWorkLimit replays inside a SerialRegion, turning every
/// ParallelFor its kernels issue into a single inline chunk. The eager
/// path cannot make this call — it learns shapes one op at a time — but
/// the plan knows every shape up front.
void PassChunkSchedule(Plan& p) {
  OM_TRACE_SPAN("graph.compile.chunks");
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    if (!n.live || n.kind == OpKind::kNop || !n.is_op) continue;
    n.serial = WorkEstimate(p, id) < kSerialWorkLimit;
  }
}

/// Sizes the per-node op workspaces (reused every step) and releases the
/// recorded impls' heap storage — non-scalar intermediates now live in the
/// arena, so their impls keep only the shape for dim()/ndim() callers.
void PassFinalize(Plan& p) {
  OM_TRACE_SPAN("graph.compile.finalize");
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    auto size_workspace = kernels::Info(n.kind).size_workspace;
    if (n.live && size_workspace != nullptr) {
      size_workspace(BindCall(p, id, Bind::kShapes), &n.ws);
    }
  }
  for (int id : p.call_order) {
    Node& n = p.nodes[id];
    // The record step's Backward() already dropped the tape edges; clear
    // the rest so dead/fused impls hold no closures either.
    if (id != p.root) {
      n.impl->backward_fn = nullptr;
      n.impl->parents.clear();
    }
    if (n.numel == 1) continue;  // scalars stay impl-backed (ScalarValue)
    n.impl->data.clear();
    n.impl->data.shrink_to_fit();
    n.impl->grad.clear();
    n.impl->grad.shrink_to_fit();
  }
  Node& root = p.nodes[p.root];
  root.impl->parents.clear();
  Plan* plan = &p;
  root.impl->backward_fn = [plan]() { RunCompiledBackward(plan); };
  root.impl->graph_persistent = true;
}

/// Runs the pass pipeline. Returns nullptr on success or a reason string;
/// all failure returns happen before any impl is mutated, so a failed
/// compile leaves the eager state untouched.
const char* CompilePlan(Plan& p, GraphExecutor::Stats* stats) {
  OM_TRACE_SPAN("graph.compile");
  if (p.root < 0) return "no backward pass was recorded";
  if (p.nodes[p.root].numel != 1) return "backward root is not a scalar";
  if (p.call_order.empty()) return "empty step";
  PassDeadNodes(p, stats);
  PassFusion(p, stats);
  PassBackwardSchedule(p);
  PassArena(p, stats);
  PassChunkSchedule(p);
  PassFinalize(p);
  return nullptr;
}

}  // namespace

/// --- hooks ---------------------------------------------------------------

Session* ActiveRecording() {
  Session* s = tls_session;
  return (s != nullptr && s->recording && !s->aborted) ? s : nullptr;
}

Session* ActiveReplay() {
  Session* s = tls_session;
  return (s != nullptr && s->replaying) ? s : nullptr;
}

void AbortRecording(Session* session, const char* reason) {
  if (session == nullptr || !session->recording || session->aborted) return;
  session->aborted = true;
  session->abort_reason = reason;
}

void UnsupportedOp(const char* name) {
  OM_CHECK(ActiveReplay() == nullptr)
      << name << " has no graph lowering, so a recorded plan can never "
      << "contain it; reaching it mid-replay means the step diverged";
  AbortRecording(ActiveRecording(), name);
}

void NotifyBackwardRoot(TensorImpl* root) {
  Session* s = ActiveRecording();
  if (s == nullptr) return;
  auto it = s->node_of.find(root);
  if (it == s->node_of.end()) {
    AbortRecording(s, "backward root was not produced by a recorded op");
    return;
  }
  if (s->root_node >= 0 && s->root_node != it->second) {
    AbortRecording(s, "multiple backward roots in one step");
    return;
  }
  s->root_node = it->second;
}

void Record(Session* session, OpKind kind, const Tensor* const* inputs,
            int num_inputs, const Tensor& out, const OpArgs& args) {
  if (session == nullptr || !session->recording || session->aborted) return;
  Plan& p = *session->rec;
  if (p.call_order.size() >= kMaxRecordedCalls) {
    AbortRecording(session, "step too long to record");
    return;
  }
  if (num_inputs > kMaxReplayInputs) {
    AbortRecording(session, "op call with too many inputs to replay");
    return;
  }
  Node n;
  n.call_kind = kind;
  n.kind = kind;
  n.is_op = true;
  for (int i = 0; i < num_inputs; ++i) {
    n.inputs.push_back(InternInput(session, *inputs[i]));
    n.in_req.push_back(inputs[i]->requires_grad() ? 1 : 0);
  }
  n.shape = out.shape();
  n.numel = static_cast<int64_t>(out.data().size());
  n.req_grad = out.requires_grad();
  n.impl = out.impl();
  n.f0 = args.f0;
  n.i0 = args.i0;
  n.rng = args.rng;
  if (args.ints != nullptr) n.ints = *args.ints;
  if (args.shape != nullptr) n.shape_attr = *args.shape;
  n.fpos = static_cast<int>(p.call_order.size());
  int id = static_cast<int>(p.nodes.size());
  p.nodes.push_back(std::move(n));
  p.call_order.push_back(id);
  session->node_of[out.impl().get()] = id;
}

Tensor Replay(Session* session, OpKind kind, const Tensor* const* inputs,
              int num_inputs, const OpArgs& args) {
  OM_CHECK(session != nullptr && session->replaying);
  Plan& p = *session->plan;
  OM_CHECK(session->cursor < p.call_order.size())
      << "graph replay: more op calls than recorded (next: "
      << OpKindName(kind) << ")";
  int id = p.call_order[session->cursor];
  Node& n = p.nodes[id];
  OM_CHECK(n.call_kind == kind)
      << "graph replay: call " << session->cursor << " recorded "
      << OpKindName(n.call_kind) << ", got " << OpKindName(kind);
  OM_CHECK_EQ(static_cast<size_t>(num_inputs), n.inputs.size())
      << "graph replay: input count of " << OpKindName(kind);
  for (int i = 0; i < num_inputs; ++i) {
    const Node& in = p.nodes[n.inputs[i]];
    OM_CHECK(in.impl.get() == inputs[i]->impl().get())
        << "graph replay: input " << i << " of " << OpKindName(kind)
        << " at call " << session->cursor
        << " is not the recorded tensor";
    OM_CHECK_EQ(static_cast<int>(n.in_req[i]),
                inputs[i]->requires_grad() ? 1 : 0)
        << "graph replay: requires_grad changed on input " << i << " of "
        << OpKindName(kind);
  }
  OM_CHECK(n.rng == args.rng)
      << "graph replay: RNG stream changed for " << OpKindName(kind);
  OM_CHECK_EQ(n.i0, args.i0)
      << "graph replay: static attribute changed for " << OpKindName(kind);
  if (args.shape != nullptr) {
    OM_CHECK(n.shape_attr == *args.shape)
        << "graph replay: reshape target changed";
  } else {
    OM_CHECK(n.shape_attr.empty());
  }
  // Dynamic attributes: new values each step, same cardinality.
  n.f0 = args.f0;
  if (args.ints != nullptr) {
    OM_CHECK_EQ(args.ints->size(), n.ints.size())
        << "graph replay: id/label count changed for " << OpKindName(kind)
        << " within one batch signature";
    std::copy(args.ints->begin(), args.ints->end(), n.ints.begin());
  } else {
    OM_CHECK(n.ints.empty());
  }
  ++session->cursor;
  if (n.live && n.kind != OpKind::kNop) {
    if (n.serial) {
      SerialRegion serial;
      ExecForward(p, id);
    } else {
      ExecForward(p, id);
    }
  }
  return Tensor(n.impl);
}

/// --- StepScope / GraphExecutor -------------------------------------------

GraphExecutor::GraphExecutor() = default;
GraphExecutor::~GraphExecutor() = default;

StepScope::StepScope(GraphExecutor* executor, int64_t signature) {
  if (executor == nullptr) return;
  OM_CHECK(tls_session == nullptr) << "nested graph StepScopes";
  if (executor->eager_signatures_.count(signature) != 0) return;
  auto session = std::make_unique<Session>();
  session->exec = executor;
  session->signature = signature;
  auto it = executor->plans_.find(signature);
  if (it != executor->plans_.end()) {
    session->replaying = true;
    session->plan = it->second.get();
    executor->stats_.replay_steps += 1;
    ReplayStepsCounter()->Increment();
  } else {
    session->recording = true;
    session->rec = std::make_unique<Plan>();
    session->rec->signature = signature;
    executor->stats_.record_steps += 1;
    RecordStepsCounter()->Increment();
  }
  session_ = std::move(session);
  tls_session = session_.get();
}

StepScope::~StepScope() {
  if (session_ == nullptr) return;
  tls_session = nullptr;
  Session& s = *session_;
  GraphExecutor* executor = s.exec;
  if (s.replaying) {
    OM_CHECK_EQ(s.cursor, s.plan->call_order.size())
        << "graph replay: step ended after " << s.cursor << " of "
        << s.plan->call_order.size() << " recorded op calls";
    OM_CHECK(s.bwd_ran) << "graph replay: step ended without Backward()";
    return;
  }
  const char* error = s.aborted ? s.abort_reason.c_str() : nullptr;
  if (error == nullptr && s.root_node < 0) {
    error = "no backward pass was recorded";
  }
  if (error == nullptr) {
    s.rec->root = s.root_node;
    error = CompilePlan(*s.rec, &executor->stats_);
  }
  if (error != nullptr) {
    executor->eager_signatures_.insert(s.signature);
    executor->stats_.fallback_signatures += 1;
    OM_LOG(Info) << "graph: signature " << s.signature
                 << " stays eager: " << error;
    return;
  }
  executor->stats_.plans += 1;
  ArenaBytesGauge()->Set(
      static_cast<double>(executor->stats_.arena_bytes_max));
  executor->plans_.emplace(s.signature, std::move(s.rec));
}

bool StepScope::recording() const {
  return session_ != nullptr && session_->recording;
}

bool StepScope::replaying() const {
  return session_ != nullptr && session_->replaying;
}

}  // namespace graph
}  // namespace nn
}  // namespace omnimatch
