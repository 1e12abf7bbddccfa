#pragma once
/// \file executor.hpp
/// \brief The CPU execution engine: one compiled plan runs f32 and int8.
///
/// A graph compiles once per (Graph::version(), microkernel tile) into a
/// flat vector of steps in topological order. Each step holds
/// its op, resolved geometry, arena offsets, fused-activation or
/// requantization constants and — at a SIMD dispatch level — the layer's
/// weights packed into microkernel panels, so a run repacks nothing (the
/// pack-once, reuse-every-call recipe of Ramírez et al., PAPERS.md). One
/// loop executes the plan for both dtypes, and each op's kernel body is
/// written once over a dtype policy (kernels.hpp) that carries the element
/// types and the epilogue — bias plus activation for f32, requantization
/// for int8:
///
///  - Conv2D runs as im2col + GEMM (register-tiled microkernel, or the
///    cache-blocked scalar kernel at portable dispatch); a 1x1, stride-1,
///    unpadded conv reads its input as the column matrix in place, and
///    depthwise stays a direct k*k dot per pixel at every level.
///  - A Conv2D or Dense step whose activation side is thinner than the
///    tile's vector width runs transposed, with the weights on the vector
///    lanes (runtime_kernels::gemm_transposed, decided when the plan
///    compiles).
///  - Kernels partition output rows/channels — a GEMM's weight panels, in
///    either orientation — over a util::ThreadPool with a fixed per-element
///    accumulation order, so output bits — and the int8 saturation count —
///    are identical for any thread count.
///  - Every activation lives in one liveness-packed byte arena laid out by
///    the memory planner. Graph outputs are copied out of the arena; any
///    other node's value is readable only while run()'s observer is called
///    for it, right after it is written.
///  - A moved Graph::version() (OTA swap, scrubber repair, injected fault)
///    recompiles the plan — requantizing int8 weights and repacking panels —
///    before the run serves a single output from stale weights.
///
/// The int8 dtype is true integer arithmetic, TFLite-style: int8 operands,
/// int32 accumulation, per-output-channel weight scales and calibrated
/// activation scales, requantized between layers. It needs BatchNorm folded
/// (opt::FuseBatchNormPass) and an `act_scale` attribute on every node
/// (opt::calibrate_activations); the constructor checks both and quantizes
/// the weights.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/exec_config.hpp"
#include "runtime/kernels.hpp"
#include "runtime/microkernel.hpp"
#include "tensor/dtype.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"

namespace vedliot {

/// Exception for execution-time failures (missing weights, bad feeds).
class ExecError : public Error {
 public:
  explicit ExecError(const std::string& message) : Error(message) {}
};

/// Quantized activation tensor: symmetric int8 with one scale.
struct QTensor {
  Shape shape;
  std::vector<std::int8_t> data;
  double scale = 1.0;

  /// Dequantize to float for inspection / the final output.
  Tensor dequantize() const;
};

/// Quantize a float tensor at a fixed scale (round-to-nearest, saturate).
QTensor quantize_fixed(const Tensor& t, double scale);

class Executor {
 public:
  /// The graph must outlive the executor and have materialized weights.
  /// \p dtype selects the arithmetic: kFP32 (the float reference) or kINT8
  /// (throws Unsupported on unfolded BatchNorm or a missing act_scale).
  explicit Executor(const Graph& graph, DType dtype = DType::kFP32);

  /// Called by run() once per graph input right after it is fed, then once
  /// per step right after the step wrote its output, in plan order: every
  /// live node exactly once. During the call the node's value is readable
  /// (value() for f32, quantized() for int8); a later step may reuse its
  /// arena bytes.
  using Observer = std::function<void(NodeId)>;

  /// Run the graph on the given feeds (one tensor per Input node, keyed by
  /// node name). Returns the outputs of all graph output nodes by name,
  /// dequantized for int8.
  ///
  /// The lane count is a property of the run, not of the plan: feeds may
  /// carry any n in [1, built batch] lanes along their leading dimension
  /// (every other dimension exact, every feed the same n, n within the
  /// ExecConfig::max_batch cap when one is set), and outputs and node values
  /// cover those n lanes. One compiled plan therefore serves every batch
  /// width up to the graph's built batch; each lane's bits are those of a
  /// singleton run of the same input. Any other feed throws ExecError.
  ///
  /// This is the engine runtime::Session wraps; application code goes
  /// through Session. Direct construction is reserved for introspection
  /// (the observer, quantized codes, arena_stats, weight_packs).
  std::map<std::string, Tensor> run(const std::map<std::string, Tensor>& feeds,
                                    const Observer& observe = {});

  /// Attach observability sinks (either may be null). When a tracer is set,
  /// run() emits one `session.run` root span plus one child span per
  /// executed node, categorized by op class; when a registry is set,
  /// per-op-class latency histograms (`vedliot.runtime.op.<Op>`,
  /// microseconds), run/node counters, arena and (int8) saturation gauges
  /// and the pool-utilization histogram are recorded. The sinks must outlive
  /// the executor.
  void instrument(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// The execution resources: the feed-lane cap run() enforces, intra-op
  /// threads (0 = hardware concurrency; output bits never depend on it)
  /// and the requested dispatch level. The level is resolved per run —
  /// env overrides and CPU feature detection applied — so a test can flip
  /// VEDLIOT_FORCE_PORTABLE between runs of one live executor. int8 bits
  /// are identical at every level; f32 SIMD agrees with portable to a tight
  /// ULP bound (microkernel.hpp).
  void set_exec_config(const runtime::ExecConfig& exec);
  const runtime::ExecConfig& exec_config() const { return exec_; }
  /// The concrete dispatch level the last run() executed at.
  util::SimdLevel active_simd() const { return active_simd_; }

  const Graph& graph() const { return graph_; }
  DType dtype() const { return dtype_; }

  /// Weight-panel pack operations so far: flat across steady-state runs,
  /// growing when the plan recompiles for a moved Graph::version() or a new
  /// dispatch tile.
  std::size_t weight_packs() const { return weight_packs_; }

  /// int8 weight quantizations so far: once at construction, plus once per
  /// Graph::version() change the plan recompiled for (self-heal). 0 for f32.
  std::size_t preparations() const { return preparations_; }

  /// Accumulated int8 saturation events across all runs (requantization
  /// clamps) — a deployment health metric. Always 0 for f32.
  std::uint64_t saturations() const { return saturations_; }

  /// Arena accounting of the compiled plan.
  struct ArenaStats {
    std::int64_t arena_bytes = 0;  ///< liveness-packed slab size
    std::int64_t naive_bytes = 0;  ///< sum of all activation buffers
  };
  const ArenaStats& arena_stats() const { return arena_stats_; }

  /// After run(): number of nodes executed (inputs excluded).
  std::size_t nodes_executed() const { return nodes_executed_; }

  /// A node's value in the current run's lanes: a read-only f32 view into
  /// the arena (value(), f32 plans) or a copy of its int8 codes plus scale
  /// (quantized(), int8 plans). Readable are the node the observer is being
  /// called for and, after a completed run, the graph outputs; any other
  /// read, or one of the other dtype, throws ExecError.
  Tensor value(NodeId id) const;
  QTensor quantized(NodeId id) const;

 private:
  /// int8 Conv2D/Dense weights quantized at per-output-channel scales.
  struct QuantLayer {
    std::vector<std::int8_t> weights;
    std::vector<std::int32_t> bias;  ///< at in_scale * w_scale[c]
    std::vector<runtime_kernels::Requant> requant;  ///< in_scale * w_scale[c] / out_scale
  };

  /// One compiled node: everything its kernel needs, resolved once.
  struct Step {
    const Node* node = nullptr;
    std::size_t out = 0;               ///< arena byte offset of the output
    std::vector<std::size_t> in;       ///< arena byte offsets of the inputs
    OpKind act = OpKind::kIdentity;    ///< f32: Conv/Dense/Add fused or own activation
    double alpha = 0.01;
    runtime_kernels::Conv2dGeometry conv;  ///< Conv2d, and the window of a pool
    std::int64_t upsample = 1;
    std::vector<float> bn_scale, bn_shift;  ///< f32 BatchNorm folded to x*s+t
    double in_scale = 1.0, out_scale = 1.0;  ///< int8 Softmax's activation scales
    /// int8 ops other than Conv2d/Dense: S8Policy::rq (per input, or per
    /// pool window tap count).
    std::vector<runtime_kernels::Requant> requant;
    std::int32_t q_lo = -128, q_hi = 127;   ///< int8 fused Relu/Relu6 window
    /// Conv2d/Dense at a microkernel tile: the GEMM runs as Cᵀ = Xᵀ·Wᵀ
    /// (runtime_kernels::gemm_transposed), with the weights packed as B.
    bool transposed = false;
    std::vector<std::byte> packed;  ///< weight panels (A, or B if transposed), one block per group
  };

  /// Scratch of the executing step, reused across steps and runs.
  struct Workspace {
    std::vector<std::byte> col;      ///< im2col matrix / transposed dense input
    std::vector<std::byte> panels;   ///< the run's packed activations (B, or A if transposed)
    std::vector<std::uint64_t> sat;  ///< int8 saturations, one slot per pool chunk
  };

  void quantize();
  /// The arena bytes of \p id's value; throws ExecError unless value()'s
  /// rules admit the read at \p dtype.
  const std::byte* readable(NodeId id, DType dtype) const;
  void compile(const runtime_kernels::MicrokernelTile& tile);
  Step compile_step(const Node& n);
  void run_step(const Step& s);
  /// The op's kernel body, one for both dtypes: P is the dtype policy
  /// (runtime_kernels::F32Policy or S8Policy) run_step picked for the step.
  template <typename P>
  void run_op(const Step& s, const P& p, const typename P::Elem* w);
  template <typename T>
  T* buffer(std::size_t offset) {
    return reinterpret_cast<T*>(arena_.data() + offset);
  }
  /// Dispatch [begin, end) over the intra-op pool (inline when serial);
  /// records one pool-utilization sample.
  template <typename Fn>
  void pfor(std::int64_t begin, std::int64_t end, std::int64_t grain, const Fn& fn);

  const Graph& graph_;
  const DType dtype_;
  runtime::ExecConfig exec_;
  unsigned threads_ = 1;  ///< exec_.threads resolved (0 = hardware concurrency)
  std::unique_ptr<util::ThreadPool> pool_;
  util::SimdLevel active_simd_ = util::SimdLevel::kPortable;
  /// The resolved level's microkernel table when it has this dtype's
  /// kernel, else null (scalar kernels; bitwise-identical for int8).
  const runtime_kernels::GemmMicrokernels* mk_ = nullptr;

  // int8 weights and activation scales (indexed by NodeId), quantized at
  // construction and again when the plan recompiles for a new version.
  std::vector<QuantLayer> qlayers_;
  std::vector<double> scales_;
  std::uint64_t quantized_version_ = 0;

  // The compiled plan and the key it was compiled for.
  bool compiled_ = false;
  std::uint64_t plan_version_ = 0;
  runtime_kernels::MicrokernelTile plan_tile_;
  std::vector<Step> steps_;
  std::vector<NodeId> inputs_, outputs_;
  std::vector<std::size_t> offset_;  ///< arena byte offset per NodeId
  std::vector<std::byte> arena_;
  std::int64_t lanes_ = 0;           ///< lane count of the current run
  NodeId observed_ = -1;             ///< the node run()'s observer is called for
  bool outputs_valid_ = false;       ///< the last run completed

  Workspace ws_;

  ArenaStats arena_stats_;
  std::size_t nodes_executed_ = 0;
  std::size_t weight_packs_ = 0;
  std::size_t preparations_ = 0;
  std::uint64_t saturations_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace vedliot
