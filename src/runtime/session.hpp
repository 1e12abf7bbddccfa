#pragma once
/// \file session.hpp
/// \brief The CPU execution engine: one class compiles a graph into a plan
/// and runs it, in f32 or in true-integer int8.
///
/// A Session is the one way code runs inference. Every run can be observed
/// through the vedliot::obs tracing/metrics sinks passed in RunOptions, and
/// the execution-resource knobs (batch cap, thread count, dispatch level)
/// travel as one runtime::ExecConfig, so serving controllers — the brownout
/// ladder, the fleet batcher — adjust a live session without rebuilding it.
///
///   obs::Tracer tracer;
///   obs::MetricsRegistry metrics;
///   runtime::RunOptions opts;
///   opts.trace = &tracer;
///   opts.metrics = &metrics;
///   auto session = runtime::make_session(graph, opts);
///   Tensor y = session->run_single(x);
///   obs::write_chrome_trace("trace.json", tracer.spans());
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
///  - Every Conv2D but a depthwise one (a direct k*k dot per pixel) and
///    every Dense lowers to one GEMM (lower_to_gemm) run by one driver: the
///    register-tiled microkernel, or the scalar gemm_rows at portable. It
///    multiplies a conv's im2col matrix (a 1x1, stride-1, unpadded conv's
///    input planes) or a dense layer's [lanes x features] input in place.
///  - A GEMM step whose activation side is thinner than the tile's vector
///    width runs transposed, with the weights on the vector lanes
///    (runtime_kernels::gemm_transposed, decided when the plan compiles).
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
/// (opt::calibrate_activations); the constructor checks both, and each plan
/// compile quantizes the weights into its steps.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
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

/// The GEMM a node lowers to, per group (and a conv's lane): C[m x cols] =
/// W[m x k] · X[k x cols], cols a conv's output pixels or a dense layer's
/// built batch (a run multiplies its own lanes).
struct GemmShape {
  std::int64_t m = 0, k = 0, cols = 0, groups = 1;
};

/// \p n's GEMM in \p g: every Conv2d but a depthwise one (a direct k*k dot
/// per pixel) and every Dense; nullopt for any other node.
std::optional<GemmShape> lower_to_gemm(const Graph& g, const Node& n);

}  // namespace vedliot

namespace vedliot::runtime {

/// Per-session knobs; the sink pointers may be null and must outlive the
/// session when set.
struct RunOptions {
  /// Span sink: each run emits one `session.run` root span plus one child
  /// span per executed node, categorized by op class.
  obs::Tracer* trace = nullptr;
  /// Counter/histogram sink: per-op-class latency histograms
  /// (`vedliot.runtime.op.<Op>`, microseconds), run/node counters, arena
  /// and (int8) saturation gauges and the pool-utilization histogram.
  obs::MetricsRegistry* metrics = nullptr;

  /// Execution-resource knobs (admission batch cap, intra-op threads, SIMD
  /// level). The one copy; serving-side rung caps reference the same struct.
  ExecConfig exec = {};
};

/// What one Session::run produced.
struct RunResult {
  std::map<std::string, Tensor> outputs;  ///< keyed by output node name

  /// The single output; throws Error unless exactly one output exists.
  const Tensor& single() const;
};

/// One deployed model instance, ready to serve. Not thread-safe; use one
/// session per worker.
class Session {
 public:
  /// The graph must outlive the session and have materialized weights.
  /// \p dtype selects the arithmetic: kFP32 (the float reference) or kINT8
  /// (throws Unsupported on unfolded BatchNorm or a missing act_scale).
  explicit Session(const Graph& graph, DType dtype = DType::kFP32,
                   const RunOptions& options = {});

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
  RunResult run(const std::map<std::string, Tensor>& feeds, const Observer& observe = {});

  /// Convenience for single-input single-output graphs.
  Tensor run_single(const Tensor& input);

  /// The execution resources, replaceable on a live session: the feed-lane
  /// cap run() enforces (brownout controllers shrink it under overload and
  /// restore it when headroom returns), intra-op threads (0 = hardware
  /// concurrency; output bits never depend on it) and the requested
  /// dispatch level. The level is resolved per run — env overrides and CPU
  /// feature detection applied — so a test can flip VEDLIOT_FORCE_PORTABLE
  /// between runs of one live session. int8 bits are identical at every
  /// level; f32 SIMD agrees with portable to a tight ULP bound
  /// (microkernel.hpp).
  void set_exec_config(const ExecConfig& exec);
  const ExecConfig& exec_config() const { return exec_; }
  std::int64_t max_batch() const { return exec_.max_batch; }
  /// The concrete dispatch level the last run() executed at.
  util::SimdLevel active_simd() const { return active_simd_; }

  const Graph& graph() const { return graph_; }
  /// Backend identifier: "float-reference" or "int8".
  std::string backend() const;

  /// Weight-panel pack operations so far: flat across steady-state runs,
  /// growing when the plan recompiles for a moved Graph::version() or a new
  /// dispatch tile.
  std::size_t weight_packs() const { return weight_packs_; }

  /// int8 plan compiles so far, each quantizing the weights: the first run's,
  /// then one per Graph::version() (self-heal) or tile change. 0 for f32.
  std::size_t preparations() const { return preparations_; }

  /// Accumulated int8 saturation events across all completed runs
  /// (requantization clamps) — a deployment health metric. A run that
  /// throws adds nothing. Always 0 for f32.
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
  /// One compiled node: everything its kernel needs, resolved once.
  struct Step {
    const Node* node = nullptr;
    std::size_t out = 0;               ///< arena byte offset of the output
    std::vector<std::size_t> in;       ///< arena byte offsets of the inputs
    OpKind act = OpKind::kIdentity;    ///< f32: Conv/Dense/Add fused or own activation
    double alpha = 0.01;
    runtime_kernels::Conv2dGeometry conv;  ///< Conv2d, and the window of a pool
    std::optional<GemmShape> gemm;         ///< lower_to_gemm of the node
    std::int64_t upsample = 1;
    std::vector<float> bn_scale, bn_shift;  ///< f32 BatchNorm folded to x*s+t
    double in_scale = 1.0, out_scale = 1.0;  ///< int8 input and output activation scales
    /// int8 S8Policy::rq: per output channel for Conv2d/Dense (in_scale *
    /// w_scale[c] / out_scale), per input for the other ops, per window tap
    /// count for a pool.
    std::vector<runtime_kernels::Requant> requant;
    std::int32_t q_lo = -128, q_hi = 127;   ///< int8 fused Relu/Relu6 window
    /// int8 Conv2d/Dense: the weights quantized at per-output-channel scales
    /// (dropped once packed into panels) and the bias at in_scale * w_scale[c].
    std::vector<std::int8_t> codes;
    std::vector<std::int32_t> bias;
    /// A GEMM step at a microkernel tile: it runs as Cᵀ = Xᵀ·Wᵀ
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
  obs::Tracer* const tracer_;
  obs::MetricsRegistry* const metrics_;
  ExecConfig exec_;
  unsigned threads_ = 0;  ///< exec_.threads resolved (0 = hardware concurrency)
  std::unique_ptr<util::ThreadPool> pool_;
  util::SimdLevel active_simd_ = util::SimdLevel::kPortable;
  /// The resolved level's microkernel table when it has this dtype's
  /// kernel, else null (scalar kernels; bitwise-identical for int8).
  const runtime_kernels::GemmMicrokernels* mk_ = nullptr;

  std::vector<double> scales_;  ///< int8 activation scales by NodeId, read per compile

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
};

/// Float reference session. The graph must outlive the session and have
/// materialized weights.
std::unique_ptr<Session> make_session(const Graph& graph, const RunOptions& options = {});

/// True-integer INT8 session. The graph must be deployment-ready: weights
/// materialized, BatchNorm folded, activations calibrated. Throws
/// Unsupported otherwise.
std::unique_ptr<Session> make_quantized_session(const Graph& graph,
                                                const RunOptions& options = {});

}  // namespace vedliot::runtime
