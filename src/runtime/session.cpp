#include "runtime/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>
#include <utility>

#include "runtime/instrument.hpp"
#include "runtime/memory_planner.hpp"
#include "tensor/quant.hpp"

namespace vedliot {

using runtime_kernels::Conv2dGeometry;
using runtime_kernels::F32Policy;
using runtime_kernels::GemmMicrokernels;
using runtime_kernels::MicrokernelTile;
using runtime_kernels::panel_count;
using runtime_kernels::Requant;
using runtime_kernels::requant_sat;
using runtime_kernels::S8Policy;

namespace {

/// Grow a reusable scratch buffer to hold \p count values of T; steady-state
/// runs find it large enough and allocate nothing.
template <typename T>
T* grow(std::vector<std::byte>& buf, std::size_t count) {
  if (buf.size() < count * sizeof(T)) buf.resize(count * sizeof(T));
  return reinterpret_cast<T*>(buf.data());
}

std::size_t slot(NodeId id) { return static_cast<std::size_t>(id); }

/// \p s with its leading (batch) dimension set to \p lanes.
Shape with_lanes(const Shape& s, std::int64_t lanes) {
  std::vector<std::int64_t> dims(s.dims().begin(), s.dims().end());
  dims[0] = lanes;
  return Shape(std::move(dims));
}

/// Elements of one batch lane of \p s.
std::int64_t lane_elems(const Shape& s) { return s.numel() / s.dim(0); }

/// Quantize floats at \p scale (the dtype boundary: feeds and the int8
/// Softmax's float core); returns the saturations. Out of line, so the
/// int8 op bodies hold no float rounding.
[[gnu::noinline]] std::uint64_t quantize_into(std::span<const float> x, double scale, std::int8_t* q) {
  std::uint64_t saturations = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    q[i] = requant_sat(static_cast<double>(x[i]) / scale, saturations);
  }
  return saturations;
}

void dequantize_into(const std::int8_t* q, double scale, std::span<float> x) {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(q[i] * scale);
}

/// In-place softmax over \p lanes rows of \p features floats (max
/// subtraction, double-accumulated exponent sum) — the f32 op and the
/// float core of the int8 one.
void softmax_rows(float* y, std::int64_t lanes, std::int64_t features) {
  for (std::int64_t b = 0; b < lanes; ++b) {
    float* row = y + b * features;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t f = 0; f < features; ++f) mx = std::max(mx, row[f]);
    double sum = 0.0;
    for (std::int64_t f = 0; f < features; ++f) {
      const double e = std::exp(static_cast<double>(row[f] - mx));
      row[f] = static_cast<float>(e);
      sum += e;
    }
    for (std::int64_t f = 0; f < features; ++f) row[f] = static_cast<float>(row[f] / sum);
  }
}

const float* weight(const Node& n, std::size_t i) {
  return n.weights.size() > i ? n.weights[i].data().data() : nullptr;
}

/// The int8 activation scales by NodeId; throws Unsupported unless every
/// BatchNorm is folded and every node carries an act_scale.
std::vector<double> activation_scales(const Graph& g) {
  std::vector<double> scales(g.total_nodes(), 1.0);
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::kBatchNorm) {
      throw Unsupported("fold BatchNorm (opt::FuseBatchNormPass) before integer execution");
    }
    if (!n.attrs.has("act_scale")) {
      throw Unsupported("node " + n.name +
                        " has no act_scale — run opt::calibrate_activations first");
    }
    const double so = n.attrs.get_float("act_scale");
    scales[slot(id)] = so > 0 ? so : 1e-9;
  }
  return scales;
}

Conv2dGeometry conv_geometry(const Graph& g, const Node& n) {
  const Shape& in = g.node(n.inputs.at(0)).out_shape;
  const AttrMap& a = n.attrs;
  return {in.c(), in.h(), in.w(), n.out_shape.c(), n.out_shape.h(), n.out_shape.w(),
          a.get_int("kernel"), a.get_int_or("stride", 1), a.get_int_or("pad", 0),
          a.get_int_or("groups", 1)};
}

/// The dtype-specific half of the GEMM path: a policy's microkernel table
/// entries and panel layouts (int8 packs k-pairs for madd_epi16).
template <typename P>
struct GemmPath;

template <>
struct GemmPath<F32Policy> {
  static constexpr auto tile = &GemmMicrokernels::f32;
  static constexpr auto gemm = &GemmMicrokernels::gemm_f32;
  static constexpr auto a_size = &runtime_kernels::packed_a_f32_elems;
  static constexpr auto b_size = &runtime_kernels::packed_b_f32_elems;
  static constexpr auto pack_a = &runtime_kernels::pack_a_f32;
  static constexpr auto pack_b = &runtime_kernels::pack_b_f32;
};

template <>
struct GemmPath<S8Policy> {
  static constexpr auto tile = &GemmMicrokernels::s8;
  static constexpr auto gemm = &GemmMicrokernels::gemm_s8;
  static constexpr auto a_size = &runtime_kernels::packed_a_s8_words;
  static constexpr auto b_size = &runtime_kernels::packed_b_s8_bytes;
  static constexpr auto pack_a = &runtime_kernels::pack_a_s8;
  static constexpr auto pack_b = &runtime_kernels::pack_b_s8;
};

}  // namespace

std::optional<GemmShape> lower_to_gemm(const Graph& g, const Node& n) {
  if (n.kind == OpKind::kDense) {
    return GemmShape{n.out_shape.dim(1), g.node(n.inputs.at(0)).out_shape.dim(1),
                     n.out_shape.dim(0), 1};
  }
  if (n.kind != OpKind::kConv2d) return std::nullopt;
  const Conv2dGeometry geo = conv_geometry(g, n);
  if (geo.is_depthwise()) return std::nullopt;
  return GemmShape{geo.ocg(), geo.patch(), geo.cols(), geo.groups};
}

Tensor QTensor::dequantize() const {
  Tensor t(shape);
  dequantize_into(data.data(), scale, t.data());
  return t;
}

QTensor quantize_fixed(const Tensor& t, double scale) {
  QTensor q{t.shape(), std::vector<std::int8_t>(static_cast<std::size_t>(t.numel())), scale};
  quantize_into(t.data(), scale, q.data.data());
  return q;
}

}  // namespace vedliot

namespace vedliot::runtime {

const Tensor& RunResult::single() const {
  VEDLIOT_CHECK(outputs.size() == 1, "RunResult::single requires exactly one output");
  return outputs.begin()->second;
}

Session::Session(const Graph& graph, DType dtype, const RunOptions& options)
    : graph_(graph), dtype_(dtype), tracer_(options.trace), metrics_(options.metrics) {
  if (!graph_.weights_materialized()) {
    throw ExecError("graph " + graph.name() +
                    " has unmaterialized weights; call materialize_weights()");
  }
  if (dtype_ == DType::kINT8) {
    (void)activation_scales(graph_);  // the int8 preconditions, checked before any run
  } else if (dtype_ != DType::kFP32) {
    throw Unsupported("the engine runs FP32 or INT8, not " + std::string(dtype_name(dtype_)));
  }
  set_exec_config(options.exec);
}

void Session::set_exec_config(const ExecConfig& exec) {
  exec_ = exec;
  const unsigned threads = exec.threads == 0 ? util::ThreadPool::hardware_threads() : exec.threads;
  if (threads == threads_) return;
  threads_ = threads;
  pool_ = threads_ > 1 ? std::make_unique<util::ThreadPool>(threads_) : nullptr;
  ws_.sat.assign(threads_, 0);
}

template <typename Fn>
void Session::pfor(std::int64_t begin, std::int64_t end, std::int64_t grain, const Fn& fn) {
  if (pool_ == nullptr) {
    if (end > begin) fn(begin, end, std::size_t{0});
    return;
  }
  const std::size_t chunks = pool_->parallel_for(begin, end, grain, std::cref(fn));
  if (metrics_ != nullptr && chunks > 0) {
    runtime_detail::pool_utilization_histogram(*metrics_)
        .add(static_cast<double>(chunks) / static_cast<double>(threads_));
  }
}

void Session::compile(const MicrokernelTile& tile) {
  compiled_ = false;  // until every step compiled: a throwing op leaves no half plan
  if (dtype_ == DType::kINT8) {
    scales_ = activation_scales(graph_);
    ++preparations_;
  }

  // Inputs first: run() writes every feed before the first step, so the
  // planner must see them born at the start.
  std::vector<NodeId> order = graph_.topo_order();
  std::stable_partition(order.begin(), order.end(),
                        [&](NodeId id) { return graph_.node(id).kind == OpKind::kInput; });
  const MemoryPlan mem = plan_memory_with_order(graph_, order, dtype_);
  offset_.assign(graph_.total_nodes(), 0);
  for (const BufferPlan& b : mem.buffers) {
    offset_[slot(b.node)] = static_cast<std::size_t>(b.offset);
  }
  arena_stats_ = {mem.arena_bytes, mem.naive_bytes};
  arena_.assign(static_cast<std::size_t>(arena_stats_.arena_bytes), std::byte{0});

  steps_.clear();
  for (NodeId id : order) {
    const Node& n = graph_.node(id);
    if (n.kind != OpKind::kInput) steps_.push_back(compile_step(n));
  }
  inputs_ = graph_.inputs();
  outputs_ = graph_.outputs();
  compiled_ = true;
  plan_version_ = graph_.version();
  plan_tile_ = tile;
}

Session::Step Session::compile_step(const Node& n) {
  using namespace runtime_kernels;
  const bool int8 = dtype_ == DType::kINT8;
  Step s;
  s.node = &n;
  s.out = offset_[slot(n.id)];
  for (NodeId in : n.inputs) s.in.push_back(offset_[slot(in)]);
  const AttrMap& a = n.attrs;
  const std::string fused = a.get_str_or("fused_act", "");
  const bool parametric = n.kind == OpKind::kConv2d || n.kind == OpKind::kDense;
  if (parametric && n.weights.empty()) {
    throw ExecError(std::string(op_name(n.kind)) + " " + n.name + " has no weights");
  }
  // f32 epilogue activation: the fused one (Conv2d, Dense, Add), the op's
  // own, or none (copies, pools, Concat).
  const bool fuses = parametric || n.kind == OpKind::kAdd;
  s.act = fuses ? (fused.empty() ? OpKind::kIdentity : parse_op(fused))
          : (op_is_activation(n.kind) ? n.kind : OpKind::kIdentity);
  s.alpha = a.get_float_or(fuses ? "fused_alpha" : "alpha", 0.01);
  const Shape& in_shape = graph_.node(n.inputs.at(0)).out_shape;
  if (n.kind == OpKind::kConv2d) s.conv = conv_geometry(graph_, n);
  s.gemm = lower_to_gemm(graph_, n);
  if (n.kind == OpKind::kMaxPool || n.kind == OpKind::kAvgPool ||
      n.kind == OpKind::kGlobalAvgPool) {  // the window; GlobalAvgPool's covers the plane
    const std::int64_t k = n.kind == OpKind::kGlobalAvgPool ? std::max(in_shape.h(), in_shape.w())
                                                            : a.get_int("kernel");
    s.conv = {in_shape.c(), in_shape.h(), in_shape.w(), in_shape.c(), n.out_shape.h(),
              n.out_shape.w(), k, a.get_int_or("stride", k), a.get_int_or("pad", 0), in_shape.c()};
  }
  if (n.kind == OpKind::kUpsample) s.upsample = a.get_int("scale");
  if (n.kind == OpKind::kBatchNorm) {
    if (n.weights.size() != 4) throw ExecError("BatchNorm " + n.name + " needs 4 weight tensors");
    const double eps = a.get_float_or("epsilon", 1e-5);
    const Tensor& gamma = n.weights[0];
    const Tensor& beta = n.weights[1];
    const Tensor& mean = n.weights[2];
    const Tensor& var = n.weights[3];
    for (std::size_t c = 0; c < static_cast<std::size_t>(gamma.numel()); ++c) {
      s.bn_scale.push_back(static_cast<float>(gamma.at(c) / std::sqrt(var.at(c) + eps)));
      s.bn_shift.push_back(static_cast<float>(beta.at(c) - mean.at(c) * s.bn_scale.back()));
    }
  }

  if (int8) {
    switch (n.kind) {
      case OpKind::kConv2d: case OpKind::kDense: case OpKind::kRelu: case OpKind::kRelu6:
      case OpKind::kIdentity: case OpKind::kFlatten: case OpKind::kMaxPool:
      case OpKind::kAvgPool: case OpKind::kGlobalAvgPool: case OpKind::kAdd:
      case OpKind::kConcat: case OpKind::kSoftmax:
        break;
      default:
        throw Unsupported("integer executor does not support op " + std::string(op_name(n.kind)));
    }
    if (!fused.empty() && fused != "Relu" && fused != "Relu6") {
      throw Unsupported("integer executor supports fused Relu/Relu6 only, got " + fused);
    }
    if (n.kind == OpKind::kAdd) {
      VEDLIOT_CHECK(graph_.node(n.inputs.at(0)).out_shape == graph_.node(n.inputs.at(1)).out_shape,
                    "integer Add supports equal shapes only");
    }
    VEDLIOT_CHECK(n.kind != OpKind::kConcat || n.out_shape.dim(0) == 1,
                  "integer Concat supports batch 1");
    s.in_scale = scales_[slot(n.inputs.at(0))];
    s.out_scale = scales_[slot(n.id)];
    // Symmetric quantization keeps zero at q=0, so ReLU is max(q, 0).
    if (fused == "Relu" || n.kind == OpKind::kRelu) s.q_lo = 0;
    if (fused == "Relu6" || n.kind == OpKind::kRelu6) {
      s.q_lo = 0;
      s.q_hi = std::min(127, static_cast<std::int32_t>(std::nearbyint(6.0 / s.out_scale)));
    }
    // The fixed-point requants: per output channel for Conv2d/Dense, whose
    // weights quantize here at per-channel scales; input over output scale
    // for the other ops but Softmax (a float core).
    const auto ratio = [&](std::size_t i) { return scales_[slot(n.inputs[i])] / s.out_scale; };
    if (parametric) {
      const Tensor& w = n.weights[0];
      const auto oc = static_cast<std::size_t>(w.shape().dim(0));
      const auto per = static_cast<std::size_t>(w.numel()) / oc;
      s.codes.resize(static_cast<std::size_t>(w.numel()));
      for (std::size_t c = 0; c < oc; ++c) {
        const double bias = n.weights.size() > 1 ? n.weights[1].at(c) : 0.0;
        const Int8Channel q = quantize_int8_channel(w.data().subspan(c * per, per), bias,
                                                    s.in_scale, s.codes.data() + c * per);
        s.bias.push_back(q.bias);
        s.requant.push_back(Requant::from_real(s.in_scale * q.scale / s.out_scale));
      }
    } else if (n.kind == OpKind::kAdd) {
      const EltwiseRequants r = eltwise_requants(ratio(0), ratio(1));
      s.requant = {r.a, r.b};
    } else if (n.kind == OpKind::kMaxPool || n.kind == OpKind::kAvgPool ||
               n.kind == OpKind::kGlobalAvgPool) {
      // Entry c−1 averages a window of c taps (fewer than k² at a padded
      // border); a max rescales as one tap.
      const std::int64_t taps = n.kind == OpKind::kMaxPool ? 1 : s.conv.kernel * s.conv.kernel;
      for (std::int64_t c = 1; c <= taps; ++c) {
        s.requant.push_back(Requant::from_real(ratio(0) / static_cast<double>(c)));
      }
    } else if (n.kind != OpKind::kSoftmax) {
      for (std::size_t i = 0; i < n.inputs.size(); ++i) {
        s.requant.push_back(eltwise_requants(ratio(i)).a);
      }
    }
  }

  // Weight panels, packed once per plan (per group for grouped convs), as
  // the A operand or, for a transposed step, the B operand (microkernel.hpp).
  // A packed step keeps only its panels.
  if (mk_ != nullptr && s.gemm) {
    const auto [m, k, cols, groups] = *s.gemm;
    auto pack = [&](auto policy, const auto* w) {
      using P = decltype(policy);
      using G = GemmPath<P>;
      const MicrokernelTile& tile = mk_->*G::tile;
      s.transposed = gemm_transposed(m, cols, tile);
      const std::size_t per = s.transposed ? G::b_size(k, m, tile) : G::a_size(m, k, tile);
      const std::size_t total = per * static_cast<std::size_t>(groups);
      for (std::int64_t g = 0; g < groups; ++g) {
        const auto* wg = w + g * m * k;
        const std::size_t at = static_cast<std::size_t>(g) * per;
        if (s.transposed) {  // Wᵀ [k x m]: weight row j is its column j
          G::pack_b(wg, k, m, 1, k, tile, 0, panel_count(m, tile.nr),
                    grow<typename P::PackedB>(s.packed, total) + at);
        } else {
          G::pack_a(wg, m, k, k, 1, tile, grow<typename P::PackedA>(s.packed, total) + at);
        }
        ++weight_packs_;
      }
    };
    if (int8) {
      pack(S8Policy{}, std::exchange(s.codes, {}).data());
    } else {
      pack(F32Policy{}, weight(n, 0));
    }
  }
  return s;
}

RunResult Session::run(const std::map<std::string, Tensor>& feeds, const Observer& observe) {
  // The one dispatch resolution per run (env overrides are live) and the
  // one recompile point: a moved Graph::version() requantizes (int8) and
  // repacks, a new tile repacks.
  const bool int8 = dtype_ == DType::kINT8;
  active_simd_ = util::resolve_simd_level(exec_.simd);
  const runtime_kernels::GemmMicrokernels* table = runtime_kernels::gemm_microkernels(active_simd_);
  const bool has_kernel =
      table != nullptr && (int8 ? table->gemm_s8 != nullptr && table->s8.available()
                                : table->gemm_f32 != nullptr && table->f32.available());
  mk_ = has_kernel ? table : nullptr;
  const MicrokernelTile tile = !has_kernel ? MicrokernelTile{} : int8 ? table->s8 : table->f32;
  if (!compiled_ || plan_version_ != graph_.version() || plan_tile_.mr != tile.mr ||
      plan_tile_.nr != tile.nr) {
    compile(tile);
  }
  outputs_valid_ = false;
  observed_ = -1;  // an observer that threw left its node readable
  // A run that threw left its partial saturation counts in the slots.
  std::fill(ws_.sat.begin(), ws_.sat.end(), 0);
  // The node the observer is called for is readable for that call only.
  const auto notify = [&](NodeId id) {
    if (!observe) return;
    observed_ = id;
    observe(id);
    observed_ = -1;
  };

  obs::ScopedSpan run_span;
  if (tracer_ != nullptr) {
    run_span = tracer_->span("session.run", "vedliot.runtime");
    run_span.attr("graph", graph_.name());
    run_span.attr("backend", int8 ? "int8" : "float-reference");
    run_span.attr("threads", static_cast<double>(threads_));
    run_span.attr("simd", std::string(util::simd_level_name(active_simd_)));
  }

  // The run's lane count is the feeds' leading dimension: 1 up to the
  // built batch and the max_batch cap, the same for every feed, every other
  // dimension exact. Each op then computes only those lanes — a prefix of
  // every buffer the plan laid out for the built batch.
  lanes_ = 0;
  for (NodeId id : inputs_) {
    const Node& n = graph_.node(id);
    const auto it = feeds.find(n.name);
    if (it == feeds.end()) throw ExecError("missing feed for input '" + n.name + "'");
    const Shape& got = it->second.shape();
    const Shape& built = n.out_shape;
    const std::int64_t lanes = got.rank() == built.rank() && got.rank() >= 1 ? got.dim(0) : 0;
    if (lanes < 1 || lanes > built.dim(0) || (lanes_ != 0 && lanes != lanes_) ||
        !std::equal(got.dims().begin() + 1, got.dims().end(), built.dims().begin() + 1)) {
      throw ExecError("feed shape mismatch for '" + n.name + "': expected " + built.to_string() +
                      " or fewer lanes, as many as every other feed, got " + got.to_string());
    }
    if (exec_.max_batch > 0 && lanes > exec_.max_batch) {
      throw ExecError("feed '" + n.name + "' batch " + std::to_string(lanes) +
                      " exceeds max_batch " + std::to_string(exec_.max_batch));
    }
    lanes_ = lanes;
    const std::size_t off = offset_[slot(id)];
    if (int8) {
      quantize_into(it->second.data(), scales_[slot(id)], buffer<std::int8_t>(off));
    } else {
      std::memcpy(buffer<float>(off), it->second.data().data(), it->second.data().size_bytes());
    }
    notify(id);
  }

  for (const Step& s : steps_) {
    run_step(s);
    notify(s.node->id);
  }
  nodes_executed_ = steps_.size();
  // Per-chunk saturation sums are order-independent, so saturations() is
  // identical for any thread count.
  for (const std::uint64_t sat : ws_.sat) saturations_ += sat;
  outputs_valid_ = true;

  if (metrics_ != nullptr) {
    metrics_->counter(runtime_detail::kRunsCounter).inc();
    metrics_->counter(runtime_detail::kNodesCounter).inc(nodes_executed_);
    metrics_->gauge(runtime_detail::kThreadsGauge).set(static_cast<double>(threads_));
    metrics_->gauge(runtime_detail::kArenaBytesGauge)
        .set(static_cast<double>(arena_stats_.arena_bytes));
    metrics_->gauge(runtime_detail::kArenaSavedGauge)
        .set(static_cast<double>(arena_stats_.naive_bytes - arena_stats_.arena_bytes));
    if (int8) {
      metrics_->gauge(runtime_detail::kSaturationsGauge).set(static_cast<double>(saturations_));
    }
  }
  if (tracer_ != nullptr) {
    run_span.attr("nodes_executed", static_cast<double>(nodes_executed_));
    run_span.close();
  }

  RunResult result;
  for (NodeId id : outputs_) {
    const Node& n = graph_.node(id);
    Tensor t(with_lanes(n.out_shape, lanes_));
    const auto out = t.data();
    const std::size_t off = offset_[slot(id)];
    if (int8) {
      dequantize_into(buffer<std::int8_t>(off), scales_[slot(id)], out);
    } else {
      std::memcpy(out.data(), buffer<float>(off), out.size_bytes());
    }
    result.outputs.emplace(n.name, std::move(t));
  }
  return result;
}

Tensor Session::run_single(const Tensor& input) {
  const auto inputs = graph_.inputs();
  VEDLIOT_CHECK(inputs.size() == 1, "run_single requires exactly one graph input");
  RunResult result = run({{graph_.node(inputs.front()).name, input}});
  VEDLIOT_CHECK(result.outputs.size() == 1, "run_single requires exactly one graph output");
  return std::move(result.outputs.begin()->second);
}

std::string Session::backend() const {
  return dtype_ == DType::kINT8 ? "int8" : "float-reference";
}

const std::byte* Session::readable(NodeId id, DType dtype) const {
  const bool output =
      outputs_valid_ && std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
  if ((id != observed_ && !output) || dtype != dtype_) {
    throw ExecError("node " + std::to_string(id) + " is not readable as " +
                    std::string(dtype_name(dtype)) + ": a " + std::string(dtype_name(dtype_)) +
                    " plan reads the observed node, or after a run the graph outputs");
  }
  return arena_.data() + offset_[slot(id)];
}

Tensor Session::value(NodeId id) const {
  const Shape s = with_lanes(graph_.node(id).out_shape, lanes_);
  auto* x = const_cast<float*>(reinterpret_cast<const float*>(readable(id, DType::kFP32)));
  return Tensor::view(s, {x, static_cast<std::size_t>(s.numel())});
}

QTensor Session::quantized(NodeId id) const {
  const Shape s = with_lanes(graph_.node(id).out_shape, lanes_);
  const auto* q = reinterpret_cast<const std::int8_t*>(readable(id, DType::kINT8));
  return {s, std::vector<std::int8_t>(q, q + s.numel()), scales_[slot(id)]};
}

void Session::run_step(const Step& s) {
  const Node& n = *s.node;
  obs::ScopedSpan span;
  if (tracer_ != nullptr) span = tracer_->span(n.name, std::string(op_name(n.kind)));
  const bool timed = metrics_ != nullptr;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  // The one dtype decision of the step: which policy the op body runs over.
  if (dtype_ == DType::kINT8) {
    run_op(s, S8Policy{s.bias.data(), s.requant.data(), s.q_lo, s.q_hi}, s.codes.data());
  } else {
    run_op(s, F32Policy{weight(n, 1), s.act, s.alpha}, weight(n, 0));
  }
  if (timed) {
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    runtime_detail::op_histogram(*metrics_, n.kind).add(seconds * 1e6);
  }
  if (tracer_ != nullptr) {
    span.attr("out_elems", static_cast<double>(lane_elems(n.out_shape) * lanes_));
    span.close();
  }
}

// ---------------------------------------------------------------------------
// Kernel bodies. Every parallel region adds the saturations its kernels
// count (int8; always 0 for f32) to the slot of its pool chunk.
// ---------------------------------------------------------------------------

template <typename P>
void Session::run_op(const Step& s, const P& p, const typename P::Elem* w) {
  using namespace runtime_kernels;
  using E = typename P::Elem;
  using G = GemmPath<P>;
  constexpr bool kF32 = std::is_same_v<P, F32Policy>;
  const Node& n = *s.node;
  const E* x = buffer<E>(s.in.at(0));
  E* y = buffer<E>(s.out);
  const Shape& in_shape = graph_.node(n.inputs[0]).out_shape;
  const std::int64_t lanes = lanes_;  // the run's, not the plan's built batch
  const std::int64_t numel = lane_elems(n.out_shape) * lanes;
  std::uint64_t* sat = ws_.sat.data();
  const MicrokernelTile tile = mk_ != nullptr ? mk_->*G::tile : MicrokernelTile{};
  // The one GEMM driver (s.gemm): C = W·X over group g's weights, X's (kp, j)
  // at xm[kp * ks + j * cs]. Untransposed, X's column panels pack as B and
  // W's row panels split over the pool; transposed, X's few columns pack as
  // A rows, W's column panels split and the tiles store in the other layout.
  // gemm_rows (portable) reads X row-major: a strided X goes to scratch.
  auto run_gemm = [&](std::int64_t g, const E* xm, std::int64_t ks, std::int64_t cs,
                      GemmStore<E> out, std::int64_t cols, const P& policy) {
    const std::int64_t m = s.gemm->m, k = s.gemm->k;
    if (mk_ == nullptr) {
      if (cs != 1) {
        E* xt = grow<E>(ws_.col, static_cast<std::size_t>(k * cols));
        for (std::int64_t j = 0; j < cols; ++j) {
          for (std::int64_t kp = 0; kp < k; ++kp) xt[kp * cols + j] = xm[kp * ks + j * cs];
        }
        xm = xt;
      }
      pfor(0, m, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        sat[chunk] += gemm_rows(w + g * m * k, xm, out, lo, hi, cols, k, policy);
      });
      return;
    }
    const auto kernel = mk_->*G::gemm;
    const auto group = static_cast<std::size_t>(g);
    if (!s.transposed) {
      const auto* pa = reinterpret_cast<const typename P::PackedA*>(s.packed.data()) +
                       group * G::a_size(m, k, tile);
      auto* pb = grow<typename P::PackedB>(ws_.panels, G::b_size(k, cols, tile));
      const std::int64_t col_panels = panel_count(cols, tile.nr);
      pfor(0, col_panels, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
        G::pack_b(xm, k, cols, ks, cs, tile, lo, hi, pb);
      });
      pfor(0, panel_count(m, tile.mr), 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        sat[chunk] += kernel(pa, pb, m, cols, k, out, {lo, hi, 0, col_panels}, policy);
      });
      return;
    }
    const auto* pb = reinterpret_cast<const typename P::PackedB*>(s.packed.data()) +
                     group * G::b_size(k, m, tile);
    auto* pa = grow<typename P::PackedA>(ws_.panels, G::a_size(cols, k, tile));
    G::pack_a(xm, cols, k, cs, ks, tile, pa);
    const std::int64_t row_panels = panel_count(cols, tile.mr);
    out.col_major = !out.col_major;
    out.channel_on_cols = true;
    pfor(0, panel_count(m, tile.nr), 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
      sat[chunk] += kernel(pa, pb, cols, m, k, out, {0, row_panels, lo, hi}, policy);
    });
  };
  switch (n.kind) {
    case OpKind::kConv2d: {
      const Conv2dGeometry& geo = s.conv;
      if (!s.gemm) {
        // Depthwise: the row sweep at every dispatch level (no GEMM shape),
        // so portable and SIMD runs share these exact bits.
        for (std::int64_t b = 0; b < lanes; ++b) {
          pfor(0, geo.out_c, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
            sat[chunk] += depthwise(x, w, y, geo, b, lo, hi, p);
          });
        }
        break;
      }
      // Per lane and group: X is the im2col matrix or, 1x1, the input planes.
      const std::int64_t m = s.gemm->m, k = s.gemm->k, cols = s.gemm->cols;
      E* col = geo.is_pointwise() ? nullptr : grow<E>(ws_.col, static_cast<std::size_t>(k * cols));
      for (std::int64_t b = 0; b < lanes; ++b) {
        for (std::int64_t g = 0; g < geo.groups; ++g) {
          const E* xm = col;
          if (geo.is_pointwise()) {
            xm = x + (b * geo.in_c + g * geo.icg()) * cols;
          } else {
            pfor(0, k, 4, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
              im2col(x, geo, b, g, lo, hi, col);
            });
          }
          const GemmStore<E> out{y + (b * geo.out_c + g * m) * cols, cols};
          run_gemm(g, xm, cols, 1, out, cols, p.from(g * m));
        }
      }
      break;
    }
    case OpKind::kDense:
      // One GEMM over every lane: X is the [lanes x features] input in place,
      // C the [lanes x units] output. Each lane is a column zero-padded to the
      // full tile, so its bits are the same in a batch-1 or a batch-8 run.
      run_gemm(0, x, 1, s.gemm->k, {y, s.gemm->m, true}, lanes, p);
      break;
    case OpKind::kBatchNorm:
      if constexpr (kF32) {
        const std::int64_t C = static_cast<std::int64_t>(s.bn_scale.size());
        const std::int64_t spatial = numel / (lanes * C);
        pfor(0, lanes * C, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t bc = lo; bc < hi; ++bc) {
            const float scale = s.bn_scale[static_cast<std::size_t>(bc % C)];
            const float shift = s.bn_shift[static_cast<std::size_t>(bc % C)];
            for (std::int64_t i = bc * spatial; i < (bc + 1) * spatial; ++i) {
              y[i] = x[i] * scale + shift;
            }
          }
        });
      }
      break;
    case OpKind::kRelu:
    case OpKind::kRelu6:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kHSigmoid:
    case OpKind::kHSwish:
    case OpKind::kMish:
    case OpKind::kTanh:
    case OpKind::kFlatten:
    case OpKind::kIdentity:
      // f32 applies the op's own activation (none for the copies); int8
      // rescales into the step's clamp window, which is the Relu/Relu6.
      pfor(0, numel, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        sat[chunk] += p.eltwise(x + lo, nullptr, y + lo, hi - lo);
      });
      break;
    case OpKind::kAdd:
    case OpKind::kMul: {
      const E* x1 = buffer<E>(s.in.at(1));
      const Shape& s1 = graph_.node(n.inputs[1]).out_shape;
      if (n.kind == OpKind::kAdd && in_shape == s1) {
        pfor(0, numel, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
          sat[chunk] += p.eltwise(x + lo, x1 + lo, y + lo, hi - lo);
        });
        break;
      }
      if constexpr (kF32) {  // Mul, and the f32-only channelwise broadcast
        const bool mul = n.kind == OpKind::kMul;
        if (in_shape == s1) {
          pfor(0, numel, 4096, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
            for (std::int64_t i = lo; i < hi; ++i) y[i] = x[i] * x1[i];
          });
          break;
        }
        // One side is [N,C,1,1].
        const bool first_big = in_shape.numel() >= s1.numel();
        const float* big = first_big ? x : x1;
        const float* vec = first_big ? x1 : x;
        const std::int64_t spatial = n.out_shape.h() * n.out_shape.w();
        const std::int64_t planes = lanes * n.out_shape.c();
        pfor(0, planes, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t) {
          for (std::int64_t bc = lo; bc < hi; ++bc) {
            const float v = vec[bc];
            const float* xr = big + bc * spatial;
            float* yr = y + bc * spatial;
            if (mul) {
              for (std::int64_t i = 0; i < spatial; ++i) yr[i] = xr[i] * v;
            } else {
              for (std::int64_t i = 0; i < spatial; ++i) yr[i] = xr[i] + v;
              if (p.act != OpKind::kIdentity) p.eltwise(yr, nullptr, yr, spatial);  // fused
            }
          }
        });
      }
      break;
    }
    case OpKind::kConcat: {
      // Channel concat: each input is one contiguous block per batch lane
      // (int8 runs batch 1 only, checked at compile).
      const std::int64_t row = numel / lanes;
      std::int64_t off = 0;
      for (std::size_t i = 0; i < s.in.size(); ++i) {
        const E* src = buffer<E>(s.in[i]);
        const std::int64_t block = lane_elems(graph_.node(n.inputs[i]).out_shape);
        for (std::int64_t b = 0; b < lanes; ++b) {
          sat[0] += p.eltwise(src + b * block, nullptr, y + b * row + off, block, i);
        }
        off += block;
      }
      break;
    }
    case OpKind::kMaxPool:
    case OpKind::kAvgPool:
    case OpKind::kGlobalAvgPool: {
      const std::int64_t planes = lanes * s.conv.in_c;
      pfor(0, planes, 1, [&](std::int64_t lo, std::int64_t hi, std::size_t chunk) {
        sat[chunk] += pool(x, y, s.conv, n.kind == OpKind::kMaxPool, lo, hi, p);
      });
      break;
    }
    case OpKind::kUpsample:
      if constexpr (kF32) {
        const std::int64_t OH = n.out_shape.h(), OW = n.out_shape.w();
        const std::int64_t IH = in_shape.h(), IW = in_shape.w();
        for (std::int64_t bc = 0; bc < lanes * n.out_shape.c(); ++bc) {
          for (std::int64_t oh = 0; oh < OH; ++oh) {
            for (std::int64_t ow = 0; ow < OW; ++ow) {
              y[(bc * OH + oh) * OW + ow] = x[(bc * IH + oh / s.upsample) * IW + ow / s.upsample];
            }
          }
        }
      }
      break;
    case OpKind::kSoftmax: {
      if constexpr (kF32) {
        std::memcpy(y, x, static_cast<std::size_t>(numel) * sizeof(float));
        softmax_rows(y, lanes, numel / lanes);
      } else {
        // Dequantize, float softmax, requantize: how int8 runtimes typically
        // treat the final softmax (TFLite uses a LUT; float is the reference).
        const std::span<float> f{grow<float>(ws_.col, static_cast<std::size_t>(numel)),
                                 static_cast<std::size_t>(numel)};
        dequantize_into(x, s.in_scale, f);
        softmax_rows(f.data(), lanes, numel / lanes);
        sat[0] += quantize_into(f, s.out_scale, y);
      }
      break;
    }
    case OpKind::kInput:  // the plan compiles no Input step
      VEDLIOT_ASSERT(n.kind != OpKind::kInput);
  }
}

std::unique_ptr<Session> make_session(const Graph& graph, const RunOptions& options) {
  return std::make_unique<Session>(graph, DType::kFP32, options);
}

std::unique_ptr<Session> make_quantized_session(const Graph& graph,
                                                const RunOptions& options) {
  return std::make_unique<Session>(graph, DType::kINT8, options);
}

}  // namespace vedliot::runtime
