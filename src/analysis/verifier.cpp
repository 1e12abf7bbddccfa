#include "analysis/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "util/error.hpp"

namespace vedliot::analysis {

namespace {

// ---------------------------------------------------------------------------
// Per-OpKind contracts
// ---------------------------------------------------------------------------

enum class AttrType { kInt, kFloat, kStr, kInts };

struct AttrSpec {
  const char* name;
  AttrType type;
  bool required;
};

struct OpContract {
  std::size_t min_inputs;
  std::size_t max_inputs;  // SIZE_MAX for variadic (Concat)
  std::vector<AttrSpec> attrs;
};

constexpr std::size_t kVariadic = static_cast<std::size_t>(-1);

/// Attributes legal on every op. act_scale is stamped onto all live nodes by
/// calibrate_activations; the fusion tags are legal only on Conv2d/Dense
/// (and fused_act on Add) and get their own specs there.
const std::vector<AttrSpec>& common_attrs() {
  static const std::vector<AttrSpec> kCommon = {
      {"act_scale", AttrType::kFloat, false},
  };
  return kCommon;
}

const OpContract& contract_for(OpKind kind) {
  static const std::map<OpKind, OpContract> kContracts = [] {
    std::map<OpKind, OpContract> m;
    const std::vector<AttrSpec> fusable = {
        {"fused_act", AttrType::kStr, false},   {"fused_alpha", AttrType::kFloat, false},
        {"fused_bn", AttrType::kInt, false},    {"pruned_out_channels", AttrType::kInt, false},
        {"bias", AttrType::kInt, false},
    };
    OpContract conv{1, 1, {{"out_channels", AttrType::kInt, true},
                           {"kernel", AttrType::kInt, true},
                           {"stride", AttrType::kInt, false},
                           {"pad", AttrType::kInt, false},
                           {"groups", AttrType::kInt, false}}};
    conv.attrs.insert(conv.attrs.end(), fusable.begin(), fusable.end());
    m[OpKind::kConv2d] = std::move(conv);

    OpContract dense{1, 1, {{"units", AttrType::kInt, true}}};
    dense.attrs.insert(dense.attrs.end(), fusable.begin(), fusable.end());
    m[OpKind::kDense] = std::move(dense);

    m[OpKind::kInput] = {0, 0, {}};
    m[OpKind::kBatchNorm] = {1, 1, {{"epsilon", AttrType::kFloat, false}}};
    m[OpKind::kLeakyRelu] = {1, 1, {{"alpha", AttrType::kFloat, false}}};
    for (OpKind k : {OpKind::kRelu, OpKind::kRelu6, OpKind::kSigmoid, OpKind::kHSigmoid,
                     OpKind::kHSwish, OpKind::kMish, OpKind::kTanh, OpKind::kSoftmax,
                     OpKind::kFlatten, OpKind::kIdentity, OpKind::kGlobalAvgPool}) {
      m[k] = {1, 1, {}};
    }
    m[OpKind::kAdd] = {2, 2, {{"fused_act", AttrType::kStr, false}}};
    m[OpKind::kMul] = {2, 2, {}};
    m[OpKind::kConcat] = {2, kVariadic, {{"axis", AttrType::kInt, false}}};
    const OpContract pool{1, 1, {{"kernel", AttrType::kInt, true},
                                 {"stride", AttrType::kInt, false},
                                 {"pad", AttrType::kInt, false}}};
    m[OpKind::kMaxPool] = pool;
    m[OpKind::kAvgPool] = pool;
    m[OpKind::kUpsample] = {1, 1, {{"scale", AttrType::kInt, true}}};
    return m;
  }();
  auto it = kContracts.find(kind);
  VEDLIOT_ASSERT(it != kContracts.end());
  return it->second;
}

const char* attr_type_name(AttrType t) {
  switch (t) {
    case AttrType::kInt:
      return "int";
    case AttrType::kFloat:
      return "float";
    case AttrType::kStr:
      return "str";
    case AttrType::kInts:
      return "ints";
  }
  return "?";
}

bool attr_type_matches(const AttrValue& v, AttrType t) {
  switch (t) {
    case AttrType::kInt:
      return std::holds_alternative<std::int64_t>(v);
    case AttrType::kFloat:
      return std::holds_alternative<double>(v);
    case AttrType::kStr:
      return std::holds_alternative<std::string>(v);
    case AttrType::kInts:
      return std::holds_alternative<std::vector<std::int64_t>>(v);
  }
  return false;
}

/// Domain constraint for a (well-typed) attribute value; empty string = ok.
std::string attr_value_problem(const std::string& name, const AttrValue& v) {
  auto ival = [&]() { return std::get<std::int64_t>(v); };
  auto fval = [&]() { return std::get<double>(v); };
  if (name == "out_channels" || name == "kernel" || name == "units" || name == "groups" ||
      name == "stride" || name == "pruned_out_channels") {
    if (ival() < 1) return name + " must be >= 1, got " + std::to_string(ival());
  } else if (name == "pad" || name == "axis") {
    if (ival() < 0) return name + " must be >= 0, got " + std::to_string(ival());
  } else if (name == "scale") {
    if (ival() < 1) return "scale must be >= 1, got " + std::to_string(ival());
  } else if (name == "bias" || name == "fused_bn") {
    if (ival() != 0 && ival() != 1) return name + " must be 0 or 1, got " + std::to_string(ival());
  } else if (name == "epsilon") {
    if (!(fval() > 0.0) || !std::isfinite(fval())) return "epsilon must be finite and > 0";
  } else if (name == "act_scale") {
    if (!(fval() > 0.0) || !std::isfinite(fval())) return "act_scale must be finite and > 0";
  } else if (name == "alpha" || name == "fused_alpha") {
    if (!std::isfinite(fval())) return name + " must be finite";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Group passes
// ---------------------------------------------------------------------------

struct Context {
  const Graph& g;
  std::vector<NodeId> live;
  /// Nodes with structural defects; weight/shape checks skip them because
  /// their contracts can't be evaluated meaningfully.
  std::set<NodeId> broken;
};

bool inputs_in_range(const Graph& g, const Node& n) {
  return std::all_of(n.inputs.begin(), n.inputs.end(), [&](NodeId in) {
    return in >= 0 && static_cast<std::size_t>(in) < g.total_nodes();
  });
}

void check_ir(Context& ctx, Report& rep) {
  const Graph& g = ctx.g;

  if (g.inputs().empty()) {
    rep.add(Severity::kError, "ir.graph.no_inputs", "graph has no live Input nodes");
  }
  if (g.outputs().empty()) {
    rep.add(Severity::kError, "ir.graph.no_outputs", "graph has no outputs (all nodes consumed)");
  }

  std::map<std::string, NodeId> names;
  for (NodeId id : ctx.live) {
    const Node& n = g.node(id);

    if (n.name.empty()) {
      rep.add(Severity::kWarning, "ir.name.empty", n, "node has an empty name");
    } else {
      auto [it, inserted] = names.emplace(n.name, id);
      if (!inserted) {
        rep.add(Severity::kWarning, "ir.name.duplicate", n,
                "name also used by live node #" + std::to_string(it->second) +
                    "; find() resolves to the first");
      }
    }

    // Edge validity.
    for (NodeId in : n.inputs) {
      if (in < 0 || static_cast<std::size_t>(in) >= g.total_nodes()) {
        rep.add(Severity::kError, "ir.input.range", n,
                "references out-of-range input id " + std::to_string(in));
        ctx.broken.insert(id);
        continue;
      }
      if (in >= n.id) {
        rep.add(Severity::kError, "ir.input.order", n,
                "input id " + std::to_string(in) + " violates topological id order");
        ctx.broken.insert(id);
      }
      if (g.node(in).dead) {
        rep.add(Severity::kError, "ir.input.dead", n,
                "consumes dead node " + g.node(in).name);
        ctx.broken.insert(id);
      }
    }

    // Arity.
    const OpContract& c = contract_for(n.kind);
    if (n.inputs.size() < c.min_inputs ||
        (c.max_inputs != kVariadic && n.inputs.size() > c.max_inputs)) {
      std::string want = c.max_inputs == kVariadic
                             ? ">= " + std::to_string(c.min_inputs)
                             : (c.min_inputs == c.max_inputs
                                    ? std::to_string(c.min_inputs)
                                    : std::to_string(c.min_inputs) + ".." +
                                          std::to_string(c.max_inputs));
      rep.add(Severity::kError, "ir.arity", n,
              std::string(op_name(n.kind)) + " expects " + want + " inputs, got " +
                  std::to_string(n.inputs.size()));
      ctx.broken.insert(id);
    }

    // Attribute schema: required presence, type, value domain, unknown keys.
    std::set<std::string> known;
    auto check_spec = [&](const AttrSpec& spec) {
      known.insert(spec.name);
      if (!n.attrs.has(spec.name)) {
        if (spec.required) {
          rep.add(Severity::kError, "ir.attr.missing", n,
                  std::string(op_name(n.kind)) + " requires attr '" + spec.name + "'");
          ctx.broken.insert(id);
        }
        return;
      }
      const AttrValue& v = n.attrs.raw().at(spec.name);
      if (!attr_type_matches(v, spec.type)) {
        rep.add(Severity::kError, "ir.attr.type", n,
                "attr '" + std::string(spec.name) + "' must be " + attr_type_name(spec.type));
        ctx.broken.insert(id);
        return;
      }
      const std::string problem = attr_value_problem(spec.name, v);
      if (!problem.empty()) {
        rep.add(Severity::kError, "ir.attr.value", n, problem);
        ctx.broken.insert(id);
      }
    };
    for (const AttrSpec& spec : c.attrs) check_spec(spec);
    for (const AttrSpec& spec : common_attrs()) check_spec(spec);
    for (const auto& [key, value] : n.attrs.raw()) {
      if (!known.count(key)) {
        rep.add(Severity::kWarning, "ir.attr.unknown", n,
                "attr '" + key + "' is not part of the " + std::string(op_name(n.kind)) +
                    " contract");
      }
    }

    // Shapes. Input nodes carry a user-provided shape: require positive dims.
    if (n.kind == OpKind::kInput) {
      const auto& dims = n.out_shape.dims();
      if (dims.empty() ||
          std::any_of(dims.begin(), dims.end(), [](std::int64_t d) { return d <= 0; })) {
        rep.add(Severity::kError, "ir.shape.invalid", n,
                "Input shape " + n.out_shape.to_string() + " has non-positive dims");
        ctx.broken.insert(id);
      }
    } else if (!ctx.broken.count(id) && inputs_in_range(g, n)) {
      try {
        const Shape s = g.inferred_shape(id);
        if (!(s == n.out_shape)) {
          rep.add(Severity::kError, "ir.shape.stale", n,
                  "stored shape " + n.out_shape.to_string() + " != inferred " + s.to_string());
        }
      } catch (const Error& e) {
        rep.add(Severity::kError, "ir.shape.invalid", n, e.what());
        ctx.broken.insert(id);
      }
    }
  }

  // Unused graph inputs (they show up as outputs(), which is almost
  // certainly unintended) and unreachable interior nodes.
  std::set<NodeId> reachable;
  std::vector<NodeId> frontier = g.inputs();
  for (NodeId id : frontier) reachable.insert(id);
  while (!frontier.empty()) {
    const NodeId id = frontier.back();
    frontier.pop_back();
    for (NodeId c : g.consumers(id)) {
      if (reachable.insert(c).second) frontier.push_back(c);
    }
  }
  for (NodeId id : ctx.live) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::kInput && g.consumers(id).empty()) {
      rep.add(Severity::kWarning, "ir.input.unused", n, "graph input has no consumers");
    }
    if (!reachable.count(id)) {
      rep.add(Severity::kWarning, "ir.unreachable", n,
              "not reachable from any graph input");
    }
  }
}

Shape weight_shape_for(const Graph& g, const Node& n, std::size_t index) {
  const Shape& in = g.node(n.inputs.at(0)).out_shape;
  switch (n.kind) {
    case OpKind::kConv2d: {
      const auto oc = n.attrs.get_int("out_channels");
      const auto k = n.attrs.get_int("kernel");
      const auto grp = n.attrs.get_int_or("groups", 1);
      return index == 0 ? Shape{oc, in.c() / grp, k, k} : Shape{oc};
    }
    case OpKind::kDense: {
      const auto units = n.attrs.get_int("units");
      return index == 0 ? Shape{units, in.dim(1)} : Shape{units};
    }
    case OpKind::kBatchNorm: {
      const std::int64_t c = in.rank() == 4 ? in.c() : in.dim(1);
      return Shape{c};
    }
    default:
      VEDLIOT_ASSERT(false && "weight_shape_for on non-parametric op");
  }
  return Shape{};
}

void check_weights(const Context& ctx, Report& rep) {
  const Graph& g = ctx.g;
  std::size_t parametric = 0, materialized = 0;

  for (NodeId id : ctx.live) {
    const Node& n = g.node(id);

    if (!op_has_weights(n.kind)) {
      if (!n.weights.empty()) {
        rep.add(Severity::kError, "weight.unexpected", n,
                std::string(op_name(n.kind)) + " carries " + std::to_string(n.weights.size()) +
                    " weight tensors but owns no parameters");
      }
      continue;
    }

    ++parametric;
    if (n.weights.empty()) {
      if (n.weight_dtype != DType::kFP32) {
        rep.add(Severity::kWarning, "weight.dtype", n,
                "weight_dtype is " + std::string(dtype_name(n.weight_dtype)) +
                    " but weights are not materialized");
      }
      continue;
    }
    ++materialized;
    if (ctx.broken.count(id)) continue;  // contract unevaluable

    // Expected tensor count from the bias attr.
    const bool has_bias = n.attrs.get_int_or("bias", 1) != 0;
    std::size_t want = 0;
    switch (n.kind) {
      case OpKind::kConv2d:
      case OpKind::kDense:
        want = has_bias ? 2 : 1;
        break;
      case OpKind::kBatchNorm:
        want = 4;
        break;
      default:
        break;
    }
    if (n.weights.size() != want) {
      const bool bias_mismatch =
          (n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) &&
          (n.weights.size() == 1 || n.weights.size() == 2);
      rep.add(Severity::kError, bias_mismatch ? "weight.bias" : "weight.count", n,
              "expected " + std::to_string(want) + " weight tensors (bias=" +
                  std::to_string(has_bias ? 1 : 0) + "), got " +
                  std::to_string(n.weights.size()));
      continue;
    }

    for (std::size_t i = 0; i < n.weights.size(); ++i) {
      const Shape expect = weight_shape_for(g, n, i);
      if (!(n.weights[i].shape() == expect)) {
        rep.add(Severity::kError, "weight.shape", n,
                "weight[" + std::to_string(i) + "] shape " + n.weights[i].shape().to_string() +
                    " != expected " + expect.to_string());
      }
    }
    for (std::size_t i = 0; i < n.weights.size(); ++i) {
      for (float v : n.weights[i].data()) {
        if (!std::isfinite(v)) {
          rep.add(Severity::kError, "weight.nonfinite", n,
                  "weight[" + std::to_string(i) + "] contains NaN/Inf values");
          break;
        }
      }
    }
  }

  if (materialized > 0 && materialized < parametric) {
    rep.add(Severity::kWarning, "weight.partial",
            std::to_string(materialized) + " of " + std::to_string(parametric) +
                " parametric nodes have materialized weights");
  }
}

void check_quant(const Context& ctx, Report& rep) {
  const Graph& g = ctx.g;
  std::size_t with_scale = 0;
  for (NodeId id : ctx.live) {
    if (g.node(id).attrs.has("act_scale")) ++with_scale;
  }
  const bool calibrated = with_scale > 0;

  for (NodeId id : ctx.live) {
    const Node& n = g.node(id);
    if (calibrated && !n.attrs.has("act_scale")) {
      rep.add(Severity::kError, "quant.act_scale.missing", n,
              "graph is calibrated but this node has no act_scale (the int8 "
              "executor will throw)");
    }
    if (n.attrs.has("act_scale") &&
        std::holds_alternative<double>(n.attrs.raw().at("act_scale"))) {
      const double s = n.attrs.get_float("act_scale");
      if (!(s > 0.0) || !std::isfinite(s)) {
        rep.add(Severity::kError, "quant.act_scale.value", n,
                "act_scale must be finite and > 0, got " + std::to_string(s));
      }
    }
    if (n.weight_dtype != DType::kFP32 && !op_has_weights(n.kind)) {
      rep.add(Severity::kWarning, "quant.weight_dtype.dangling", n,
              "weight_dtype " + std::string(dtype_name(n.weight_dtype)) +
                  " on an op without parameters");
    }
    if (calibrated) {
      const std::string fused = n.attrs.get_str_or("fused_act", "");
      if (!fused.empty() && fused != "Relu" && fused != "Relu6") {
        rep.add(Severity::kWarning, "quant.fused_act.unsupported", n,
                "int8 executor only supports fused Relu/Relu6, found '" + fused + "'");
      }
    }
  }
}

void check_fusion(const Context& ctx, Report& rep) {
  const Graph& g = ctx.g;
  for (NodeId id : ctx.live) {
    const Node& n = g.node(id);
    const bool fusable = n.kind == OpKind::kConv2d || n.kind == OpKind::kDense;

    if (n.attrs.has("fused_act") &&
        std::holds_alternative<std::string>(n.attrs.raw().at("fused_act"))) {
      const std::string& act = n.attrs.get_str("fused_act");
      const bool add_clamp = n.kind == OpKind::kAdd && (act == "Relu" || act == "Relu6");
      if (!fusable && !add_clamp) {
        rep.add(Severity::kError, "fusion.fused_act.misplaced", n,
                "fused_act tag on " + std::string(op_name(n.kind)) +
                    "; Conv2d/Dense execute any fused activation, Add only Relu/Relu6");
      }
      bool valid = false;
      try {
        valid = op_is_activation(parse_op(act));
      } catch (const Error&) {
        valid = false;
      }
      if (!valid) {
        rep.add(Severity::kError, "fusion.fused_act.invalid", n,
                "fused_act '" + act + "' is not an activation op name");
      }
    }

    if (n.attrs.has("fused_alpha") &&
        n.attrs.get_str_or("fused_act", "") != "LeakyRelu") {
      rep.add(Severity::kWarning, "fusion.fused_alpha.dangling", n,
              "fused_alpha without fused_act=LeakyRelu has no effect");
    }

    if (n.attrs.get_int_or("fused_bn", 0) != 0) {
      if (!fusable) {
        rep.add(Severity::kError, "fusion.fused_bn.misplaced", n,
                "fused_bn tag on " + std::string(op_name(n.kind)));
      } else if (n.attrs.get_int_or("bias", 1) == 0) {
        rep.add(Severity::kError, "fusion.fused_bn.bias", n,
                "fused_bn=1 requires bias=1: the folded BatchNorm shift needs a "
                "bias tensor to live in");
      }
    }
  }
}

void check_memory(const Context& ctx, Report& rep) {
  try {
    const Dataflow df = Dataflow::compute(ctx.g);
    std::size_t single = 0, valued = 0;
    for (const LiveInterval& iv : df.intervals()) {
      const std::size_t uses = df.consumers(iv.node).size();
      if (uses > 0) {
        ++valued;
        if (uses == 1) ++single;
      }
    }
    rep.add(Severity::kNote, "memory.peak",
            "peak live activation set: " + std::to_string(df.peak_live_bytes()) + " bytes (fp32)");
    rep.add(Severity::kNote, "memory.traffic",
            "total def->use edge traffic: " + std::to_string(df.total_edge_bytes()) +
                " bytes (fp32)");
    if (valued > 0) {
      rep.add(Severity::kNote, "memory.reuse",
              std::to_string(single) + " of " + std::to_string(valued) +
                  " consumed values are single-use (in-place candidates)");
    }
  } catch (const Error& e) {
    rep.add(Severity::kError, "memory.dataflow",
            std::string("dataflow analysis failed: ") + e.what());
  }
}

}  // namespace

VerifyOptions parse_check_groups(std::string_view csv) {
  VerifyOptions opts = VerifyOptions::none();
  std::string token;
  std::istringstream in{std::string(csv)};
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    if (token == "ir") {
      opts.ir = true;
    } else if (token == "weights") {
      opts.weights = true;
    } else if (token == "quant") {
      opts.quant = true;
    } else if (token == "fusion") {
      opts.fusion = true;
    } else if (token == "memory") {
      opts.memory = true;
    } else if (token == "all") {
      opts = VerifyOptions::all();
    } else {
      throw InvalidArgument("unknown check group '" + token +
                            "' (expected ir,weights,quant,fusion,memory,all)");
    }
  }
  return opts;
}

Report verify_graph(const Graph& g, const VerifyOptions& opts) {
  Report rep;
  Context ctx{g, g.topo_order(), {}};

  // The IR pass always computes the broken-node set so later groups can skip
  // structurally unevaluable nodes; its findings are dropped when disabled.
  Report ir_rep;
  check_ir(ctx, ir_rep);
  const bool ir_ok = ir_rep.ok();
  const std::string ir_summary = ir_rep.summary();
  if (opts.ir) rep.merge(std::move(ir_rep));

  if (opts.weights) check_weights(ctx, rep);
  if (opts.quant) check_quant(ctx, rep);
  if (opts.fusion) check_fusion(ctx, rep);
  // Dataflow needs a structurally sound graph; on IR errors report the
  // blocker instead of tripping internal checks.
  if (opts.memory) {
    if (ir_ok) {
      check_memory(ctx, rep);
    } else {
      rep.add(Severity::kWarning, "memory.dataflow",
              "skipped: graph has IR errors (" + ir_summary + ")");
    }
  }
  return rep;
}

void verify_or_throw(const Graph& g, const VerifyOptions& opts) {
  const Report rep = verify_graph(g, opts);
  if (!rep.ok()) {
    throw GraphError("IR verification failed for graph '" + g.name() + "' (" + rep.summary() +
                     "):\n" + rep.to_table());
  }
}

}  // namespace vedliot::analysis
