/// \file vedliot_lint.cpp
/// \brief `vedliot-lint` — static analysis CLI over graph IR files.
///
/// Loads a model (binary package or text graph, sniffed by magic), runs the
/// named check groups and prints findings as a human table or JSON lines.
/// Exit code 0 = no error-severity findings, 1 = errors found, 2 = usage or
/// load failure. `--selftest` seeds one corrupt graph per defect class and
/// verifies the expected check_id fires, so CI can prove the verifier works
/// without shipping corrupt fixture files.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "analysis/wasm_verifier.hpp"
#include "graph/package.hpp"
#include "graph/serialize.hpp"
#include "graph/zoo.hpp"
#include "opt/quantize.hpp"
#include "runtime/memory_planner.hpp"
#include "security/kvstore.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace vedliot;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --model <path>      load a model package (VMDL) or text graph file\n"
      << "  --zoo <name>        build a zoo model instead of loading a file\n"
      << "                      (resnet50, mobilenet_v3, yolov4, efficientnet_lite0, ...)\n"
      << "  --checks <groups>   comma list: ir,weights,quant,fusion,memory,all (default all)\n"
      << "  --format <fmt>      table (default) or jsonl\n"
      << "  --materialize       materialize weights before linting\n"
      << "  --save <path>       write the loaded/built model as a package and exit\n"
      << "  --selftest          seed corrupt graphs, assert expected check ids\n"
      << "  --wasm              verify a WASM tenant module instead of a graph\n"
      << "  --wmod <name>       builtin module: kv, kvbench, add, spin\n"
      << "                      (--wasm --selftest seeds one defect module per\n"
      << "                       wasm.* check class and asserts each id fires)\n"
      << "exit: 0 clean, 1 error findings, 2 usage/load failure\n";
  return 2;
}

Graph build_zoo(const std::string& name) {
  if (name == "resnet50") return zoo::resnet50();
  if (name == "mobilenet_v3") return zoo::mobilenet_v3_large();
  if (name == "yolov4") return zoo::yolov4();
  if (name == "efficientnet_lite0") return zoo::efficientnet_lite0();
  if (name == "gesture_net") return zoo::gesture_net();
  if (name == "face_net") return zoo::face_net();
  if (name == "object_det_net") return zoo::object_det_net();
  if (name == "speech_net") return zoo::speech_net();
  if (name == "motor_net") return zoo::motor_net();
  if (name == "arc_net") return zoo::arc_net();
  if (name == "pedestrian_net") return zoo::pedestrian_net();
  throw NotFound("unknown zoo model: " + name);
}

Graph load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw NotFound("cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  // Sniff: binary packages start with the VMDL magic, text graphs with "graph ".
  constexpr std::uint32_t kMagic = 0x4C444D56;
  if (bytes.size() >= 4) {
    std::uint32_t magic = 0;
    std::memcpy(&magic, bytes.data(), 4);
    if (magic == kMagic) return unpack_model(bytes);
  }
  return from_text(std::string(bytes.begin(), bytes.end()));
}

/// Cross-check the arena plan against the liveness intervals: every pair of
/// lifetime-overlapping buffers must be disjoint in address space. This is
/// the one memory check that needs the runtime planner, so it lives in the
/// CLI (which links everything) rather than in vedliot_analysis.
void cross_check_memory(const Graph& g, analysis::Report& rep) {
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  if (!plan_is_valid(plan)) {
    rep.add(analysis::Severity::kError, "memory.plan.invalid",
            "greedy arena plan has overlapping live buffers");
  } else {
    rep.add(analysis::Severity::kNote, "memory.plan",
            "arena " + std::to_string(plan.arena_bytes) + " bytes vs naive " +
                std::to_string(plan.naive_bytes) + " bytes");
  }
}

struct SelftestCase {
  const char* name;
  const char* expected_check;
  Graph (*make)();
};

Graph corrupt_arity() {
  Graph g = zoo::micro_mlp("selftest-arity", 1, 8, {16}, 4);
  // A Relu with two inputs violates the unary contract.
  Node& relu = g.node(g.find("relu0"));
  relu.inputs.push_back(relu.inputs.front());
  g.touch();
  return g;
}

Graph corrupt_dead_input() {
  Graph g = zoo::micro_mlp("selftest-dead", 1, 8, {16}, 4);
  g.node(g.find("fc0")).dead = true;
  g.touch();
  return g;
}

Graph corrupt_weight_shape() {
  Graph g = zoo::micro_mlp("selftest-wshape", 1, 8, {16}, 4);
  Rng rng(7);
  g.materialize_weights(rng);
  Node& fc = g.node(g.find("fc0"));
  fc.weights[0] = Tensor(Shape{3, 3});  // anything but [16, 8]
  g.touch();
  return g;
}

Graph corrupt_missing_act_scale() {
  Graph g = zoo::micro_mlp("selftest-actscale", 1, 8, {16}, 4);
  Rng rng(7);
  g.materialize_weights(rng);
  std::vector<Tensor> samples;
  Tensor s(Shape{1, 8});
  s.fill(0.5f);
  samples.push_back(std::move(s));
  opt::calibrate_activations(g, samples);
  // An INT8 graph where one node lost its scale: the int8 executor throws.
  g.node(g.find("fc0")).attrs.erase("act_scale");
  g.touch();
  return g;
}

Graph corrupt_fused_act() {
  Graph g = zoo::micro_mlp("selftest-fusedact", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.set_str("fused_act", "Gelu6");
  g.touch();
  return g;
}

Graph corrupt_add_fused_act() {
  // An Add executes a fused Relu/Relu6 only; any other tag is misplaced.
  Graph g("selftest-addact");
  const NodeId x = g.add_input("x", Shape{1, 8});
  const NodeId relu = g.add(OpKind::kRelu, "relu", {x});
  AttrMap a;
  a.set_str("fused_act", "Sigmoid");
  g.add(OpKind::kAdd, "residual", {x, relu}, std::move(a));
  return g;
}

int run_selftest() {
  const SelftestCase cases[] = {
      {"bad-arity", "ir.arity", corrupt_arity},
      {"dangling-input", "ir.input.dead", corrupt_dead_input},
      {"wrong-weight-shape", "weight.shape", corrupt_weight_shape},
      {"int8-missing-act-scale", "quant.act_scale.missing", corrupt_missing_act_scale},
      {"invalid-fused-act", "fusion.fused_act.invalid", corrupt_fused_act},
      {"misplaced-add-fused-act", "fusion.fused_act.misplaced", corrupt_add_fused_act},
  };
  int failures = 0;
  for (const auto& c : cases) {
    const analysis::Report rep = analysis::verify_graph(c.make());
    const bool hit = rep.has(c.expected_check) && !rep.ok();
    std::cout << (hit ? "PASS" : "FAIL") << "  " << c.name << "  expects " << c.expected_check
              << "  (" << rep.summary() << ")\n";
    if (!hit) ++failures;
  }
  if (failures != 0) {
    std::cerr << failures << " selftest case(s) did not report the expected check id\n";
    return 1;
  }
  std::cout << "selftest: all defect classes detected\n";
  return 0;
}

// ---------------------------------------------------------------------------
// WASM mode: static bytecode verification of tenant modules
// ---------------------------------------------------------------------------

using security::WModule;
using security::WOp;

WModule wasm_add_module() {
  WModule m;
  m.code = {{WOp::kLocalGet, 0}, {WOp::kLocalGet, 1}, {WOp::kAdd, 0}, {WOp::kRet, 0}};
  m.functions = {{"add", 0, 2, 2, true}};
  return m;
}

WModule wasm_spin_module() {
  WModule m;
  m.code = {{WOp::kJmp, 0}};
  m.functions = {{"spin", 0, 0, 0, false}};
  return m;
}

WModule wasm_builtin(const std::string& name) {
  if (name == "kv") return security::build_kv_module(64);
  if (name == "kvbench") return security::build_kv_module(8192);
  if (name == "add") return wasm_add_module();
  if (name == "spin") return wasm_spin_module();
  throw NotFound("unknown builtin wasm module: " + name + " (kv, kvbench, add, spin)");
}

struct WasmSelftestCase {
  const char* name;
  const char* expected_check;
  WModule (*make)();
};

int run_wasm_selftest() {
  // One seeded defect module per wasm.* check class. Warning-class defects
  // (unproven memory, possible division traps, unbounded cost) leave the
  // module runnable, so the assertion is on the check id, not on ok().
  const WasmSelftestCase cases[] = {
      {"bad-opcode", "wasm.struct.opcode",
       [] {
         WModule m;
         m.code = {{static_cast<WOp>(200), 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"wild-jump", "wasm.struct.jump.target",
       [] {
         WModule m;
         m.code = {{WOp::kJmp, 99}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"call-out-of-range", "wasm.struct.call.target",
       [] {
         WModule m;
         m.code = {{WOp::kCall, 9}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"unregistered-host", "wasm.struct.host.target",
       [] {
         WModule m;
         m.code = {{WOp::kHostCall, 0}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"local-out-of-range", "wasm.struct.local.index",
       [] {
         WModule m;
         m.code = {{WOp::kLocalGet, 5}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 1, 1, true}};
         return m;
       }},
      {"data-overflow", "wasm.struct.data.overflow",
       [] {
         WModule m = wasm_add_module();
         m.memory_bytes = 8;
         m.data.assign(16, 0xAB);
         return m;
       }},
      {"stack-underflow", "wasm.stack.underflow",
       [] {
         WModule m;
         m.code = {{WOp::kAdd, 0}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"depth-mismatch", "wasm.stack.depth.mismatch",
       [] {
         WModule m;
         m.code = {{WOp::kLocalGet, 0},
                   {WOp::kJmpIfZ, 3},
                   {WOp::kConst, 1},
                   {WOp::kRet, 0}};
         m.functions = {{"f", 0, 1, 1, true}};
         return m;
       }},
      {"missing-return-value", "wasm.stack.ret.missing",
       [] {
         WModule m;
         m.code = {{WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"fallthrough-off-end", "wasm.flow.fallthrough",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 1}, {WOp::kDrop, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"provable-oob-store", "wasm.mem.oob",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 70000}, {WOp::kConst, 1}, {WOp::kStore, 0}, {WOp::kHalt, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
      {"unproven-load", "wasm.mem.unproven",
       [] {
         WModule m;
         m.code = {{WOp::kLocalGet, 0}, {WOp::kLoad, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 1, 1, true}};
         return m;
       }},
      {"divide-by-zero", "wasm.div.zero",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 1}, {WOp::kConst, 0}, {WOp::kDivS, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"maybe-divide-by-zero", "wasm.div.maybe_zero",
       [] {
         WModule m;
         m.code = {{WOp::kConst, 10}, {WOp::kLocalGet, 0}, {WOp::kDivS, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 1, 1, true}};
         return m;
       }},
      {"int-min-div-minus-one", "wasm.div.overflow",
       [] {
         WModule m;
         m.code = {{WOp::kConst, INT32_MIN}, {WOp::kConst, -1}, {WOp::kDivS, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, true}};
         return m;
       }},
      {"infinite-loop", "wasm.cost.unbounded", wasm_spin_module},
      {"recursion", "wasm.cost.unbounded",
       [] {
         WModule m;
         m.code = {{WOp::kCall, 0}, {WOp::kRet, 0}};
         m.functions = {{"f", 0, 0, 0, false}};
         return m;
       }},
  };
  int failures = 0;
  for (const auto& c : cases) {
    const auto res = analysis::verify_module(c.make());
    const bool hit = res.report.has(c.expected_check);
    std::cout << (hit ? "PASS" : "FAIL") << "  " << c.name << "  expects " << c.expected_check
              << "  (" << res.report.summary() << ")\n";
    if (!hit) ++failures;
  }
  // A clean straight-line module must come out fully accepted with an exact
  // static fuel bound (4 retired instructions per invoke of add).
  const auto clean = analysis::verify_module(wasm_add_module());
  const bool clean_ok =
      clean.accepted() && clean.cost_bounded && clean.module_fuel_bound == 4;
  std::cout << (clean_ok ? "PASS" : "FAIL")
            << "  clean-module  expects accepted + fuel bound 4  (bound "
            << clean.module_fuel_bound << ")\n";
  if (!clean_ok) ++failures;
  if (failures != 0) {
    std::cerr << failures << " wasm selftest case(s) did not report the expected check id\n";
    return 1;
  }
  std::cout << "wasm selftest: all defect classes detected\n";
  return 0;
}

int run_wasm(const std::string& wmod, const std::string& format) {
  const WModule module = wasm_builtin(wmod);
  const auto res = analysis::verify_module(module);
  if (format == "jsonl") {
    std::cout << res.report.to_json_lines();
  } else {
    if (!res.report.empty()) std::cout << res.report.to_table();
    std::cout << wmod << ": " << res.report.summary() << "\n";
    std::cout << wmod << ": verified=" << (res.ok() ? "yes" : "no")
              << " accepted=" << (res.accepted() ? "yes" : "no")
              << " memory=" << (res.memory_proven ? "proven" : "unproven")
              << " arithmetic=" << (res.arithmetic_proven ? "proven" : "unproven");
    if (res.cost_bounded) {
      std::cout << " fuel_bound=" << res.module_fuel_bound;
    } else {
      std::cout << " fuel_bound=unbounded";
    }
    std::cout << "\n";
  }
  return res.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_path, zoo_name, save_path, wmod;
  std::string checks = "all", format = "table";
  bool materialize = false, selftest = false, wasm = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const std::string& flag) -> std::string {
      if (arg.size() > flag.size() && arg[flag.size()] == '=') return arg.substr(flag.size() + 1);
      if (i + 1 >= argc) throw InvalidArgument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (arg.rfind("--model", 0) == 0) {
        model_path = value("--model");
      } else if (arg.rfind("--zoo", 0) == 0) {
        zoo_name = value("--zoo");
      } else if (arg.rfind("--checks", 0) == 0) {
        checks = value("--checks");
      } else if (arg.rfind("--format", 0) == 0) {
        format = value("--format");
      } else if (arg.rfind("--save", 0) == 0) {
        save_path = value("--save");
      } else if (arg.rfind("--wmod", 0) == 0) {
        wmod = value("--wmod");
      } else if (arg == "--wasm") {
        wasm = true;
      } else if (arg == "--materialize") {
        materialize = true;
      } else if (arg == "--selftest") {
        selftest = true;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return usage(argv[0]);
      }
    } catch (const Error& e) {
      std::cerr << e.what() << "\n";
      return usage(argv[0]);
    }
  }

  if (format != "table" && format != "jsonl") {
    std::cerr << "unknown format: " << format << "\n";
    return usage(argv[0]);
  }
  if (wasm) {
    if (selftest) return run_wasm_selftest();
    if (wmod.empty()) {
      std::cerr << "--wasm needs --wmod <name> (or --selftest)\n";
      return usage(argv[0]);
    }
    try {
      return run_wasm(wmod, format);
    } catch (const Error& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }
  if (selftest) return run_selftest();
  if (model_path.empty() == zoo_name.empty()) {
    std::cerr << "exactly one of --model or --zoo is required\n";
    return usage(argv[0]);
  }

  try {
    const analysis::VerifyOptions opts = analysis::parse_check_groups(checks);
    Graph g = model_path.empty() ? build_zoo(zoo_name) : load_model(model_path);
    if (materialize) {
      Rng rng(1);
      g.materialize_weights(rng);
    }
    if (!save_path.empty()) {
      const auto bytes = pack_model(g);
      std::ofstream out(save_path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
      if (!out) throw Error("cannot write " + save_path);
      std::cout << "wrote " << bytes.size() << " bytes to " << save_path << "\n";
      return 0;
    }

    analysis::Report rep = analysis::verify_graph(g, opts);
    if (opts.memory && rep.ok()) cross_check_memory(g, rep);

    if (format == "jsonl") {
      std::cout << rep.to_json_lines();
    } else {
      if (!rep.empty()) std::cout << rep.to_table();
      std::cout << g.name() << ": " << rep.summary() << "\n";
    }
    return rep.ok() ? 0 : 1;
  } catch (const GraphError& e) {
    // Loading already runs the verifier: a corrupt file lands here with the
    // findings table embedded in the message.
    std::cerr << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
