// perfbench — the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--baseline <x>] [--trace-out <path>]
//
// Runs one workload, checks its outputs, prints an environment line and
// every metric for people, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). run.py builds this binary and pairs each traced run with an
// untraced sibling process whose figure arrives as --baseline.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by every workload. A "request" is one
// Session::run on the inference workloads and one fleet request on the
// fleet workloads. host_us_per_request is the host wall cost of one request
// and setup_s the cost of one set-up. On a shared host, co-tenants slow a
// core by up to 2x for minutes at a time, so even the best of a 20 s run
// moves with them unless it is divided by the host's speed in that same run.
// Both are therefore the best run, repetition or set-up, rescaled by a speed
// reference timed between them (harness.hpp): times on a core of fixed
// speed. The exception is host_us_per_request of two-thread inference, the
// raw median over runs: it needs two free cores at once, which is rare
// enough that its best run wanders. Raw bests, medians, tails and simulated
// latencies are printed above the result line and in the traced run's
// per-layer metrics.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"host_us_per_request", "us"},
    {"goodput", "frac"},
    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics, printed by every workload in a traced run (0 where the
// layer does not run on that workload).
const std::vector<MetricDef> kPerLayer = {
    {"runtime.op.Conv2d.ms", "ms"},
    {"runtime.op.Add.ms", "ms"},
    {"runtime.op.Relu.ms", "ms"},
    {"runtime.op.Mul.ms", "ms"},
    {"runtime.op.BatchNorm.ms", "ms"},
    {"runtime.op.MaxPool.ms", "ms"},
    {"runtime.op.GlobalAvgPool.ms", "ms"},
    {"runtime.op.Flatten.ms", "ms"},
    {"runtime.op.Dense.ms", "ms"},
    {"runtime.op.Softmax.ms", "ms"},
    {"runtime.conv_depthwise.ms", "ms"},
    {"runtime.conv_dense.ms", "ms"},
    {"runtime.conv.gops", "GOP/s"},
    {"runtime.conv.roof_frac", "frac"},
    {"runtime.session_run.ms", "ms"},
    {"runtime.dispatch.ms", "ms"},
    {"runtime.allocs_per_run", "count"},
    {"runtime.pool_utilization", "frac"},
    {"runtime.batch_run_us.w1", "us"},
    {"runtime.batch_run_us.w2", "us"},
    {"runtime.batch_run_us.w4", "us"},
    {"runtime.batch_run_us.w8", "us"},
    {"runtime.exec_us_per_request", "us"},
    {"serve.synthesize_us", "us"},
    {"serve.loop_us_per_request", "us"},
    {"serve.lanes_per_batch", "count"},
    {"serve.batch_fill", "frac"},
    {"serve.cache_hit_frac", "frac"},
    {"serve.shed_frac", "frac"},
    {"serve.displaced_frac", "frac"},
    {"serve.max_brownout_level", "count"},
    {"serve.scale_ups", "count"},
    {"serve.sim_latency_p50_ms", "ms"},
    {"serve.sim_latency_p99_ms", "ms"},
    {"serve.traffic_s", "s"},
    {"platform.energy_mj_per_completed", "mJ"},
    {"graph.materialize_s", "s"},
    {"graph.package_s", "s"},
    {"opt.fuse_s", "s"},
    {"opt.calibrate_s", "s"},
    {"runtime.prepare_s", "s"},
    {"obs.tracing_overhead_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <resnet50_int8|mobilenetv3_f32|"
               "fleet_exec|fleet_overload> --seed <n> --seconds <s> --trace <0|1> "
               "[--baseline <x>] [--trace-out <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--baseline") {
      a.baseline = std::strtod(value, nullptr);
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Outcome out;
  try {
    if (args.workload == "resnet50_int8") {
      out = perfbench::run_resnet50_int8(args);
    } else if (args.workload == "mobilenetv3_f32") {
      out = perfbench::run_mobilenetv3_f32(args);
    } else if (args.workload == "fleet_exec") {
      out = perfbench::run_fleet_exec(args);
    } else if (args.workload == "fleet_overload") {
      out = perfbench::run_fleet_overload(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::printf("env %s\n", perfbench::environment_json(args).c_str());
  for (const auto& [name, value] : out.metrics) {
    std::printf("  %-36s %s\n", name.c_str(), number(value).c_str());
  }
  for (const auto& [label, value] : out.extra) {
    std::printf("  %-36s %s\n", label.c_str(), value.c_str());
  }
  std::printf("  %-36s %s\n", "error_frac",
              number(static_cast<double>(out.failed) / static_cast<double>(out.attempted)).c_str());
  for (const std::string& p : out.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());

  const std::vector<MetricDef>& table = args.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const MetricDef& m : table) {
    const auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() && !args.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", args.workload.c_str(), m.name);
      return 1;
    }
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name);
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(m.name) + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.mismatches == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return 0;
}
