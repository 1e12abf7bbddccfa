// T-EXEC — toolchain substrate: the execution engine (thread-pool
// parallelism, im2col/GEMM convolution, activation arena) and the
// liveness-based memory planner (the "memory hierarchy study" of
// Sec. II-B applied to activation buffers).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>

#include "bench_common.hpp"
#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "hw/roofline.hpp"
#include "obs/trace.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/executor.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/microkernel.hpp"
#include "runtime/session.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace vedliot;

namespace {

/// The serial seed executor (direct conv, one thread, scalar kernels) on
/// this sweep's ResNet-50 at image 64, as last measured before the direct
/// loop moved into tests/ as the numerical reference (BENCH_runtime.json,
/// one core). Kept as constants so speedup_vs_seed keeps its meaning without
/// spending ~75 s of every sweep on the slowest path.
constexpr double kSeedSecondsBatch1 = 8.08;
constexpr double kSeedSecondsBatch8 = 66.38;

/// One configuration of the ResNet-50 execution-engine sweep.
struct SweepPoint {
  std::string dtype = "f32";     ///< "f32" | "int8"
  std::int64_t batch = 1;
  std::string simd = "portable"; ///< resolved dispatch level of the point
  unsigned threads = 1;
  bool measured = true;          ///< false: threads exceed this host's cores
  double seconds = 0;            ///< median wall-clock of the timed runs
  double speedup_vs_seed = 1;    ///< vs kSeedSeconds* (direct conv, 1 thread)
  double speedup_vs_portable = 1;///< vs gemm+portable t1, same dtype and batch
  double achieved = 0;           ///< GFLOP/s (f32) or int8 GOP/s, end-to-end
  double roof_fraction = 0;      ///< achieved / (per-thread roof * usable threads)
};

double median_run_seconds(runtime::Session& session, const std::string& feed,
                          const Tensor& x, int repeats) {
  (void)session.run({{feed, x}});  // warm-up: arena + scratch allocation
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)session.run({{feed, x}});
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Each node's median span (µs) over \p runs traced runs of \p g on one
/// thread (int8 when \p int8), after one warm-up run for the plan, arena
/// and scratch: the per-node ledgers' one timing source.
std::map<std::string, double> median_node_spans_us(const Graph& g, const Tensor& x, bool int8,
                                                   int runs) {
  const std::string feed = g.node(g.inputs().front()).name;
  obs::Tracer tracer;
  runtime::RunOptions o;
  o.exec.threads = 1;
  o.trace = &tracer;
  auto session = int8 ? runtime::make_quantized_session(g, o) : runtime::make_session(g, o);
  (void)session->run({{feed, x}});
  tracer.clear();
  for (int i = 0; i < runs; ++i) (void)session->run({{feed, x}});
  std::map<std::string, std::vector<double>> spans_us;
  for (const obs::Span& span : tracer.spans()) spans_us[span.name].push_back(span.duration_us());
  std::map<std::string, double> median;
  for (auto& [node, us] : spans_us) {
    std::sort(us.begin(), us.end());
    median[node] = us[us.size() / 2];
  }
  return median;
}

/// One GEMM node of the per-GEMM ledger, at one dtype.
struct GemmRow {
  std::string dtype;
  std::string node;
  std::int64_t k = 0, m = 0, cols = 0;  ///< GEMM depth, output channels per group, columns
  bool transposed = false;              ///< the plan runs it as Cᵀ = Xᵀ·Wᵀ
  double median_us = 0;
  double gops = 0;
  double roof_fraction = 0;             ///< of the level's one-thread roof
};

/// The per-GEMM-node ledger of \p g (BN-folded, activation-fused and
/// calibrated, batch 1) at one thread and the resolved dispatch level, f32
/// then int8: each GEMM node's median self time over the runs, read from its
/// tracer spans, with its GOP/s and fraction of \p roof. The shape and the
/// orientation come from the plan's own lowering (lower_to_gemm) and rule
/// (gemm_transposed).
std::vector<GemmRow> gemm_ledger(const Graph& g, const Tensor& x, const hw::HostRoofline& roof) {
  constexpr int kRuns = 5;
  const auto* table = runtime_kernels::gemm_microkernels(roof.level);
  std::vector<GemmRow> rows;
  for (const bool int8 : {false, true}) {
    const runtime_kernels::MicrokernelTile tile =
        table == nullptr ? runtime_kernels::MicrokernelTile{} : int8 ? table->s8 : table->f32;
    std::map<std::string, double> median_us = median_node_spans_us(g, x, int8, kRuns);
    for (NodeId id : g.topo_order()) {
      const Node& n = g.node(id);
      const std::optional<GemmShape> gemm = lower_to_gemm(g, n);
      if (!gemm) continue;
      GemmRow r{int8 ? "int8" : "f32", n.name, gemm->k, gemm->m, gemm->cols};
      r.transposed = runtime_kernels::gemm_transposed(gemm->m, gemm->cols, tile);
      r.median_us = median_us[n.name];
      const double ops = static_cast<double>(node_cost(g, id).ops);
      r.gops = r.median_us > 0 ? ops / r.median_us / 1e3 : 0.0;
      r.roof_fraction = hw::fraction_of_roofline(r.gops, int8 ? roof.s8_gops : roof.f32_gflops);
      rows.push_back(std::move(r));
    }
  }

  std::printf("\nPer-GEMM ledger: ResNet-50 (batch 1, folded and fused), 1 thread, %s:\n\n",
              std::string(util::simd_level_name(roof.level)).c_str());
  Table t({"node", "K", "M", "cols", "f32 T", "f32 us", "f32 roof", "int8 T", "int8 us",
           "int8 roof"});
  const std::size_t half = rows.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const GemmRow& f = rows[i];
    const GemmRow& q = rows[half + i];
    t.add_row({f.node, std::to_string(f.k), std::to_string(f.m), std::to_string(f.cols),
               f.transposed ? "T" : "-", fmt_fixed(f.median_us, 1),
               fmt_fixed(f.roof_fraction * 100.0, 1) + "%", q.transposed ? "T" : "-",
               fmt_fixed(q.median_us, 1), fmt_fixed(q.roof_fraction * 100.0, 1) + "%"});
  }
  t.print(std::cout);
  bench::note("T: the plan runs the GEMM transposed (weights on the vector lanes);");
  bench::note("us: median node span over the runs; roof: of the level's one-thread roof.");
  return rows;
}

/// One depthwise Conv2d node of the depthwise ledger (f32).
struct DepthwiseRow {
  std::string node;
  std::int64_t kernel = 0, stride = 0, channels = 0, out_h = 0, out_w = 0;
  double median_us = 0;
  double gops = 0;
  double roof_fraction = 0;  ///< of the portable one-thread f32 roof
};

/// The depthwise ledger: every depthwise Conv2d of MobileNetV3-Large 224,
/// BN-folded and activation-fused, f32 at batch 1 on one thread at the
/// resolved dispatch level, each node's median self time over the runs read
/// from its tracer spans, with its GOP/s and fraction of \p portable's f32
/// roof: the depthwise body is compiled at the baseline ISA at every level. A
/// depthwise node is a Conv2d with no GEMM shape (lower_to_gemm).
std::vector<DepthwiseRow> depthwise_ledger(const hw::HostRoofline& portable) {
  constexpr int kRuns = 5;
  constexpr std::int64_t kImage = 224;
  Graph g = zoo::mobilenet_v3_large(1, 1000, kImage);
  Rng rng(7);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass().run(g);
  opt::FuseActivationPass().run(g);
  Rng data_rng(8);
  const Tensor x(Shape{1, 3, kImage, kImage},
                 data_rng.normal_vector(static_cast<std::size_t>(3 * kImage * kImage)));
  std::map<std::string, double> median_us = median_node_spans_us(g, x, false, kRuns);
  std::vector<DepthwiseRow> rows;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.kind != OpKind::kConv2d || lower_to_gemm(g, n)) continue;
    DepthwiseRow r{n.name, n.attrs.get_int("kernel"), n.attrs.get_int_or("stride", 1),
                   n.out_shape.c(), n.out_shape.h(), n.out_shape.w()};
    r.median_us = median_us[n.name];
    const double ops = static_cast<double>(node_cost(g, id).ops);
    r.gops = r.median_us > 0 ? ops / r.median_us / 1e3 : 0.0;
    r.roof_fraction = hw::fraction_of_roofline(r.gops, portable.f32_gflops);
    rows.push_back(std::move(r));
  }

  std::printf("\nDepthwise ledger: MobileNetV3-Large %lld (batch 1, folded and fused), f32, "
              "1 thread:\n\n",
              static_cast<long long>(kImage));
  Table t({"node", "k", "stride", "channels", "out", "us", "GF/s", "portable roof"});
  double total_us = 0;
  for (const DepthwiseRow& r : rows) {
    t.add_row({r.node, std::to_string(r.kernel), std::to_string(r.stride),
               std::to_string(r.channels), std::to_string(r.out_h) + "x" + std::to_string(r.out_w),
               fmt_fixed(r.median_us, 1), fmt_fixed(r.gops, 2),
               fmt_fixed(r.roof_fraction * 100.0, 1) + "%"});
    total_us += r.median_us;
  }
  t.print(std::cout);
  bench::note("us: median node span over the runs; roof: the portable one-thread f32 roof,");
  bench::note("since the depthwise body runs at the baseline ISA at every level; total " +
              fmt_fixed(total_us / 1e3, 2) + " ms.");
  return rows;
}

/// ResNet-50 engine sweep (dtype x batch x dispatch level x threads) against
/// the measured host roofline. Writes the machine-readable baseline to
/// $VEDLIOT_BENCH_RUNTIME_JSON when set — the file checked in as
/// BENCH_runtime.json.
void engine_sweep() {
  constexpr std::int64_t kImage = 64;  // the image the seed constants were measured at
  constexpr int kRepeats = 3;
  const unsigned hw_threads = util::ThreadPool::hardware_threads();

  // Per-thread compute roofs of this host at both dispatch levels; a
  // portable run must be judged against the portable roof.
  const hw::HostRoofline roof_portable =
      hw::measure_host_roofline(util::SimdLevel::kPortable);
  const hw::HostRoofline roof_simd = hw::measure_host_roofline(util::SimdLevel::kAuto);
  const auto roof_for = [&](const std::string& dtype, const std::string& simd,
                            unsigned threads) {
    const hw::HostRoofline& r =
        simd == util::simd_level_name(util::SimdLevel::kPortable) ? roof_portable
                                                                  : roof_simd;
    const double per_thread = dtype == "f32" ? r.f32_gflops : r.s8_gops;
    return per_thread * static_cast<double>(std::min(threads, hw_threads));
  };

  std::printf(
      "\nExecution engine: ResNet-50 (image %lld), dtype x dispatch x threads vs the seed:\n\n",
      static_cast<long long>(kImage));
  Table t({"dtype", "batch", "simd", "threads", "median run", "vs seed",
           "vs portable", "GF/s", "roofline"});
  std::vector<SweepPoint> points;
  std::vector<GemmRow> ledger;

  const auto add_row = [&](const SweepPoint& p) {
    t.add_row({p.dtype, std::to_string(p.batch), p.simd,
               std::to_string(p.threads),
               p.measured ? fmt_fixed(p.seconds * 1e3, 1) + " ms" : "unmeasured",
               p.measured ? fmt_ratio(p.speedup_vs_seed) : "-",
               p.measured ? fmt_ratio(p.speedup_vs_portable) : "-",
               p.measured ? fmt_fixed(p.achieved, 2) : "-",
               p.measured ? fmt_fixed(p.roof_fraction * 100.0, 1) + "%" : "-"});
    points.push_back(p);
  };

  const std::string portable_name{util::simd_level_name(util::SimdLevel::kPortable)};
  const std::string simd_name{
      util::simd_level_name(util::resolve_simd_level(util::SimdLevel::kAuto))};

  for (std::int64_t batch : {std::int64_t{1}, std::int64_t{8}}) {
    Graph g = zoo::resnet50(batch, 10, kImage);
    Rng rng(7);
    g.materialize_weights(rng);
    const std::string feed = g.node(g.inputs().front()).name;
    Rng data_rng(8);
    Tensor x(Shape{batch, 3, kImage, kImage},
             data_rng.normal_vector(static_cast<std::size_t>(batch * 3 * kImage * kImage)));
    const double f32_flops = 2.0 * static_cast<double>(graph_cost(g).macs);
    const double seed_seconds = batch == 1 ? kSeedSecondsBatch1 : kSeedSecondsBatch8;

    // GEMM at portable dispatch: the pre-microkernel engine.
    SweepPoint f32_portable{"f32", batch, portable_name, 1};
    {
      runtime::RunOptions o;
      o.exec.threads = 1;
      o.exec.simd = util::SimdLevel::kPortable;
      auto s = runtime::make_session(g, o);
      f32_portable.seconds = median_run_seconds(*s, feed, x, kRepeats);
    }
    f32_portable.speedup_vs_seed = seed_seconds / f32_portable.seconds;
    f32_portable.achieved = f32_flops / f32_portable.seconds / 1e9;
    f32_portable.roof_fraction =
        f32_portable.achieved / roof_for("f32", portable_name, 1);
    add_row(f32_portable);

    for (unsigned threads : {1u, 2u, 4u}) {
      SweepPoint p{"f32", batch, simd_name, threads};
      if (threads > hw_threads) {
        // A point this host cannot time honestly: more workers than cores
        // just interleave on one core. Record it as unmeasured rather than
        // publishing a fake scaling number.
        p.measured = false;
        add_row(p);
        continue;
      }
      runtime::RunOptions o;
      o.exec.threads = threads;
      auto s = runtime::make_session(g, o);
      p.seconds = median_run_seconds(*s, feed, x, kRepeats);
      p.speedup_vs_seed = seed_seconds / p.seconds;
      p.speedup_vs_portable = f32_portable.seconds / p.seconds;
      p.achieved = f32_flops / p.seconds / 1e9;
      p.roof_fraction = p.achieved / roof_for("f32", p.simd, threads);
      add_row(p);
    }

    // INT8 deployment path: BN folded, activations fused and calibrated,
    // true-integer kernels. Same model and input, so "vs seed" is the
    // end-to-end latency win of quantized+SIMD over the seed executor.
    Graph q = zoo::resnet50(batch, 10, kImage);
    Rng qrng(7);
    q.materialize_weights(qrng);
    opt::FuseBatchNormPass bn;
    bn.run(q);
    opt::FuseActivationPass act;
    act.run(q);
    std::vector<Tensor> calib;
    Rng calib_rng(9);
    for (int i = 0; i < 2; ++i) {
      calib.emplace_back(Shape{batch, 3, kImage, kImage},
                         calib_rng.normal_vector(
                             static_cast<std::size_t>(batch * 3 * kImage * kImage)));
    }
    opt::calibrate_activations(q, calib, Calibration::kMinMax);
    const double s8_ops = 2.0 * static_cast<double>(graph_cost(q).macs);

    SweepPoint s8_portable{"int8", batch, portable_name, 1};
    {
      runtime::RunOptions o;
      o.exec.threads = 1;
      o.exec.simd = util::SimdLevel::kPortable;
      auto s = runtime::make_quantized_session(q, o);
      s8_portable.seconds = median_run_seconds(*s, feed, x, kRepeats);
    }
    s8_portable.speedup_vs_seed = seed_seconds / s8_portable.seconds;
    s8_portable.achieved = s8_ops / s8_portable.seconds / 1e9;
    s8_portable.roof_fraction =
        s8_portable.achieved / roof_for("int8", portable_name, 1);
    add_row(s8_portable);

    for (unsigned threads : {1u, 2u, 4u}) {
      SweepPoint p{"int8", batch, simd_name, threads};
      if (threads > hw_threads) {
        p.measured = false;
        add_row(p);
        continue;
      }
      runtime::RunOptions o;
      o.exec.threads = threads;
      auto s = runtime::make_quantized_session(q, o);
      p.seconds = median_run_seconds(*s, feed, x, kRepeats);
      p.speedup_vs_seed = seed_seconds / p.seconds;
      p.speedup_vs_portable = s8_portable.seconds / p.seconds;
      p.achieved = s8_ops / p.seconds / 1e9;
      p.roof_fraction = p.achieved / roof_for("int8", p.simd, threads);
      add_row(p);
    }
    if (batch == 1) ledger = gemm_ledger(q, x, roof_simd);
  }
  const std::vector<DepthwiseRow> depthwise = depthwise_ledger(roof_portable);
  t.print(std::cout);
  bench::note("GF/s is end-to-end model flops (int8: integer ops) over wall-clock;");
  bench::note("roofline is the measured per-level register-FMA roof of this host;");
  bench::note("thread points beyond hardware_concurrency are recorded unmeasured.");

  if (const char* path = std::getenv("VEDLIOT_BENCH_RUNTIME_JSON")) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", path);
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_runtime\",\n  \"model\": \"resnet50\",\n");
    std::fprintf(f, "  \"image\": %lld,\n  \"repeats\": %d,\n", static_cast<long long>(kImage),
                 kRepeats);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw_threads);
    std::fprintf(f,
                 "  \"baseline\": \"direct conv, threads=1 (seed executor semantics), "
                 "constants from the last measured sweep\",\n");
    std::fprintf(f, "  \"seed_seconds\": {\"batch1\": %s, \"batch8\": %s},\n",
                 obs::json_number(kSeedSecondsBatch1).c_str(),
                 obs::json_number(kSeedSecondsBatch8).c_str());
    std::fprintf(f,
                 "  \"roofline\": {\"portable_f32_gflops\": %s, \"portable_s8_gops\": %s, "
                 "\"%s_f32_gflops\": %s, \"%s_s8_gops\": %s},\n",
                 obs::json_number(roof_portable.f32_gflops).c_str(),
                 obs::json_number(roof_portable.s8_gops).c_str(), simd_name.c_str(),
                 obs::json_number(roof_simd.f32_gflops).c_str(), simd_name.c_str(),
                 obs::json_number(roof_simd.s8_gops).c_str());
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      if (p.measured) {
        std::fprintf(f,
                     "    {\"dtype\": \"%s\", \"batch\": %lld, "
                     "\"simd\": \"%s\", \"threads\": %u, \"hardware_concurrency\": %u, "
                     "\"unmeasured\": false, \"median_seconds\": %s, "
                     "\"achieved_gflops\": %s, \"fraction_of_roofline\": %s, "
                     "\"speedup_vs_seed\": %s, \"speedup_vs_portable\": %s}%s\n",
                     p.dtype.c_str(), static_cast<long long>(p.batch), p.simd.c_str(),
                     p.threads, hw_threads, obs::json_number(p.seconds).c_str(),
                     obs::json_number(p.achieved).c_str(),
                     obs::json_number(p.roof_fraction).c_str(),
                     obs::json_number(p.speedup_vs_seed).c_str(),
                     obs::json_number(p.speedup_vs_portable).c_str(),
                     i + 1 < points.size() ? "," : "");
      } else {
        std::fprintf(f,
                     "    {\"dtype\": \"%s\", \"batch\": %lld, "
                     "\"simd\": \"%s\", \"threads\": %u, \"hardware_concurrency\": %u, "
                     "\"unmeasured\": true, \"median_seconds\": null}%s\n",
                     p.dtype.c_str(), static_cast<long long>(p.batch), p.simd.c_str(),
                     p.threads, hw_threads,
                     i + 1 < points.size() ? "," : "");
      }
    }
    std::fprintf(f, "  ],\n  \"gemm_nodes\": [\n");
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      const GemmRow& r = ledger[i];
      std::fprintf(f,
                   "    {\"dtype\": \"%s\", \"node\": \"%s\", \"batch\": 1, \"threads\": 1, "
                   "\"simd\": \"%s\", \"k\": %lld, \"m\": %lld, \"cols\": %lld, "
                   "\"transposed\": %s, \"median_us\": %s, \"gops\": %s, "
                   "\"fraction_of_roofline\": %s}%s\n",
                   r.dtype.c_str(), r.node.c_str(), simd_name.c_str(),
                   static_cast<long long>(r.k), static_cast<long long>(r.m),
                   static_cast<long long>(r.cols), r.transposed ? "true" : "false",
                   obs::json_number(r.median_us).c_str(), obs::json_number(r.gops).c_str(),
                   obs::json_number(r.roof_fraction).c_str(), i + 1 < ledger.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"depthwise_nodes\": [\n");
    for (std::size_t i = 0; i < depthwise.size(); ++i) {
      const DepthwiseRow& r = depthwise[i];
      std::fprintf(f,
                   "    {\"model\": \"mobilenet_v3_large\", \"image\": 224, \"dtype\": \"f32\", "
                   "\"node\": \"%s\", \"batch\": 1, \"threads\": 1, \"simd\": \"%s\", "
                   "\"kernel\": %lld, \"stride\": %lld, \"channels\": %lld, \"out_h\": %lld, "
                   "\"out_w\": %lld, \"median_us\": %s, \"gops\": %s, "
                   "\"fraction_of_portable_roofline\": %s}%s\n",
                   r.node.c_str(), simd_name.c_str(), static_cast<long long>(r.kernel),
                   static_cast<long long>(r.stride), static_cast<long long>(r.channels),
                   static_cast<long long>(r.out_h), static_cast<long long>(r.out_w),
                   obs::json_number(r.median_us).c_str(), obs::json_number(r.gops).c_str(),
                   obs::json_number(r.roof_fraction).c_str(), i + 1 < depthwise.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }
}

}  // namespace

void print_artifact() {
  bench::banner("T-EXEC", "memory planner: arena reuse vs naive allocation");
  bench::Section section("bench_runtime", "memory-planner");

  Table t({"model", "activations (naive)", "arena (planned)", "reuse", "weights fp32"});
  struct Entry {
    const char* name;
    Graph g;
  };
  for (auto& [name, g] : {Entry{"resnet50", zoo::resnet50()},
                          Entry{"mobilenet_v3", zoo::mobilenet_v3_large()},
                          Entry{"yolov4", zoo::yolov4()},
                          Entry{"gesture_net", zoo::gesture_net()},
                          Entry{"pedestrian_net", zoo::pedestrian_net()}}) {
    const MemoryPlan plan = plan_memory(g, DType::kFP32);
    if (!plan_is_valid(plan)) {
      std::printf("INVALID PLAN for %s!\n", name);
      continue;
    }
    t.add_row({name, fmt_fixed(static_cast<double>(plan.naive_bytes) / (1 << 20), 1) + " MiB",
               fmt_fixed(static_cast<double>(plan.arena_bytes) / (1 << 20), 1) + " MiB",
               fmt_ratio(plan.reuse_factor()),
               fmt_fixed(weight_bytes(g, DType::kFP32) / (1 << 20), 1) + " MiB"});
  }
  t.print(std::cout);

  std::printf("\nINT8 activations shrink the arena further:\n\n");
  Table q({"model", "fp32 arena", "int8 arena"});
  for (auto& [name, g] : {Entry{"mobilenet_v3", zoo::mobilenet_v3_large()},
                          Entry{"yolov4", zoo::yolov4()}}) {
    const auto p32 = plan_memory(g, DType::kFP32);
    const auto p8 = plan_memory(g, DType::kINT8);
    q.add_row({name, fmt_fixed(static_cast<double>(p32.arena_bytes) / (1 << 20), 1) + " MiB",
               fmt_fixed(static_cast<double>(p8.arena_bytes) / (1 << 20), 2) + " MiB"});
  }
  q.print(std::cout);
  bench::note("shape: liveness-based packing cuts activation memory by an order of magnitude,");
  bench::note("which is what makes MiB-class on-chip buffers viable for these models.");

  // True-integer INT8 deployment path: agreement with the float reference.
  std::printf("\nINT8 integer executor vs float reference (micro CNN, 32 samples):\n\n");
  Graph g = zoo::micro_cnn("deploy", 1, 1, 16, 4);
  Rng rng(12);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> calib;
  Rng data_rng(13);
  for (int i = 0; i < 16; ++i) calib.emplace_back(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
  opt::calibrate_activations(g, calib, Calibration::kMinMax);

  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);
  std::uint64_t saturations = 0;
  int agree = 0;
  double total_rmse = 0;
  for (int i = 0; i < 32; ++i) {
    Tensor x(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
    const Tensor fy = fsession->run_single(x);
    const auto qr = qsession->run({{g.node(g.inputs().front()).name, x}});
    const Tensor& qy = qr.single();
    saturations = qr.saturations;
    total_rmse += rmse(fy, qy);
    std::size_t fa = 0, qa = 0;
    for (std::int64_t j = 1; j < fy.numel(); ++j) {
      if (fy.at(static_cast<std::size_t>(j)) > fy.at(fa)) fa = static_cast<std::size_t>(j);
      if (qy.at(static_cast<std::size_t>(j)) > qy.at(qa)) qa = static_cast<std::size_t>(j);
    }
    if (fa == qa) ++agree;
  }
  std::printf("top-1 agreement %d/32, mean softmax RMSE %.4f, int8 saturations %llu\n", agree,
              total_rmse / 32.0, static_cast<unsigned long long>(saturations));

  engine_sweep();
}

static void BM_PlanMemoryMobileNet(benchmark::State& state) {
  Graph g = zoo::mobilenet_v3_large();
  for (auto _ : state) {
    auto plan = plan_memory(g, DType::kINT8);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanMemoryMobileNet)->Unit(benchmark::kMillisecond);

static void BM_ExecutorMicroCnn(benchmark::State& state) {
  Graph g = zoo::micro_cnn("m", 1, 1, 32, 10);
  Rng rng(1);
  g.materialize_weights(rng);
  auto session = runtime::make_session(g);
  Rng data_rng(2);
  Tensor input(Shape{1, 1, 32, 32}, data_rng.normal_vector(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->run_single(input));
  }
  const auto c = graph_cost(g);
  state.counters["MACs/s"] = benchmark::Counter(
      static_cast<double>(c.macs) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorMicroCnn)->Unit(benchmark::kMillisecond);

static void BM_ExecutorDense(benchmark::State& state) {
  Graph g = zoo::micro_mlp("m", 1, 1024, {1024}, 256);
  Rng rng(1);
  g.materialize_weights(rng);
  auto session = runtime::make_session(g);
  Rng data_rng(2);
  Tensor input(Shape{1, 1024}, data_rng.normal_vector(1024));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session->run_single(input));
  }
}
BENCHMARK(BM_ExecutorDense)->Unit(benchmark::kMicrosecond);

static void BM_GraphValidateYolo(benchmark::State& state) {
  Graph g = zoo::yolov4();
  for (auto _ : state) {
    g.validate();
  }
}
BENCHMARK(BM_GraphValidateYolo)->Unit(benchmark::kMillisecond);

VEDLIOT_BENCH_MAIN()
