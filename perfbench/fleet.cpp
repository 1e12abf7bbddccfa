// Fleet workloads: seeded open-loop flash-crowd traffic (Zipf client
// population) through serve::Fleet. Arrivals follow the generated schedule in
// simulated time; the host wall time of Fleet::run is what is measured, and
// the simulated outcomes are what the fleet's callers see.

#include <algorithm>
#include <memory>

#include "graph/zoo.hpp"
#include "harness.hpp"
#include "hw/roofline.hpp"
#include "obs/export.hpp"
#include "serve/batcher.hpp"
#include "serve/fleet.hpp"
#include "serve/traffic.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace vedliot;
using serve::Fleet;
using serve::FleetReport;
using serve::Request;
using serve::Response;
using serve::ResponseStatus;

constexpr std::uint64_t kWeightSeed = 0x3E16Dull;
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr int kMinReps = 3;                   ///< Fleet::run repetitions per run, at least
constexpr int kReferencesPerRep = 3;          ///< SpeedReference timings before each repetition
constexpr std::size_t kEqualitySamples = 32;  ///< delivered CRCs re-run as singletons
constexpr std::size_t kChromeSpans = 20000;   ///< fleet events kept in the Chrome trace

struct Spec {
  bool execute = false;  ///< real tensors (micro CNN) or the analytic cost model
  double base_hz = 2000;
  double duration_s = 10;
  std::size_t min_replicas = 4;
  std::size_t initial_replicas = 4;
  std::size_t max_replicas = 4;
  std::int64_t max_batch = 8;
};

Graph build_model(const Spec& spec) {
  if (!spec.execute) return zoo::resnet50(1, 100, 64);
  Graph g = zoo::micro_cnn("fleet-exec", 1, 3, 16, 10, 8);
  Rng weight_rng(kWeightSeed);
  g.materialize_weights(weight_rng);
  return g;
}

/// One Fleet::run with its set-up; stage times in seconds.
struct Rep {
  double materialize_s = 0;  ///< model build
  double traffic_s = 0;      ///< traffic generation + submit
  double prepare_s = 0;      ///< Fleet construction
  double setup_s = 0;
  double run_s = 0;          ///< Fleet::run wall time
  FleetReport report;
  std::vector<Request> requests;  ///< offered load with fleet ids (when kept)
};

Rep run_once(const Spec& spec, std::uint64_t seed, bool execute, obs::Tracer* tracer,
             obs::MetricsRegistry* metrics, bool keep_requests) {
  release_free_memory();
  Rep rep;
  const auto setup_start = Clock::now();
  auto t = Clock::now();
  const Graph model = build_model(spec);
  rep.materialize_s = seconds_since(t);

  t = Clock::now();
  serve::TrafficConfig traffic;
  traffic.pattern = serve::TrafficPattern::kFlashCrowd;
  traffic.duration_s = spec.duration_s;
  traffic.base_hz = spec.base_hz;
  traffic.seed = seed ^ kLoadStream;
  std::vector<Request> offered = serve::generate_traffic(traffic);
  rep.traffic_s = seconds_since(t);

  t = Clock::now();
  serve::FleetConfig cfg;
  cfg.graph = &model;
  cfg.execute = execute;
  cfg.max_batch = spec.max_batch;
  cfg.min_replicas = spec.min_replicas;
  cfg.initial_replicas = spec.initial_replicas;
  cfg.max_replicas = spec.max_replicas;
  cfg.seed = seed;
  cfg.trace = tracer;
  cfg.metrics = metrics;
  Fleet fleet(cfg);
  rep.prepare_s = seconds_since(t);

  t = Clock::now();
  for (Request& r : offered) {
    const std::uint64_t id = fleet.submit(r);
    r.id = id;
  }
  rep.traffic_s += seconds_since(t);
  rep.setup_s = seconds_since(setup_start);

  t = Clock::now();
  rep.report = fleet.run(spec.duration_s);
  rep.run_s = seconds_since(t);
  if (keep_requests) rep.requests = std::move(offered);
  return rep;
}

bool delivered(const Response& r) {
  return r.status == ResponseStatus::kOk || r.status == ResponseStatus::kLate;
}

/// Accounting conservation: one terminal response per offered request.
bool conserved(const FleetReport& r) {
  return r.responses.size() == r.offered &&
         r.completed + r.deadline_missed + r.shed + r.cancelled == r.offered;
}

/// A sample of delivered output CRCs must equal singleton reruns of the same
/// synthesized inputs (the batch-lane independence contract). Returns the
/// number of mismatches.
std::uint64_t check_singleton_crcs(const Spec& spec, std::uint64_t seed,
                                   const FleetReport& report,
                                   const std::vector<Request>& requests) {
  const Graph model = build_model(spec);
  std::map<std::uint64_t, const Request*> by_id;
  for (const Request& r : requests) by_id[r.id] = &r;
  std::map<std::int64_t, std::unique_ptr<Graph>> graphs;
  std::map<std::int64_t, std::unique_ptr<runtime::Session>> sessions;
  std::uint64_t mismatches = 0;
  std::size_t checked = 0;
  for (const Response& resp : report.responses) {
    if (checked >= kEqualitySamples) break;
    if (resp.status != ResponseStatus::kOk || resp.cache_hit || resp.served_by.empty()) continue;
    const Request& req = *by_id.at(resp.request_id);
    auto& session = sessions[req.batch];
    if (!session) {
      graphs[req.batch] = std::make_unique<Graph>(rebatched(model, req.batch));
      session = runtime::make_session(*graphs[req.batch], {});
    }
    const Tensor out = session->run_single(serve::synthesize_input(model, seed, req));
    if (util::crc32(out.data()) != resp.output_crc32) ++mismatches;
    ++checked;
  }
  return checked == 0 ? 1 : mismatches;  // an empty sample proves nothing
}

/// Executed batches per bucket width, from the fleet's batch events
/// ("<n> requests, <l> lanes, bucket <w>").
std::map<std::int64_t, double> batch_mix(const FleetReport& report) {
  std::map<std::int64_t, double> mix;
  for (const serve::ServeEvent& e : report.events) {
    if (e.kind != serve::ServeEventKind::kBatchExecuted) continue;
    const auto at = e.detail.rfind("bucket ");
    if (at != std::string::npos) mix[std::stoll(e.detail.substr(at + 7))] += 1;
  }
  return mix;
}

/// Host cost split of execute mode, each piece timed from outside through
/// public calls: synthesize_input per lane, DynamicBatcher::run per bucket
/// width (weighted by the report's batch mix), and the runtime ledger of a
/// traced singleton session.
void execute_split(const Spec& spec, std::uint64_t seed, const FleetReport& report,
                   const std::vector<Request>& requests, Outcome& out) {
  const Graph model = build_model(spec);

  double lanes = 0;
  const std::size_t sample = std::min<std::size_t>(requests.size(), 4096);
  const auto t = Clock::now();
  for (std::size_t i = 0; i < sample; ++i) {
    lanes += static_cast<double>(requests[i].batch);
    (void)serve::synthesize_input(model, seed, requests[i]);
  }
  out.metrics["serve.synthesize_us"] = seconds_since(t) / lanes * 1e6;

  // Single-lane inputs, one per request, for the bucket timings.
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; inputs.size() < static_cast<std::size_t>(spec.max_batch); ++i) {
    Request r = requests.at(i);
    r.batch = 1;
    inputs.push_back(serve::synthesize_input(model, seed, r));
  }
  serve::DynamicBatcher::Config bc;
  bc.max_batch = spec.max_batch;
  serve::DynamicBatcher batcher(model, bc);
  std::map<std::int64_t, double> batch_us;
  for (const std::int64_t w : batcher.bucket_widths()) {
    const std::span<const Tensor> group(inputs.data(), static_cast<std::size_t>(w));
    for (int i = 0; i < 5; ++i) (void)batcher.run(group);  // warm-up
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      (void)batcher.run(group);
      us.push_back(seconds_since(t0) * 1e6);
    }
    batch_us[w] = median(us);
    out.metrics["runtime.batch_run_us.w" + std::to_string(w)] = batch_us[w];
  }
  double exec_us = 0;
  for (const auto& [w, count] : batch_mix(report)) exec_us += count * batch_us.at(w);
  out.metrics["runtime.exec_us_per_request"] = exec_us / static_cast<double>(report.offered);

  // Runtime ledger of the singleton path, from the session's own spans.
  obs::Tracer tracer;
  runtime::RunOptions traced;
  traced.trace = &tracer;
  const auto session = runtime::make_session(model, traced);
  const std::string feed = model.node(model.inputs().front()).name;
  (void)session->run_single(inputs.front());
  tracer.clear();
  OpLedger ledger(model);
  for (int i = 0; i < 500; ++i) {
    (void)session->run({{feed, inputs[static_cast<std::size_t>(i) % inputs.size()]}});
    if (!ledger.add_run(tracer.spans())) ++out.mismatches;
    tracer.clear();
  }
  ledger.report(out, hw::measure_host_roofline(util::SimdLevel::kAuto).f32_gflops);

  const auto counted = runtime::make_session(model, {});
  out.metrics["runtime.allocs_per_run"] = allocations_per_run(*counted, {{feed, inputs.front()}});
}

/// Outcome counts summed over repetitions.
struct Totals {
  double offered = 0, completed = 0, energy_j = 0, lanes = 0, padded = 0, batches = 0;
  double cache_hits = 0, shed = 0, displaced = 0, scale_ups = 0, max_brownout = 0;
  std::vector<double> delivered_ms;  ///< simulated latency of every delivered response

  void add(const FleetReport& r) {
    offered += static_cast<double>(r.offered);
    completed += static_cast<double>(r.completed);
    energy_j += r.energy_j;
    lanes += static_cast<double>(r.lanes);
    padded += static_cast<double>(r.padded_lanes);
    batches += static_cast<double>(r.batches);
    cache_hits += static_cast<double>(r.cache_hits);
    shed += static_cast<double>(r.shed);
    displaced += static_cast<double>(r.displaced);
    scale_ups += static_cast<double>(r.scale_ups);
    max_brownout = std::max(max_brownout, static_cast<double>(r.max_brownout_level));
    for (const Response& resp : r.responses) {
      if (delivered(resp)) delivered_ms.push_back(resp.latency_s * 1e3);
    }
  }
};

/// Repetition k replays its own traffic seed, so one run averages the
/// simulated outcomes over several client populations.
std::uint64_t rep_seed(std::uint64_t seed, int k) {
  return seed ^ (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull);
}

Outcome run_fleet(const Args& args, const Spec& spec) {
  Outcome out;
  std::vector<double> setup_s, host_us, materialize_s, traffic_s, prepare_s;
  Totals totals;
  FleetReport first;
  std::vector<Request> requests;
  std::uint64_t bad_responses = 0;
  SpeedReference reference;
  double rss_mb = 0;

  const auto start = Clock::now();
  for (int k = 0; k < kMinReps || seconds_since(start) < args.seconds; ++k) {
    for (int r = 0; r < kReferencesPerRep; ++r) reference.measure();
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    Rep rep = run_once(spec, rep_seed(args.seed, k), spec.execute,
                       args.trace ? &tracer : nullptr, args.trace ? &metrics : nullptr, k == 0);
    setup_s.push_back(rep.setup_s);
    materialize_s.push_back(rep.materialize_s);
    traffic_s.push_back(rep.traffic_s);
    prepare_s.push_back(rep.prepare_s);
    host_us.push_back(rep.run_s / static_cast<double>(rep.report.offered) * 1e6);

    out.attempted += rep.report.offered;
    for (const Response& r : rep.report.responses) {
      if (r.status == ResponseStatus::kFailed || r.status == ResponseStatus::kLate) {
        ++bad_responses;
      }
    }
    if (!conserved(rep.report)) {
      ++out.mismatches;
      out.problems.push_back("responses do not account for every offered request");
    }
    totals.add(rep.report);
    // The high-water mark of the first repetitions, whose traffic depends on
    // the seed alone: later ones, as many as the host's speed allows, would
    // make the peak depend on how fast the host was.
    if (k + 1 == kMinReps) rss_mb = peak_rss_mb();
    if (k == 0) {
      if (args.trace && !args.trace_out.empty()) {
        const auto spans = tracer.spans();
        obs::write_chrome_trace(args.trace_out, spans.first(std::min(spans.size(), kChromeSpans)));
      }
      first = std::move(rep.report);
      requests = std::move(rep.requests);
    }
  }
  if (spec.execute) {
    const std::uint64_t bad = check_singleton_crcs(spec, rep_seed(args.seed, 0), first, requests);
    out.attempted += kEqualitySamples;
    out.mismatches += bad;
    if (bad > 0) out.problems.push_back("delivered CRCs differ from singleton reruns");
  }
  out.failed = bad_responses + out.mismatches;

  // The best repetition and the best set-up, rescaled by the speed
  // reference's best time in this process (harness.hpp): a repetition is one
  // thread of serve bookkeeping and tensor runs, slowed by co-tenants as the
  // reference is.
  const double best_host = *std::min_element(host_us.begin(), host_us.end());
  const double best_setup = *std::min_element(setup_s.begin(), setup_s.end());
  const double host = reference.rescale(best_host);
  const double energy_mj = totals.completed > 0 ? totals.energy_j * 1e3 / totals.completed : 0;
  out.metrics["setup_s"] = reference.rescale(best_setup);
  out.metrics["host_us_per_request"] = host;
  out.metrics["goodput"] = totals.completed / totals.offered;
  out.metrics["peak_rss_mb"] = rss_mb;
  out.extra.emplace_back("repetitions", std::to_string(host_us.size()));
  out.extra.emplace_back("offered", std::to_string(totals.offered));
  out.extra.emplace_back("completed", std::to_string(totals.completed));
  out.extra.emplace_back("best_us_per_request", std::to_string(best_host));
  out.extra.emplace_back("median_us_per_request", std::to_string(median(host_us)));
  out.extra.emplace_back("best_setup_s", std::to_string(best_setup));
  out.extra.emplace_back("speed_reference_best_us", std::to_string(reference.best_s() * 1e6));
  out.extra.emplace_back("sim_latency_p50_ms", std::to_string(percentile(totals.delivered_ms, 50)));
  out.extra.emplace_back("sim_latency_p95_ms", std::to_string(percentile(totals.delivered_ms, 95)));
  out.extra.emplace_back("sim_latency_p99_ms", std::to_string(percentile(totals.delivered_ms, 99)));
  out.extra.emplace_back("energy_mj_per_completed", std::to_string(energy_mj));
  if (!args.trace) return out;

  out.metrics["serve.lanes_per_batch"] = totals.batches > 0 ? totals.lanes / totals.batches : 0;
  out.metrics["serve.batch_fill"] =
      totals.lanes > 0 ? totals.lanes / (totals.lanes + totals.padded) : 0;
  out.metrics["serve.cache_hit_frac"] = totals.cache_hits / totals.offered;
  out.metrics["serve.shed_frac"] = totals.shed / totals.offered;
  out.metrics["serve.displaced_frac"] = totals.displaced / totals.offered;
  out.metrics["serve.max_brownout_level"] = totals.max_brownout;
  out.metrics["serve.scale_ups"] = totals.scale_ups / static_cast<double>(host_us.size());
  out.metrics["serve.sim_latency_p50_ms"] = percentile(totals.delivered_ms, 50);
  out.metrics["serve.sim_latency_p99_ms"] = percentile(totals.delivered_ms, 99);
  out.metrics["platform.energy_mj_per_completed"] = energy_mj;
  out.metrics["graph.materialize_s"] = median(materialize_s);
  out.metrics["serve.traffic_s"] = median(traffic_s);
  out.metrics["runtime.prepare_s"] = median(prepare_s);

  // The serve loop alone: the first repetition's traffic replayed in
  // analytic mode.
  std::vector<double> loop_us;
  for (int k = 0; k < kMinReps; ++k) {
    const Rep replay = run_once(spec, rep_seed(args.seed, 0), false, nullptr, nullptr, false);
    loop_us.push_back(replay.run_s / static_cast<double>(replay.report.offered) * 1e6);
  }
  out.metrics["serve.loop_us_per_request"] = median(loop_us);

  if (spec.execute) execute_split(spec, rep_seed(args.seed, 0), first, requests, out);
  out.failed = bad_responses + out.mismatches;
  if (args.baseline > 0) out.metrics["obs.tracing_overhead_frac"] = host / args.baseline - 1;
  return out;
}

}  // namespace

Outcome run_fleet_exec(const Args& args) {
  Spec spec;
  spec.execute = true;
  spec.base_hz = 2000;
  // Short repetitions (~4.5k requests), so a run holds enough of them for
  // its best one to find the host at its fastest.
  spec.duration_s = 1.25;
  spec.min_replicas = spec.initial_replicas = spec.max_replicas = 4;
  return run_fleet(args, spec);
}

Outcome run_fleet_overload(const Args& args) {
  Spec spec;
  spec.execute = false;
  spec.base_hz = 2500;
  spec.duration_s = 10;
  spec.min_replicas = 1;
  spec.initial_replicas = 1;
  spec.max_replicas = 8;
  return run_fleet(args, spec);
}

}  // namespace perfbench
