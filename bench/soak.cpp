// The one driver for the four deterministic soaks: serve (soak/chaos_soak.hpp),
// fleet (soak/fleet_soak.hpp), integrity (soak/integrity_soak.hpp) and ota
// (soak/ota_soak.hpp). Each soak is a table: the scenario configs it
// sweeps, its cross-run invariants, and the scenario a rerun must reproduce
// byte for byte. Each harness checks its own per-run invariants, the event
// mirror among them. Prints a summary table on stderr and one JSON-lines
// record per scenario on stdout (scripts/soak.sh captures those).
//
// Usage: soak <serve|fleet|integrity|ota> [--seed N] [--duration S] [--quick]
// Exit status 1 when any invariant is violated or the rerun diverges.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/zoo.hpp"
#include "soak/chaos_soak.hpp"
#include "soak/fleet_soak.hpp"
#include "soak/integrity_soak.hpp"
#include "soak/ota_soak.hpp"
#include "util/rng.hpp"

namespace {

namespace serve = vedliot::serve;
using namespace vedliot::soak;

struct Options {
  std::uint64_t seed = 0x5EEDu;
  std::optional<double> duration_s;  ///< overrides the soak's full or quick default
  bool quick = false;
};

/// Cross-run invariant: `value` over scenarios [first, last) never falls
/// (rising) or never rises (!rising).
template <class Result>
struct Monotone {
  std::size_t first = 0;
  std::size_t last = 0;
  bool rising = true;
  const char* what = "";
  double (*value)(const Result&) = nullptr;
};

template <class Config, class Result>
struct Soak {
  Result (*run)(const Config&) = nullptr;
  std::vector<Config> scenarios;           ///< one record each, in order
  std::vector<Monotone<Result>> monotone;  ///< cross-run invariants
  std::size_t rerun = 0;                   ///< the scenario the determinism rerun repeats
  const char* header = "";                 ///< stderr summary columns...
  void (*row)(const Result&) = nullptr;    ///< ...and one row per scenario
};

template <class Config, class Result>
bool drive(const Soak<Config, Result>& soak) {
  bool ok = true;
  const auto violation = [&ok](const std::string& v) {
    std::fprintf(stderr, "  INVARIANT VIOLATION: %s\n", v.c_str());
    ok = false;
  };
  std::fprintf(stderr, "%s\n", soak.header);
  std::vector<Result> results;
  for (const Config& cfg : soak.scenarios) {
    Result r = soak.run(cfg);
    soak.row(r);
    for (const std::string& v : r.violations) violation(v);
    std::printf("%s\n", r.to_json().c_str());
    results.push_back(std::move(r));
  }
  for (const Monotone<Result>& m : soak.monotone) {
    for (std::size_t i = m.first + 1; i < m.last; ++i) {
      const double prev = m.value(results[i - 1]);
      const double next = m.value(results[i]);
      if (m.rising ? next + 1e-9 < prev : next > prev + 1e-9) {
        violation(std::string(m.what) + " not monotone: " + std::to_string(prev) +
                  " at scenario " + std::to_string(i - 1) + ", " + std::to_string(next) +
                  " at scenario " + std::to_string(i));
      }
    }
  }
  if (soak.run(soak.scenarios[soak.rerun]).to_json() != results[soak.rerun].to_json()) {
    violation("rerun of scenario " + std::to_string(soak.rerun) + " diverged");
  }
  return ok;
}

bool serve_soak(const Options& o) {
  SoakConfig base;
  base.seed = o.seed;
  base.duration_s = o.duration_s.value_or(o.quick ? 0.8 : 2.0);
  Soak<SoakConfig, SoakResult> soak;
  soak.run = run_soak;
  for (const double rate : {0.0, 0.05, 0.2}) {
    soak.scenarios.push_back(base);
    soak.scenarios.back().fault_rate = rate;
  }
  // Same load at every rate, so more faults never buy more goodput.
  soak.monotone.push_back({0, 3, false, "goodput vs fault rate",
                           [](const SoakResult& r) { return r.goodput(); }});
  soak.header = "rate    offered completed   shed  missed  failed retries  goodput brownout";
  soak.row = [](const SoakResult& r) {
    std::fprintf(stderr, "%-6.2f %8zu %9zu %6zu %7zu %7zu %7zu %8.4f %8d\n", r.config.fault_rate,
                 r.report.offered, r.report.completed, r.report.shed, r.report.deadline_missed,
                 r.report.failed, r.report.retries, r.goodput(), r.report.max_brownout_level);
  };
  return drive(soak);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Wall-clock throughput of the batched path vs the per-request path over
/// the same eight inputs (best of \p reps). Returns the speedup factor.
double batching_speedup(int reps) {
  using vedliot::Tensor;
  vedliot::Graph mlp = vedliot::zoo::micro_mlp("fleet-throughput", 1, 1024, {1024, 1024}, 256);
  vedliot::Rng rng(0x7EED);
  mlp.materialize_weights(rng);

  serve::DynamicBatcher::Config bc;
  bc.max_batch = 8;
  serve::DynamicBatcher batcher(mlp, bc);
  const auto single = vedliot::runtime::make_session(mlp, {});

  std::vector<Tensor> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.emplace_back(vedliot::Shape({1, 1024}), rng.normal_vector(1024));
  }

  double best_single = 1e9;
  double best_batched = 1e9;
  for (int r = 0; r < reps + 1; ++r) {  // first lap is warmup
    auto start = std::chrono::steady_clock::now();
    for (const Tensor& x : inputs) (void)single->run_single(x);
    const double t_single = seconds_since(start);

    start = std::chrono::steady_clock::now();
    (void)batcher.run(inputs);
    const double t_batched = seconds_since(start);

    if (r == 0) continue;
    best_single = std::min(best_single, t_single);
    best_batched = std::min(best_batched, t_batched);
  }
  return best_single / best_batched;
}

bool fleet_soak(const Options& o) {
  using serve::TrafficPattern;
  FleetSoakConfig base;
  base.seed = o.seed;
  base.duration_s = o.duration_s.value_or(o.quick ? 0.5 : 2.0);
  const std::vector<std::size_t> sizes =
      o.quick ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 16};
  Soak<FleetSoakConfig, FleetSoakResult> soak;
  soak.run = run_fleet_soak;
  for (const TrafficPattern pattern :
       {TrafficPattern::kDiurnal, TrafficPattern::kFlashCrowd, TrafficPattern::kRetryStorm}) {
    // Capacity pinned and traffic shared, so more replicas never serve less.
    const std::size_t first = soak.scenarios.size();
    soak.monotone.push_back({first, first + sizes.size(), true, "goodput vs fleet size",
                             [](const FleetSoakResult& r) { return r.goodput(); }});
    for (const std::size_t size : sizes) {
      FleetSoakConfig cfg = base;
      cfg.pattern = pattern;
      cfg.fleet_size = size;
      cfg.autoscale = false;
      soak.scenarios.push_back(cfg);
    }
  }
  // Autoscaling: replicas must actually scale with a flash crowd.
  FleetSoakConfig scaled = base;
  scaled.pattern = TrafficPattern::kFlashCrowd;
  scaled.fleet_size = 8;
  scaled.autoscale = true;
  soak.scenarios.push_back(scaled);
  // Execute mode: real tensors through the bucket sessions, with the
  // batched-vs-singleton CRC equality check live.
  FleetSoakConfig exec = base;
  exec.pattern = TrafficPattern::kRetryStorm;
  exec.fleet_size = 2;
  exec.autoscale = false;
  exec.execute = true;
  exec.duration_s = std::min(base.duration_s, 0.5);
  exec.base_hz = 400.0;
  soak.scenarios.push_back(exec);
  soak.header =
      "pattern      fleet mode   offered completed   shed cancelled  cached  scale batches  "
      "goodput";
  soak.row = [](const FleetSoakResult& r) {
    const char* mode = r.config.execute ? "exec" : r.config.autoscale ? "auto" : "fixed";
    std::fprintf(stderr, "%-12s %5zu %-5s %8zu %9zu %6zu %9zu %7zu %2zu/%-3zu %7zu %8.4f\n",
                 serve::traffic_pattern_name(r.config.pattern).data(), r.config.fleet_size, mode,
                 r.report.offered, r.report.completed, r.report.shed, r.report.cancelled,
                 r.report.cache_hits, r.report.scale_ups, r.report.scale_downs, r.report.batches,
                 r.goodput());
  };
  bool ok = drive(soak);

  // Batched vs per-request wall clock: the whole point of the batcher.
  const double speedup = batching_speedup(o.quick ? 2 : 4);
  std::fprintf(stderr, "batching speedup at batch 8: %.2fx (floor 3x)\n", speedup);
  if (speedup < 3.0) {
    std::fprintf(stderr, "  INVARIANT VIOLATION: batched throughput %.2fx < 3x per-request path\n",
                 speedup);
    ok = false;
  }
  return ok;
}

bool integrity_soak(const Options& o) {
  IntegritySoakConfig base;
  base.seed = o.seed;
  base.duration_s = o.duration_s.value_or(o.quick ? 1.0 : 2.0);
  if (o.quick) base.arrival_hz = 200.0;
  Soak<IntegritySoakConfig, IntegritySoakResult> soak;
  soak.run = run_integrity_soak;
  for (const double rate : {0.0, 4.0, 12.0}) {
    soak.scenarios.push_back(base);
    soak.scenarios.back().flip_rate_hz = rate;
  }
  soak.rerun = 2;  // the most fault-heavy run: detection, repair and rollback all replay
  soak.header =
      "flips/s   offered completed    seu  scrub  reload  ota-rb   rej   det-max     bound";
  soak.row = [](const IntegritySoakResult& r) {
    std::fprintf(stderr, "%-8.1f %8zu %9zu %6zu %6zu %7zu %7zu %5zu %8.4fs %8.4fs\n",
                 r.config.flip_rate_hz, r.report.offered, r.report.completed,
                 r.report.memory_faults, r.report.scrub_hits, r.report.model_reloads,
                 r.report.ota_rolled_back, r.report.ota_rejected, r.max_detection_s,
                 r.detection_bound_s);
  };
  return drive(soak);
}

bool ota_soak(const Options& o) {
  OtaSoakConfig base;
  base.seed = o.seed;
  base.duration_s = o.duration_s.value_or(o.quick ? 2.0 : 4.0);
  base.n_devices = o.quick ? 6 : 12;
  Soak<OtaSoakConfig, OtaSoakResult> soak;
  soak.run = run_ota_soak;
  for (const double rate : {0.0, 0.05, 0.2}) {
    soak.scenarios.push_back(base);
    soak.scenarios.back().fault_rate = rate;
  }
  // Bad package: canary-wave halt plus paced fleet rollback, on a mildly
  // lossy fabric so the halt path composes with retries and resumes.
  soak.scenarios.push_back(base);
  soak.scenarios.back().fault_rate = 0.05;
  soak.scenarios.back().bad_package = true;
  // A lossier fabric never makes the rollout cheaper on the wire.
  soak.monotone.push_back({0, 3, true, "chunk retries vs fault rate",
                           [](const OtaSoakResult& r) {
                             return static_cast<double>(r.report.chunk_retries);
                           }});
  soak.rerun = 2;  // the loss-heaviest sweep point
  soak.header =
      "scenario      commit rollbk  chunks   retry   dup reord resume  paced  conv    done-at";
  soak.row = [](const OtaSoakResult& r) {
    std::fprintf(stderr, "loss=%.2f%-4s %6zu %6zu %7zu %7zu %5zu %5zu %6zu %6zu %5s %9.4fs\n",
                 r.config.fault_rate, r.config.bad_package ? " bad" : "",
                 r.report.devices_committed, r.report.devices_rolled_back, r.report.chunks_sent,
                 r.report.chunk_retries, r.report.duplicates, r.report.reorders,
                 r.report.resumes, r.report.rollbacks_paced, r.converged ? "yes" : "NO",
                 r.report.converged_at_s);
  };
  return drive(soak);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <serve|fleet|integrity|ota> [--seed N] [--duration S] [--quick]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, bool (*)(const Options&)> soaks = {
      {"serve", serve_soak}, {"fleet", fleet_soak}, {"integrity", integrity_soak},
      {"ota", ota_soak}};
  if (argc < 2 || !soaks.count(argv[1])) usage(argv[0]);
  const std::string name = argv[1];

  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      o.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--duration" && i + 1 < argc) {
      o.duration_s = std::strtod(argv[++i], nullptr);
    } else {
      usage(argv[0]);
    }
  }

  std::fprintf(stderr, "%s soak: seed=0x%llx%s\n", name.c_str(),
               static_cast<unsigned long long>(o.seed), o.quick ? " (quick)" : "");
  const bool ok = soaks.at(name)(o);
  std::fprintf(stderr, ok ? "%s soak OK: all invariants hold\n" : "%s soak FAILED\n",
               name.c_str());
  return ok ? 0 : 1;
}
