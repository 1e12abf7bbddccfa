// Tests for the fleet-scale serving layer: consistent-hash routing, the
// idempotency cache, traffic generation, the dynamic batcher's
// brownout-visible ExecConfig plumbing, chassis placement power honesty,
// request validation, conservation under failed batches, the full
// admit -> batch -> execute path's bitwise equality with per-request
// singleton runs, and the fleet soak with its one fleet-run check.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "graph/zoo.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "platform/baseboard.hpp"
#include "platform/faults.hpp"
#include "platform/placement.hpp"
#include "runtime/executor.hpp"
#include "serve/batcher.hpp"
#include "serve/cache.hpp"
#include "serve/ring.hpp"
#include "serve/traffic.hpp"
#include "soak/fleet_soak.hpp"
#include "soak/soak.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {
namespace {

using namespace soak;

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

TEST(HashRing, RoutesDeterministicallyAndOrderIndependent) {
  HashRing a(64);
  HashRing b(64);
  for (const char* m : {"r0", "r1", "r2"}) a.add(m);
  for (const char* m : {"r2", "r0", "r1"}) b.add(m);  // different order
  for (int i = 0; i < 200; ++i) {
    const std::string key = "client" + std::to_string(i);
    EXPECT_EQ(a.route(key), b.route(key));
  }
}

TEST(HashRing, RemovalRemapsOnlyTheRemovedMembersKeys) {
  HashRing ring(64);
  for (const char* m : {"r0", "r1", "r2", "r3"}) ring.add(m);
  std::map<std::string, std::string> before;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "client" + std::to_string(i);
    before[key] = ring.route(key);
  }
  ring.remove("r2");
  for (const auto& [key, owner] : before) {
    if (owner != "r2") {
      EXPECT_EQ(ring.route(key), owner) << key;  // untouched arc
    } else {
      EXPECT_NE(ring.route(key), "r2");
    }
  }
}

TEST(HashRing, VirtualNodesKeepLoadRoughlyBalanced) {
  // Virtual nodes are the smoothing mechanism: a single point per member
  // leaves arc lengths wildly uneven, many points average them out. Check
  // both that 256 vnodes hold every member within 4x of fair share and
  // that they are measurably smoother than a 4-vnode ring.
  auto spread = [](const std::map<std::string, double>& load) {
    double lo = 1.0, hi = 0.0;
    for (const auto& [member, fraction] : load) {
      lo = std::min(lo, fraction);
      hi = std::max(hi, fraction);
    }
    return hi / lo;
  };
  HashRing smooth(256);
  HashRing coarse(4);
  for (int i = 0; i < 8; ++i) {
    smooth.add("replica" + std::to_string(i));
    coarse.add("replica" + std::to_string(i));
  }
  const auto load = smooth.load_fractions(4096);
  ASSERT_EQ(load.size(), 8u);
  for (const auto& [member, fraction] : load) {
    EXPECT_GT(fraction, 0.125 / 4.0) << member;  // no starved member
    EXPECT_LT(fraction, 0.125 * 4.0) << member;  // no hot-spotted member
  }
  EXPECT_LT(spread(load), spread(coarse.load_fractions(4096)));
}

TEST(HashRing, WeightedMembersOwnProportionalArcs) {
  HashRing ring(256);
  ring.add("fast", 1.0);
  ring.add("slow", 0.25);
  const auto load = ring.load_fractions(8192);
  // Expected split 0.8 / 0.2; allow generous hash-variance slack while
  // still distinguishing it decisively from an even split.
  EXPECT_GT(load.at("fast"), 0.65);
  EXPECT_LT(load.at("slow"), 0.35);
  EXPECT_GT(load.at("slow"), 0.05);
  EXPECT_THROW(ring.add("zero", 0.0), InvalidArgument);
  EXPECT_THROW(ring.add("negative", -1.0), InvalidArgument);
}

TEST(HashRing, RejectsDuplicatesEmptyNamesAndUnknownRemovals) {
  HashRing ring(8);
  ring.add("r0");
  EXPECT_THROW(ring.add("r0"), InvalidArgument);
  EXPECT_THROW(ring.add(""), InvalidArgument);
  EXPECT_THROW(ring.remove("ghost"), NotFound);
  ring.remove("r0");
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.route("anyone"), Error);
}

// ---------------------------------------------------------------------------
// Idempotency response cache
// ---------------------------------------------------------------------------

Response canned_response(std::uint64_t id) {
  Response r;
  r.request_id = id;
  r.status = ResponseStatus::kOk;
  return r;
}

TEST(ResponseCache, HitsRefreshRecencyAndEvictLru) {
  ResponseCache cache(2);
  cache.put("a", canned_response(1));
  cache.put("b", canned_response(2));
  ASSERT_TRUE(cache.get("a").has_value());  // refresh "a": now "b" is LRU
  cache.put("c", canned_response(3));       // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResponseCache, EmptyKeysNeverCache) {
  ResponseCache cache(4);
  cache.put("", canned_response(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("").has_value());
}

// ---------------------------------------------------------------------------
// Traffic generation
// ---------------------------------------------------------------------------

TEST(Traffic, DeterministicSortedAndVersioned) {
  TrafficConfig cfg;
  cfg.pattern = TrafficPattern::kDiurnal;
  cfg.duration_s = 0.5;
  cfg.base_hz = 500;
  const auto a = generate_traffic(cfg);
  const auto b = generate_traffic(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client, b[i].client);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].version, kServeApiVersion);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    }
    EXPECT_GT(a[i].deadline_s, a[i].arrival_s);
  }
}

TEST(Traffic, RetryStormSharesIdempotencyKeys) {
  TrafficConfig cfg;
  cfg.pattern = TrafficPattern::kRetryStorm;
  cfg.duration_s = 0.5;
  cfg.base_hz = 200;
  const auto load = generate_traffic(cfg);
  std::map<std::string, std::size_t> by_key;
  for (const Request& r : load) {
    if (!r.idempotency_key.empty()) ++by_key[r.idempotency_key];
  }
  // At least one storm wave re-submitted the same key many times, and
  // every share of one key shares one payload (identical work).
  std::size_t max_repeats = 0;
  for (const auto& [key, count] : by_key) max_repeats = std::max(max_repeats, count);
  EXPECT_GE(max_repeats, cfg.storm_burst / 2);
  std::map<std::string, std::set<std::uint64_t>> payloads;
  for (const Request& r : load) {
    if (!r.idempotency_key.empty()) payloads[r.idempotency_key].insert(r.payload);
  }
  for (const auto& [key, set] : payloads) EXPECT_EQ(set.size(), 1u) << key;
}

TEST(Traffic, ZipfConcentratesOnHotRanks) {
  ZipfSampler zipf(1'000'000, 1.1);
  Rng rng(42);
  std::size_t head = 0;
  const std::size_t draws = 4096;
  for (std::size_t i = 0; i < draws; ++i) {
    if (zipf.sample(rng.uniform()) < 100) ++head;  // hottest 100 of 1M
  }
  // Heavy tail: the top 0.01% of the population draws a large share.
  EXPECT_GT(head, draws / 10);
}

// ---------------------------------------------------------------------------
// Dynamic batcher: brownout shrink is visible through the Session API
// ---------------------------------------------------------------------------

Graph small_mlp(std::uint64_t seed) {
  Graph g = zoo::micro_mlp("fleet-test", 1, 16, {16}, 4);
  Rng rng(seed);
  g.materialize_weights(rng);
  return g;
}

TEST(DynamicBatcher, BrownoutShrinkEnforcedByBucketSessions) {
  Graph g = small_mlp(11);
  DynamicBatcher::Config bc;
  bc.max_batch = 8;
  DynamicBatcher batcher(g, bc);
  EXPECT_EQ(batcher.effective_max_batch(), 8);

  // A brownout rung shrinks the cap live. The wide buckets must now refuse
  // their own feeds through Session's admission check — the shrink is
  // runtime-enforced, not batcher bookkeeping.
  runtime::ExecConfig rung;
  rung.max_batch = 2;
  batcher.set_exec_config(rung);
  EXPECT_EQ(batcher.effective_max_batch(), 2);

  Rng data_rng(12);
  Tensor wide(Shape{8, 16}, data_rng.normal_vector(8 * 16));
  EXPECT_THROW((void)batcher.bucket_session(8).run_single(wide), ExecError);
  Tensor narrow(Shape{2, 16}, data_rng.normal_vector(2 * 16));
  EXPECT_NO_THROW((void)batcher.bucket_session(2).run_single(narrow));

  // Recovery restores the full ladder.
  batcher.set_exec_config({});
  EXPECT_EQ(batcher.effective_max_batch(), 8);
  EXPECT_NO_THROW((void)batcher.bucket_session(8).run_single(wide));
}

TEST(DynamicBatcher, PadsToBucketAndSplitsBitwise) {
  Graph g = small_mlp(13);
  DynamicBatcher::Config bc;
  bc.max_batch = 4;
  DynamicBatcher batcher(g, bc);

  Rng data_rng(14);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) inputs.emplace_back(Shape{1, 16}, data_rng.normal_vector(16));
  const auto outputs = batcher.run(inputs);  // 3 lanes on the width-4 bucket
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(batcher.padded_lanes(), 1u);

  const auto single = runtime::make_session(g, {});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor ref = single->run_single(inputs[i]);
    EXPECT_EQ(util::crc32(outputs[i].data()), util::crc32(ref.data())) << i;
  }
}

// ---------------------------------------------------------------------------
// Chassis placement and power honesty
// ---------------------------------------------------------------------------

TEST(FleetPlacement, InstallsUnderBudgetsAndMetersPower) {
  platform::FleetPlacement::Config cfg;
  cfg.board = platform::recs_box();
  cfg.modules = {"COMe-XavierAGX", "COMe-D1577"};
  platform::FleetPlacement placement(cfg);

  for (int i = 0; i < 6; ++i) {
    const auto& p = placement.place("replica" + std::to_string(i));
    EXPECT_FALSE(p.slot.empty());
  }
  placement.meter("replica0", /*joules=*/5.0, /*seconds=*/1.0);
  const auto report = placement.power_report();
  ASSERT_EQ(report.size(), 6u);
  for (const auto& slot : report) {
    EXPECT_GT(slot.budget_w, 0.0);
    EXPECT_LE(slot.avg_power_w(), slot.budget_w + 1e-9) << slot.replica;
  }
}

// ---------------------------------------------------------------------------
// Fleet soaks: invariants, determinism, autoscaling
// ---------------------------------------------------------------------------

FleetSoakConfig quick_soak() {
  FleetSoakConfig cfg;
  cfg.duration_s = 0.25;
  cfg.base_hz = 400;
  cfg.fleet_size = 2;
  cfg.autoscale = false;
  return cfg;
}

TEST(FleetSoak, AnalyticInvariantsHold) {
  const FleetSoakResult r = run_fleet_soak(quick_soak());
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_GT(r.report.offered, 0u);
  EXPECT_EQ(r.report.responses.size(), r.report.offered);
}

TEST(FleetSoak, SameSeedIsBitwiseDeterministic) {
  const FleetSoakResult a = run_fleet_soak(quick_soak());
  const FleetSoakResult b = run_fleet_soak(quick_soak());
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(FleetSoak, AutoscaleAddsReplicasUnderFlashCrowd) {
  FleetSoakConfig cfg = quick_soak();
  cfg.pattern = TrafficPattern::kFlashCrowd;
  cfg.duration_s = 0.5;
  cfg.base_hz = 2000;
  cfg.fleet_size = 4;
  cfg.autoscale = true;
  const FleetSoakResult r = run_fleet_soak(cfg);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations.front());
  EXPECT_GT(r.report.scale_ups, 0u);
  EXPECT_LE(r.report.max_replicas, cfg.fleet_size);
}

TEST(FleetSoak, MoreReplicasNeverServeLess) {
  std::vector<FleetSoakResult> sweep;
  for (std::size_t size : {1, 2, 4}) {
    FleetSoakConfig cfg = quick_soak();
    cfg.base_hz = 1200;  // overloaded at size 1, so capacity matters
    cfg.fleet_size = size;
    sweep.push_back(run_fleet_soak(cfg));
  }
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].goodput() + 1e-9, sweep[i - 1].goodput())
        << "fleet size " << sweep[i].config.fleet_size;
  }
}

// ---------------------------------------------------------------------------
// The one fleet-run check: a clean hand-built run passes, and each contract
// fails on its own violation
// ---------------------------------------------------------------------------

/// A hand-built run against a fleet of at most 2 replicas, batch cap 4 and
/// queue capacity 8: request 1 (arrival 10 ms, deadline 30 ms) completed at
/// 25 ms in a full batch on replica0, whose slot drew 30 W of a 30 W budget.
struct HandBuiltRun {
  SoakProbe probe;
  FleetConfig cfg;
  Submitted requests;
  FleetReport report;
  platform::FaultTimeline faults;

  HandBuiltRun() {
    cfg.max_batch = 4;
    cfg.queue_capacity = 8;
    cfg.max_replicas = 2;
    cfg.trace = &probe.trace;
    cfg.metrics = &probe.metrics;
    report.max_queue_depth = 8;
    report.max_replicas = 2;
    report.power.push_back({"replica0", "come0", 30.0, 50.0, 3.0, 0.1});
    offer(1, 10e-3, 30e-3, ResponseStatus::kOk, 25e-3);
    log(25e-3, ServeEventKind::kBatchExecuted, "replica0", 4);
  }

  void offer(std::uint64_t id, double arrival_s, double deadline_s, ResponseStatus status,
             double time_s) {
    Request r;
    r.id = id;
    r.client = "client0";
    r.arrival_s = arrival_s;
    r.deadline_s = deadline_s;
    requests.emplace(id, r);
    Response resp;
    resp.request_id = id;
    resp.status = status;
    resp.time_s = time_s;
    report.responses.push_back(resp);
    ++report.offered;
    ++(status == ResponseStatus::kLate ? report.deadline_missed : report.completed);
  }

  /// Logged through the run's probe, so the event mirror holds.
  void log(double t, ServeEventKind kind, const std::string& subject, double value = 0) {
    EventLog events("vedliot.fleet", &probe.trace, &probe.metrics);
    events.add(t, kind, subject, "", value);
    for (ServeEvent& e : events.take()) report.events.push_back(std::move(e));
  }

  std::vector<std::string> violations() const {
    std::vector<std::string> v;
    check_fleet_run(cfg, requests, report, faults, v);
    return v;
  }
};

platform::FaultEvent throttle_at(double t) {
  platform::FaultEvent e;
  e.time_s = t;
  e.kind = platform::FaultKind::kThermalThrottle;
  e.slot = "come0";
  e.magnitude = 0.5;
  return e;
}

TEST(FleetRunCheck, CleanRunHoldsEveryContract) {
  const HandBuiltRun run;
  EXPECT_EQ(run.violations(), std::vector<std::string>{});
}

TEST(FleetRunCheck, FlagsAMissingTerminalResponse) {
  HandBuiltRun run;
  run.report.offered = 2;
  EXPECT_EQ(run.violations(), std::vector<std::string>{"conservation: 1 responses for 2 offered"});
}

TEST(FleetRunCheck, FlagsAQueueOverCapacity) {
  HandBuiltRun run;
  run.report.max_queue_depth = 9;
  EXPECT_EQ(run.violations(),
            std::vector<std::string>{"bounded queues: depth 9 exceeded capacity 8"});
}

TEST(FleetRunCheck, FlagsReplicasOverTheBound) {
  HandBuiltRun run;
  run.report.max_replicas = 3;
  EXPECT_EQ(run.violations(),
            std::vector<std::string>{"replica bound: 3 replicas exceeded the maximum 2"});
}

TEST(FleetRunCheck, FlagsABatchOverTheLaneCap) {
  HandBuiltRun run;
  run.log(40e-3, ServeEventKind::kBatchExecuted, "replica1", 5);
  EXPECT_EQ(run.violations(),
            std::vector<std::string>{
                "batch honesty: 5.000000 lanes on replica1 exceeded the configured cap 4"});
}

TEST(FleetRunCheck, FlagsASlotOverItsPowerBudgetOrModuleEnvelope) {
  HandBuiltRun run;
  run.report.power.front().joules = 4.0;  // 40 W over 0.1 s busy, budget 30 W
  run.report.power.push_back({"replica1", "come1", 60.0, 50.0, 5.5, 0.1});  // 55 W, cap 50 W
  EXPECT_EQ(run.violations(),
            (std::vector<std::string>{
                "power honesty: replica0 at come0 averaged 40.000000 W against slot budget "
                "30.000000 W",
                "power honesty: replica1 averaged 55.000000 W over its module envelope "
                "50.000000 W"}));
}

TEST(FleetRunCheck, FlagsAnOkResponsePastItsDeadline) {
  HandBuiltRun run;
  run.offer(2, 20e-3, 40e-3, ResponseStatus::kOk, 45e-3);
  EXPECT_EQ(run.violations(),
            std::vector<std::string>{
                "capacity honesty: request 2 marked ok at 0.045000s past deadline 0.040000s"});
}

TEST(FleetRunCheck, FlagsAnUnexcusedMiss) {
  const std::vector<std::string> unexcused{
      "capacity honesty: request 2 delivered late at 0.050000s outside any fault window"};
  // No fault scheduled: nothing excuses a late delivery, a retry included.
  HandBuiltRun run;
  run.offer(2, 20e-3, 40e-3, ResponseStatus::kLate, 50e-3);
  EXPECT_EQ(run.violations(), unexcused);
  run.log(30e-3, ServeEventKind::kRetry, "request 2");
  EXPECT_EQ(run.violations(), unexcused);
  // A fault scheduled beyond the miss's lifetime +- 0.25 s excuses no
  // unretried miss.
  HandBuiltRun far;
  far.offer(2, 20e-3, 40e-3, ResponseStatus::kLate, 50e-3);
  far.faults.push(throttle_at(0.31));
  EXPECT_EQ(far.violations(), unexcused);
}

TEST(FleetRunCheck, ARetryOrAFaultWindowExcusesAMiss) {
  // Under a fault campaign a retry of the request excuses its miss, even
  // when no scheduled fault overlaps the miss.
  HandBuiltRun retried;
  retried.offer(2, 20e-3, 40e-3, ResponseStatus::kLate, 50e-3);
  retried.faults.push(throttle_at(0.31));
  retried.log(30e-3, ServeEventKind::kRetry, "request 2");
  EXPECT_EQ(retried.violations(), std::vector<std::string>{});

  HandBuiltRun faulted;
  faulted.offer(2, 20e-3, 40e-3, ResponseStatus::kLate, 50e-3);
  faulted.faults.push(throttle_at(0.29));  // within 0.25 s after the miss
  EXPECT_EQ(faulted.violations(), std::vector<std::string>{});
}

TEST(FleetRunCheck, ChecksTheEventMirrorAndTagsEveryViolationWithTheSimulator) {
  HandBuiltRun run;
  run.report.max_queue_depth = 9;
  // An event the tracer never saw breaks the mirror.
  run.report.events.push_back(ServeEvent{30e-3, ServeEventKind::kScaleUp, "fleet", "", 2});
  SoakWorld world = recs_world(run.cfg, 1, 0.0);
  run.cfg.sim = &world.sim;
  const std::string tag = " [" + world.sim.describe() + "]";
  EXPECT_EQ(run.violations(),
            (std::vector<std::string>{"bounded queues: depth 9 exceeded capacity 8" + tag,
                                      "tracer mirror count 1 != event count 2" + tag}));
}

// ---------------------------------------------------------------------------
// Request validation and conservation under faults
// ---------------------------------------------------------------------------

const Graph& analytic_resnet() {
  static const Graph g = zoo::resnet50(1, 100, 64);
  return g;
}

Request valid_request() {
  Request r;
  r.client = "client0";
  r.arrival_s = 1e-3;
  r.deadline_s = 21e-3;
  return r;
}

TEST(Fleet, SubmitRejectsMalformedRequests) {
  FleetConfig cfg;
  cfg.graph = &analytic_resnet();
  Fleet fleet(cfg);

  Request wrong_version = valid_request();
  wrong_version.version = kServeApiVersion + 1;
  EXPECT_THROW(fleet.submit(wrong_version), Error);
  Request no_client = valid_request();
  no_client.client.clear();
  EXPECT_THROW(fleet.submit(no_client), Error);
  Request deadline_at_arrival = valid_request();
  deadline_at_arrival.deadline_s = deadline_at_arrival.arrival_s;
  EXPECT_THROW(fleet.submit(deadline_at_arrival), Error);
  Request deadline_before_arrival = valid_request();
  deadline_before_arrival.deadline_s = 0.5e-3;
  EXPECT_THROW(fleet.submit(deadline_before_arrival), Error);
  Request no_lanes = valid_request();
  no_lanes.batch = 0;
  EXPECT_THROW(fleet.submit(no_lanes), Error);

  Request explicit_id = valid_request();
  explicit_id.id = 42;
  EXPECT_EQ(fleet.submit(explicit_id), 42u);
  Request duplicate = valid_request();
  duplicate.id = 42;
  duplicate.arrival_s = 5e-3;
  duplicate.deadline_s = 9e-3;
  EXPECT_THROW(fleet.submit(duplicate), Error);
  EXPECT_EQ(fleet.submit(valid_request()), 43u);  // auto ids continue past 42

  // Only the two valid requests were offered.
  const FleetReport r = fleet.run(0.1);
  EXPECT_EQ(r.offered, 2u);
  EXPECT_EQ(r.responses.size(), 2u);
}

TEST(Fleet, PartitionedReplicaWithEmptyRetryBudgetFailsAndConserves) {
  platform::Chassis chassis(platform::recs_box());
  chassis.install("come0", platform::find_module("COMe-XavierAGX"));
  platform::PlatformSimulator sim(
      chassis, platform::star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0}));
  platform::FaultEvent drop;
  drop.time_s = 0.5e-3;
  drop.kind = platform::FaultKind::kLinkDrop;
  drop.a = "come0";
  drop.b = "switch0";
  sim.schedule(drop);

  FleetConfig cfg;
  cfg.graph = &analytic_resnet();
  cfg.modules = {"COMe-XavierAGX"};
  cfg.min_replicas = cfg.initial_replicas = cfg.max_replicas = 1;
  cfg.sim = &sim;
  cfg.retry_tokens_per_request = 0.0;  // no retry is ever affordable
  Fleet fleet(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    Request r = valid_request();
    r.client = "client" + std::to_string(i);
    r.arrival_s = 1e-3 * (i + 1);
    r.deadline_s = r.arrival_s + 40e-3;
    ids.push_back(fleet.submit(r));
  }
  const FleetReport r = fleet.run(0.1);

  EXPECT_EQ(r.failed, 6u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.completed + r.deadline_missed + r.shed + r.cancelled + r.failed, r.offered);
  for (const Response& resp : r.responses) EXPECT_EQ(resp.status, ResponseStatus::kFailed);
  std::vector<std::string> violations;
  check_conservation(r, ids, violations);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
}

// ---------------------------------------------------------------------------
// Full-path batched-vs-singleton bitwise equality: ResNet-50 / MobileNetV3,
// float and int8, through admit -> route -> coalesce -> execute.
// ---------------------------------------------------------------------------

/// BN-fold + activation-fuse + calibrate, the int8 deployment pipeline.
Graph deploy_ready_int8(Graph g, std::uint64_t seed, const Shape& input_shape) {
  Rng rng(seed);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> samples;
  Rng data_rng(seed + 1);
  for (int i = 0; i < 2; ++i) {
    samples.emplace_back(input_shape,
                         data_rng.normal_vector(static_cast<std::size_t>(input_shape.numel())));
  }
  opt::calibrate_activations(g, samples, Calibration::kMinMax);
  return g;
}

struct EqualityCase {
  const char* model;
  bool quantized;
};

class FleetBatchedEquality : public ::testing::TestWithParam<EqualityCase> {};

TEST_P(FleetBatchedEquality, LanesMatchSingletonRunsBitwise) {
  const auto& param = GetParam();
  Graph model = param.model == std::string("resnet50")
                    ? zoo::resnet50(1, 10, 32)
                    : zoo::mobilenet_v3_large(1, 10, 32);
  if (param.quantized) {
    model = deploy_ready_int8(std::move(model), 0xBEEF, Shape{1, 3, 32, 32});
  } else {
    Rng rng(0xBEEF);
    model.materialize_weights(rng);
  }

  FleetConfig cfg;
  cfg.graph = &model;
  cfg.variants = {{"deploy", &model, DType::kFP32, param.quantized}};
  cfg.execute = true;
  cfg.max_batch = 2;  // buckets 1 and 2: enough to prove coalescing
  cfg.initial_replicas = 1;
  cfg.min_replicas = 1;
  cfg.max_replicas = 1;
  cfg.seed = 0xF1EE7;

  Fleet fleet(cfg);
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.client = "client" + std::to_string(i);
    r.arrival_s = 0.0;  // simultaneous: forces coalescing into batches
    r.deadline_s = 60.0;
    r.payload = 1000 + static_cast<std::uint64_t>(i);
    fleet.submit(std::move(r));
  }
  const FleetReport report = fleet.run(0.5);

  ASSERT_EQ(report.responses.size(), 4u);
  EXPECT_GT(report.batches, 0u);
  bool saw_coalesced = false;
  for (const ServeEvent& e : report.events) {
    if (e.kind == ServeEventKind::kBatchExecuted && e.value > 1.0) saw_coalesced = true;
  }
  EXPECT_TRUE(saw_coalesced) << "no batch wider than one lane was executed";

  // Every delivered CRC must equal a from-scratch singleton run of the
  // same synthesized input on a batch-1 build of the same model.
  const Graph lane_graph = rebatched(model, 1);
  auto single = param.quantized ? runtime::make_quantized_session(lane_graph, {})
                                : runtime::make_session(lane_graph, {});
  std::size_t checked = 0;
  for (const Response& resp : report.responses) {
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.request_id;
    if (resp.cache_hit) continue;
    Request probe;
    probe.id = resp.request_id;
    probe.payload = 999 + resp.request_id;  // ids assigned 1..4 in submit order
    probe.batch = 1;
    const Tensor x = synthesize_input(model, cfg.seed, probe);
    const Tensor y = single->run_single(x);
    EXPECT_EQ(resp.output_crc32, util::crc32(y.data())) << resp.request_id;
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

// MobileNetV3 int8 is excluded: the integer executor rejects fused HSwish
// (Relu/Relu6 only), matching the PR 5 serving soak where the mnv3-int8
// ladder rung is declared but never executed. The rejection is pinned below.
INSTANTIATE_TEST_SUITE_P(Models, FleetBatchedEquality,
                         ::testing::Values(EqualityCase{"resnet50", false},
                                           EqualityCase{"resnet50", true},
                                           EqualityCase{"mnv3", false}),
                         [](const ::testing::TestParamInfo<EqualityCase>& info) {
                           return std::string(info.param.model) +
                                  (info.param.quantized ? "_int8" : "_f32");
                         });

TEST(FleetBatchedEqualityLimits, MobileNetV3Int8IsRejectedAsUnsupported) {
  Graph model = deploy_ready_int8(zoo::mobilenet_v3_large(1, 10, 32), 0xBEEF,
                                  Shape{1, 3, 32, 32});
  EXPECT_THROW((void)runtime::make_quantized_session(model, {})->run_single(Tensor(
                   Shape{1, 3, 32, 32}, std::vector<float>(3 * 32 * 32, 0.5f))),
               Unsupported);
}

}  // namespace
}  // namespace vedliot::serve
