// Tests for the overload-safe serving layer: the circuit breaker, the
// bounded priority/EDF admission queue and the hysteretic brownout ladder
// as units, the fleet's fault policies end-to-end over a fault-injecting
// PlatformSimulator (shedding, displacement, breaker cycles, thermal
// deadline misses, retry budgets, obs mirroring, determinism, robustness
// wiring in execute mode, integrity mode), the EventLog mirror and digest
// shared by every engine, and the chaos and integrity soak invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/baseboard.hpp"
#include "platform/fabric.hpp"
#include "platform/faults.hpp"
#include "platform/microserver.hpp"
#include "graph/package.hpp"
#include "safety/model_store.hpp"
#include "safety/robustness.hpp"
#include "serve/breaker.hpp"
#include "serve/brownout.hpp"
#include "serve/event_log.hpp"
#include "serve/queue.hpp"
#include "serve/fleet.hpp"
#include "soak/chaos_soak.hpp"
#include "soak/integrity_soak.hpp"
#include "soak/soak.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {
namespace {

using namespace soak;

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, TripsOpenAfterConsecutiveFailures) {
  CircuitBreaker b(BreakerConfig{3, 50e-3, 2});
  EXPECT_TRUE(b.allow());
  EXPECT_FALSE(b.record_failure(0.01, "boom"));
  EXPECT_FALSE(b.record_failure(0.02, "boom"));
  // A success in between resets the consecutive count.
  EXPECT_FALSE(b.record_success(0.03));
  EXPECT_EQ(b.consecutive_failures(), 0);
  EXPECT_FALSE(b.record_failure(0.04, "boom"));
  EXPECT_FALSE(b.record_failure(0.05, "boom"));
  const auto tripped = b.record_failure(0.06, "boom");
  ASSERT_TRUE(tripped.has_value());
  EXPECT_EQ(tripped->from, BreakerState::kClosed);
  EXPECT_EQ(tripped->to, BreakerState::kOpen);
  EXPECT_FALSE(b.allow());
}

TEST(CircuitBreaker, HalfOpenProbeCycleClosesOnSuccesses) {
  CircuitBreaker b(BreakerConfig{1, 50e-3, 2});
  ASSERT_TRUE(b.record_failure(0.0, "boom"));
  // Cooldown not yet expired: still open.
  EXPECT_FALSE(b.tick(0.04));
  EXPECT_FALSE(b.allow());
  const auto probing = b.tick(0.051);
  ASSERT_TRUE(probing.has_value());
  EXPECT_EQ(probing->to, BreakerState::kHalfOpen);

  // Two probe slots, then the door shuts until a result comes back.
  EXPECT_TRUE(b.allow());
  b.on_dispatch();
  EXPECT_TRUE(b.allow());
  b.on_dispatch();
  EXPECT_FALSE(b.allow());

  EXPECT_FALSE(b.record_success(0.06));
  const auto closed = b.record_success(0.07);
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->to, BreakerState::kClosed);
  EXPECT_TRUE(b.allow());
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopens) {
  CircuitBreaker b(BreakerConfig{1, 50e-3, 2});
  ASSERT_TRUE(b.record_failure(0.0, "boom"));
  ASSERT_TRUE(b.tick(0.06));
  b.on_dispatch();
  const auto reopened = b.record_failure(0.07, "probe failed");
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->from, BreakerState::kHalfOpen);
  EXPECT_EQ(reopened->to, BreakerState::kOpen);
  // The new cooldown anchors at the reopen time, not the original trip.
  EXPECT_FALSE(b.tick(0.11));
  EXPECT_TRUE(b.tick(0.13));
}

TEST(CircuitBreaker, ForceOpenKillsAnyStateAndRefreshesCooldown) {
  CircuitBreaker b(BreakerConfig{3, 50e-3, 2});
  const auto killed = b.force_open(0.0, "heartbeat down");
  ASSERT_TRUE(killed.has_value());
  EXPECT_EQ(killed->to, BreakerState::kOpen);
  // Re-arming while already open is not a transition but pushes the
  // cooldown out, so a flapping backend cannot shorten its penalty.
  EXPECT_FALSE(b.force_open(0.04, "still down"));
  EXPECT_FALSE(b.tick(0.06));  // 50 ms from the *second* force_open
  EXPECT_TRUE(b.tick(0.091));
  // A stale success from before the kill must not close an open breaker.
  CircuitBreaker c(BreakerConfig{3, 50e-3, 2});
  c.force_open(0.0, "down");
  EXPECT_FALSE(c.record_success(0.01));
  EXPECT_EQ(c.state(), BreakerState::kOpen);
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

Ticket ticket(std::uint64_t id, int priority, double deadline, double enqueued = 0,
              double not_before = 0) {
  return Ticket{id, priority, deadline, not_before, enqueued};
}

TEST(AdmissionQueue, PopServesPriorityThenEarliestDeadline) {
  AdmissionQueue q(QueueConfig{8});
  q.push(ticket(1, 0, 0.9));
  q.push(ticket(2, 0, 0.3));
  q.push(ticket(3, 1, 0.8));
  q.push(ticket(4, 1, 0.5));
  std::vector<std::uint64_t> order;
  while (const auto t = q.pop(0.0)) order.push_back(t->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 3, 2, 1}));
}

TEST(AdmissionQueue, FifoThenIdBreakRemainingTies) {
  AdmissionQueue q(QueueConfig{8});
  q.push(ticket(7, 0, 0.5, 0.2));
  q.push(ticket(5, 0, 0.5, 0.1));
  q.push(ticket(6, 0, 0.5, 0.1));
  std::vector<std::uint64_t> order;
  while (const auto t = q.pop(0.0)) order.push_back(t->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{5, 6, 7}));
}

TEST(AdmissionQueue, NotBeforeGatesDispatchUntilBackoffPasses) {
  AdmissionQueue q(QueueConfig{8});
  q.push(ticket(1, 0, 1.0, 0.0, 0.5));  // backing off until t=0.5
  q.push(ticket(2, 0, 2.0));
  const auto first = q.pop(0.1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 2u);  // 1 has the earlier deadline but is gated
  EXPECT_FALSE(q.pop(0.1).has_value());
  const auto second = q.pop(0.5);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 1u);
}

TEST(AdmissionQueue, ExpireRemovesOnlyPastDeadlineTickets) {
  AdmissionQueue q(QueueConfig{8});
  q.push(ticket(1, 0, 0.2));
  q.push(ticket(2, 0, 0.8));
  q.push(ticket(3, 1, 0.1));
  const auto dead = q.expire(0.5);
  ASSERT_EQ(dead.size(), 2u);
  EXPECT_EQ(q.depth(), 1u);
  EXPECT_EQ(q.pop(0.5)->id, 2u);
}

TEST(AdmissionQueue, DisplaceEvictsWorstStrictlyLowerPriority) {
  AdmissionQueue q(QueueConfig{3});
  q.push(ticket(1, 0, 0.3));
  q.push(ticket(2, 0, 0.9));  // lowest class, latest deadline -> the victim
  q.push(ticket(3, 1, 0.5));
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(ticket(9, 2, 1.0)), Error);
  EXPECT_FALSE(q.displace(0).has_value());  // nothing strictly below 0
  const auto victim = q.displace(1);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->id, 2u);
  EXPECT_EQ(q.depth(), 2u);
}

// ---------------------------------------------------------------------------
// BrownoutLadder
// ---------------------------------------------------------------------------

TEST(BrownoutLadder, HystereticStepDownAndRecovery) {
  BrownoutLadder l(BrownoutConfig{0.75, 0.25, 3, 4}, {{0, 8}, {0, 4}, {0, 2}});
  // Two hot observations are not enough; the mid-band resets the streak.
  EXPECT_EQ(l.observe(0.9), 0);
  EXPECT_EQ(l.observe(0.9), 0);
  EXPECT_EQ(l.observe(0.5), 0);
  EXPECT_EQ(l.observe(0.9), 0);
  EXPECT_EQ(l.observe(0.9), 0);
  EXPECT_EQ(l.observe(0.9), 1);
  EXPECT_EQ(l.level(), 1);
  // Recovery needs the (longer) calm streak, also reset by the mid-band.
  EXPECT_EQ(l.observe(0.1), 0);
  EXPECT_EQ(l.observe(0.1), 0);
  EXPECT_EQ(l.observe(0.1), 0);
  EXPECT_EQ(l.observe(0.5), 0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(l.observe(0.1), 0);
  EXPECT_EQ(l.observe(0.1), -1);
  EXPECT_EQ(l.level(), 0);
}

TEST(BrownoutLadder, ClampsAtBothEnds) {
  BrownoutLadder l(BrownoutConfig{0.75, 0.25, 1, 1}, {{0, 8}, {0, 4}});
  EXPECT_EQ(l.observe(0.9), 1);
  EXPECT_EQ(l.observe(0.9), 0);  // already at the deepest rung
  EXPECT_EQ(l.level(), 1);
  EXPECT_EQ(l.observe(0.1), -1);
  EXPECT_EQ(l.observe(0.1), 0);  // already at full quality
  EXPECT_EQ(l.level(), 0);
}

// ---------------------------------------------------------------------------
// Fleet fault policies end-to-end (analytic timing on a PlatformSimulator)
// ---------------------------------------------------------------------------

struct Rig {
  platform::Chassis chassis;
  platform::Fabric fabric;
};

Rig make_rig(int count) {
  Rig r{platform::Chassis(platform::recs_box()),
        platform::star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0})};
  for (int i = 0; i < count; ++i) {
    // All Xavier AGX: resnet50(1,100,64) fp32 serves in ~1 ms per module,
    // so the timing arithmetic below stays easy to reason about.
    r.chassis.install("come" + std::to_string(i), platform::find_module("COMe-XavierAGX"));
  }
  return r;
}

const Graph& resnet_graph() {
  static const Graph g = zoo::resnet50(1, 100, 64);
  return g;
}

/// One replica per installed module, placed where the rig holds it.
FleetConfig base_config(platform::PlatformSimulator& sim, std::size_t replicas) {
  FleetConfig cfg;
  cfg.graph = &resnet_graph();
  cfg.variants = {{"resnet50-fp32", &resnet_graph(), DType::kFP32, false}};
  cfg.ladder = {{0, 0}};
  cfg.modules = {"COMe-XavierAGX"};
  cfg.min_replicas = cfg.initial_replicas = cfg.max_replicas = replicas;
  cfg.sim = &sim;
  return cfg;
}

Request req(double arrival_s, double budget_s, int priority = 0,
            const std::string& client = "c0") {
  Request r;
  r.client = client;
  r.priority_class = static_cast<PriorityClass>(priority);
  r.arrival_s = arrival_s;
  r.deadline_s = arrival_s + budget_s;
  return r;
}

platform::FaultEvent crash(double t, const std::string& slot) {
  platform::FaultEvent e;
  e.time_s = t;
  e.kind = platform::FaultKind::kModuleCrash;
  e.slot = slot;
  return e;
}

platform::FaultEvent restart(double t, const std::string& slot) {
  platform::FaultEvent e;
  e.time_s = t;
  e.kind = platform::FaultKind::kModuleRestart;
  e.slot = slot;
  return e;
}

platform::FaultEvent throttle(double t, const std::string& slot, double magnitude) {
  platform::FaultEvent e;
  e.time_s = t;
  e.kind = platform::FaultKind::kThermalThrottle;
  e.slot = slot;
  e.magnitude = magnitude;
  return e;
}

platform::FaultEvent link_drop(double t, const std::string& slot) {
  platform::FaultEvent e;
  e.time_s = t;
  e.kind = platform::FaultKind::kLinkDrop;
  e.a = slot;
  e.b = "switch0";
  return e;
}

std::size_t count_kind(const FleetReport& r, ServeEventKind k) {
  return static_cast<std::size_t>(std::count_if(
      r.events.begin(), r.events.end(), [&](const ServeEvent& e) { return e.kind == k; }));
}

const ServeEvent* first_of(const FleetReport& r, ServeEventKind k) {
  const auto it = std::find_if(r.events.begin(), r.events.end(),
                               [&](const ServeEvent& e) { return e.kind == k; });
  return it == r.events.end() ? nullptr : &*it;
}

std::ptrdiff_t first_index(const FleetReport& r, ServeEventKind k) {
  const auto it = std::find_if(r.events.begin(), r.events.end(),
                               [&](const ServeEvent& e) { return e.kind == k; });
  return it == r.events.end() ? -1 : it - r.events.begin();
}

TEST(FleetFaults, CompletesHealthyLoadWithinDeadlines) {
  Rig rig = make_rig(2);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Fleet fleet(base_config(sim, 2));
  for (int i = 0; i < 6; ++i) fleet.submit(req(1e-3 * (i + 1), 50e-3));
  const FleetReport r = fleet.run(0.1);

  EXPECT_EQ(r.offered, 6u);
  EXPECT_EQ(r.admitted, 6u);
  EXPECT_EQ(r.completed, 6u);
  EXPECT_EQ(r.shed, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.deadline_missed, 0u);
  EXPECT_DOUBLE_EQ(r.goodput(), 1.0);

  // Per-request lifecycle order: admitted -> dispatched -> completed.
  EXPECT_LT(first_index(r, ServeEventKind::kAdmitted),
            first_index(r, ServeEventKind::kDispatched));
  EXPECT_LT(first_index(r, ServeEventKind::kDispatched),
            first_index(r, ServeEventKind::kCompleted));
}

TEST(FleetFaults, CancelsInfeasibleDeadlineAtDispatch) {
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  FleetConfig cfg = base_config(sim, 1);
  cfg.batch_window_s = 0;  // dispatch on arrival
  Fleet fleet(cfg);
  fleet.submit(req(1e-3, 0.5e-3));  // budget well under the ~1 ms service
  const FleetReport r = fleet.run(0.05);

  // Admitted, then cancelled by the dispatch-time feasibility check; the
  // request never reaches a replica, so it is never delivered.
  EXPECT_EQ(r.cancelled, 1u);
  EXPECT_EQ(r.admitted, 1u);
  EXPECT_EQ(r.completed + r.deadline_missed, 0u);
  EXPECT_EQ(count_kind(r, ServeEventKind::kDispatched), 0u);
  const ServeEvent* cancelled = first_of(r, ServeEventKind::kCancelled);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_NE(cancelled->detail.find("infeasible at dispatch"), std::string::npos);
}

TEST(FleetFaults, FullQueueShedsEqualPriorityAndDisplacesForHigher) {
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  FleetConfig cfg = base_config(sim, 1);
  cfg.queue_capacity = 1;
  cfg.batch_window_s = 0;  // dispatch on arrival
  Fleet fleet(cfg);
  const auto id1 = fleet.submit(req(1.0e-3, 50e-3));      // dispatched at once
  const auto id2 = fleet.submit(req(1.2e-3, 50e-3));      // fills the queue
  fleet.submit(req(1.4e-3, 50e-3));                       // same class: shed
  const auto id4 = fleet.submit(req(1.6e-3, 50e-3, 1));   // displaces id2
  const FleetReport r = fleet.run(0.1);

  // The refused request and the displaced one both end kShed.
  EXPECT_EQ(r.shed, 2u);
  EXPECT_EQ(r.displaced, 1u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_LE(r.max_queue_depth, cfg.queue_capacity);

  const ServeEvent* shed = first_of(r, ServeEventKind::kShed);
  ASSERT_NE(shed, nullptr);
  EXPECT_NE(shed->detail.find("queue full"), std::string::npos);
  const ServeEvent* displaced = first_of(r, ServeEventKind::kDisplaced);
  ASSERT_NE(displaced, nullptr);
  EXPECT_EQ(displaced->subject, "request " + std::to_string(id2));
  EXPECT_NE(displaced->detail.find("request " + std::to_string(id4)), std::string::npos);

  // The displaced request never completes; the displacing one does.
  for (const ServeEvent& e : r.events) {
    if (e.kind == ServeEventKind::kCompleted) {
      EXPECT_NE(e.subject, "request " + std::to_string(id2));
    }
  }
  (void)id1;
}

/// Shared crash/restart scenario: steady load on two replicas, come1 dies
/// mid-run and comes back, with a little transient-transfer noise. Used by
/// the breaker-cycle, determinism and obs-mirror tests.
FleetReport run_crash_cycle(obs::Tracer* trace = nullptr,
                            obs::MetricsRegistry* metrics = nullptr) {
  Rig rig = make_rig(2);
  platform::PlatformSimulator::Config pc;
  pc.transient_transfer_prob = 0.05;
  pc.seed = 77;
  platform::PlatformSimulator sim(rig.chassis, rig.fabric, pc);
  sim.schedule(crash(0.050, "come1"));
  sim.schedule(restart(0.150, "come1"));

  FleetConfig cfg = base_config(sim, 2);
  cfg.trace = trace;
  cfg.metrics = metrics;
  Fleet fleet(cfg);
  for (int i = 0; i < 300; ++i) {
    std::string client = "c";
    client += std::to_string(i % 3);
    fleet.submit(req(1e-3 * (i + 1), 50e-3, 0, client));
  }
  return fleet.run(0.4);
}

TEST(FleetFaults, BreakerCycleFollowsCrashAndRestart) {
  const FleetReport r = run_crash_cycle();

  // Heartbeats declare come1 dead (3 misses at the 10 ms control period),
  // which force-opens its breaker; the cooldown half-opens it; once the
  // module restarts, probes close it again.
  ASSERT_GE(count_kind(r, ServeEventKind::kBackendDown), 1u);
  ASSERT_GE(count_kind(r, ServeEventKind::kBreakerOpen), 1u);
  ASSERT_GE(count_kind(r, ServeEventKind::kBackendUp), 1u);
  ASSERT_GE(count_kind(r, ServeEventKind::kBreakerHalfOpen), 1u);
  ASSERT_GE(count_kind(r, ServeEventKind::kBreakerClosed), 1u);

  const ServeEvent* down = first_of(r, ServeEventKind::kBackendDown);
  EXPECT_EQ(down->subject, "backend come1");
  // Detection latency: crash at 50 ms, threshold 3 at 10 ms cadence.
  EXPECT_GE(down->time_s, 0.050);
  EXPECT_LE(down->time_s, 0.090);

  EXPECT_LT(first_index(r, ServeEventKind::kBackendDown),
            first_index(r, ServeEventKind::kBreakerOpen));
  EXPECT_LT(first_index(r, ServeEventKind::kBreakerOpen),
            first_index(r, ServeEventKind::kBreakerHalfOpen));
  EXPECT_LT(first_index(r, ServeEventKind::kBreakerHalfOpen),
            first_index(r, ServeEventKind::kBreakerClosed));
  const ServeEvent* closed = first_of(r, ServeEventKind::kBreakerClosed);
  const ServeEvent* up = first_of(r, ServeEventKind::kBackendUp);
  EXPECT_GE(up->time_s, 0.150);
  EXPECT_LE(up->time_s, closed->time_s);

  // come1 takes traffic again after its breaker closes.
  const bool redispatched = std::any_of(
      r.events.begin(), r.events.end(), [&](const ServeEvent& e) {
        return e.kind == ServeEventKind::kDispatched && e.time_s > closed->time_s &&
               e.detail.find("come1") != std::string::npos;
      });
  EXPECT_TRUE(redispatched);

  // The surviving replica kept most of the goodput flowing.
  EXPECT_GT(r.completed, 200u);
}

TEST(FleetFaults, ReportsAreBitwiseDeterministic) {
  const FleetReport a = run_crash_cycle();
  const FleetReport b = run_crash_cycle();
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(format_event(a.events[i]), format_event(b.events[i])) << i;
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s) << i;
    EXPECT_EQ(a.events[i].value, b.events[i].value) << i;
  }
  const auto counters = [](const FleetReport& r) {
    return std::vector<std::size_t>{r.offered, r.admitted, r.shed, r.displaced, r.completed,
                                    r.deadline_missed, r.cancelled, r.failed, r.retries,
                                    r.max_queue_depth};
  };
  EXPECT_EQ(counters(a), counters(b));
}

TEST(FleetFaults, MirrorsEveryEventIntoTracerAndMetrics) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const FleetReport r = run_crash_cycle(&tracer, &metrics);
  ASSERT_GT(r.events.size(), 0u);
  const auto violations = EventLog::check_mirror(r.events, "vedliot.fleet", tracer, &metrics);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
}

TEST(FleetFaults, ThermalThrottleStretchesInFlightWorkIntoDeadlineMiss) {
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  // The request is feasible when dispatched (~1 ms service, 1.6 ms budget)
  // but the module throttles to 25% capacity mid-flight, so the remaining
  // work stretches past the deadline. The response is still delivered.
  sim.schedule(throttle(1.5e-3, "come0", 0.25));
  FleetConfig cfg = base_config(sim, 1);
  cfg.batch_window_s = 0;  // dispatch on arrival
  Fleet fleet(cfg);
  fleet.submit(req(1e-3, 1.6e-3));
  const FleetReport r = fleet.run(0.05);

  EXPECT_EQ(r.admitted, 1u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.cancelled, 0u);
  EXPECT_EQ(r.deadline_missed, 1u);
  const ServeEvent* miss = first_of(r, ServeEventKind::kDeadlineMiss);
  ASSERT_NE(miss, nullptr);
  // finish = 1.5 ms + 4x the remaining ~0.52 ms, well past the 2.6 ms
  // deadline but before the 5 ms it would take to restart from scratch.
  EXPECT_GT(miss->time_s, 2.6e-3);
  EXPECT_LT(miss->time_s, 5e-3);
}

TEST(FleetFaults, PartitionWithEmptyRetryBudgetFailsImmediately) {
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  sim.schedule(link_drop(0.5e-3, "come0"));

  FleetConfig cfg = base_config(sim, 1);
  cfg.retry_tokens_per_request = 0.0;  // no budget is ever earned
  Fleet fleet(cfg);
  fleet.submit(req(1e-3, 50e-3));
  const FleetReport r = fleet.run(0.05);

  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.retries, 0u);
  const ServeEvent* fault = first_of(r, ServeEventKind::kTransientFault);
  ASSERT_NE(fault, nullptr);
  EXPECT_NE(fault->detail.find("fabric partition"), std::string::npos);
  const ServeEvent* failed = first_of(r, ServeEventKind::kFailed);
  ASSERT_NE(failed, nullptr);
  EXPECT_NE(failed->detail.find("retry budget empty"), std::string::npos);
}

TEST(FleetFaults, BackoffGateDoesNotHoldAFreshArrivalPastTheBatchWindow) {
  // Request 1's dispatch dies on a partitioned ingress link and re-queues
  // behind a backoff gate; the link heals, and request 2 arrives on the
  // same replica while the gate is still closed. Request 2 must dispatch
  // when its own batch window closes, not wait out request 1's gate.
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  sim.schedule(link_drop(0.5e-3, "come0"));
  platform::FaultEvent heal = link_drop(1.15e-3, "come0");
  heal.kind = platform::FaultKind::kLinkRestore;
  sim.schedule(heal);

  FleetConfig cfg = base_config(sim, 1);
  cfg.retry_tokens_per_request = 8.0;
  cfg.batch_window_s = 0.1e-3;
  Fleet fleet(cfg);
  fleet.submit(req(1.0e-3, 50e-3));
  fleet.submit(req(1.3e-3, 50e-3));
  const FleetReport r = fleet.run(0.05);

  const ServeEvent* retry = first_of(r, ServeEventKind::kRetry);
  ASSERT_NE(retry, nullptr);
  ASSERT_EQ(retry->subject, "request 1");
  const double window_close = 1.3e-3 + cfg.batch_window_s;
  ASSERT_GT(retry->time_s + retry->value, window_close);  // the gate outlives the window

  const auto dispatched = std::find_if(r.events.begin(), r.events.end(), [](const ServeEvent& e) {
    return e.kind == ServeEventKind::kDispatched && e.subject == "request 2";
  });
  ASSERT_NE(dispatched, r.events.end());
  EXPECT_DOUBLE_EQ(dispatched->time_s, window_close);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.retries, 1u);
}

TEST(FleetFaults, IdleReplicaTakesWorkOffTheDeepestQueue) {
  // One client hashes onto one replica; the other replica owns no client
  // but is free, so it batches off its peer's backlog instead of idling.
  Rig rig = make_rig(2);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Fleet fleet(base_config(sim, 2));
  for (int i = 0; i < 40; ++i) fleet.submit(req(1e-3 + 0.1e-3 * i, 100e-3));
  const FleetReport r = fleet.run(0.1);

  EXPECT_EQ(r.completed, 40u);
  std::map<std::string, std::size_t> admitted_on, batches_on;
  for (const ServeEvent& e : r.events) {
    const std::string last_word = e.detail.substr(e.detail.rfind(' ') + 1);
    if (e.kind == ServeEventKind::kAdmitted) ++admitted_on[last_word];
    if (e.kind == ServeEventKind::kBatchExecuted) ++batches_on[e.subject];
  }
  ASSERT_EQ(admitted_on.size(), 1u);  // every request routed to one owner
  ASSERT_EQ(batches_on.size(), 2u);   // yet both replicas ran batches
  EXPECT_EQ(batches_on.count(admitted_on.begin()->first), 1u);
}

TEST(FleetFaults, RetriesWithBackoffUntilBudgetOrDeadlineRunsOut) {
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  sim.schedule(link_drop(0.5e-3, "come0"));

  FleetConfig cfg = base_config(sim, 1);
  cfg.retry_tokens_per_request = 8.0;       // plenty of budget
  cfg.breaker.failure_threshold = 100;      // keep the breaker out of the way
  Fleet fleet(cfg);
  fleet.submit(req(1e-3, 30e-3));
  const FleetReport r = fleet.run(0.05);

  EXPECT_EQ(r.completed, 0u);
  EXPECT_GE(r.retries, 1u);
  // The request ends in exactly one terminal event: it either burns its
  // whole budget / runs out of deadline (failed) or its last backoff gate
  // outlives the queue (cancelled) — never both, never neither.
  EXPECT_EQ(r.failed + r.cancelled, 1u);
  // Backoff gates are respected: each retry's next dispatch attempt comes
  // at or after not_before (observable as strictly increasing fault times).
  double last = 0;
  for (const ServeEvent& e : r.events) {
    if (e.kind != ServeEventKind::kTransientFault) continue;
    EXPECT_GE(e.time_s, last);
    last = e.time_s;
  }
}

TEST(FleetFaults, BrownoutLadderDegradesUnderOverloadAndRecovers) {
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  FleetConfig cfg = base_config(sim, 1);
  cfg.variants.push_back({"resnet50-int8", &resnet_graph(), DType::kINT8, false});
  cfg.ladder = {{0, 0}, {1, 0}};
  cfg.queue_capacity = 8;
  cfg.control_period_s = 2e-3;  // sample the ~12 ms burst several times
  cfg.brownout.step_down_after = 2;
  cfg.brownout.step_up_after = 3;
  Fleet fleet(cfg);
  // Burst far beyond one fp32 replica (~1 ms/req), then silence: the
  // ladder must step down to int8 under the backlog and step back up
  // once the queue drains.
  for (int i = 0; i < 60; ++i) fleet.submit(req(1e-3 + 0.2e-3 * i, 60e-3));
  const FleetReport r = fleet.run(0.3);

  EXPECT_GE(count_kind(r, ServeEventKind::kBrownoutDown), 1u);
  EXPECT_GE(count_kind(r, ServeEventKind::kBrownoutUp), 1u);
  EXPECT_EQ(r.max_brownout_level, 1);
  EXPECT_EQ(r.final_brownout_level, 0);
  EXPECT_LT(first_index(r, ServeEventKind::kBrownoutDown),
            first_index(r, ServeEventKind::kBrownoutUp));
  // Requests served on the degraded rung name the int8 variant.
  const ServeEvent* down = first_of(r, ServeEventKind::kBrownoutDown);
  const bool int8_dispatch = std::any_of(
      r.events.begin(), r.events.end(), [&](const ServeEvent& e) {
        return e.kind == ServeEventKind::kDispatched && e.time_s >= down->time_s &&
               e.detail.find("resnet50-int8") != std::string::npos;
      });
  EXPECT_TRUE(int8_dispatch);
}

TEST(FleetFaults, BusyReplicaHoldsTheDegradedRungItNeeds) {
  // A steady ~3k req/s: one fp32 replica (~1.4k lanes/s at its widest
  // bucket) falls behind, int8 keeps up at about half its capacity. Once
  // degraded, the int8 queue drains, but the replica stays half busy, so
  // the ladder must hold int8 rather than climb back into the backlog.
  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  FleetConfig cfg = base_config(sim, 1);
  cfg.variants.push_back({"resnet50-int8", &resnet_graph(), DType::kINT8, false});
  cfg.ladder = {{0, 0}, {1, 0}};
  cfg.queue_capacity = 32;  // an int8 coalescing window fills it at most a quarter
  cfg.control_period_s = 2e-3;
  cfg.brownout.step_down_after = 2;
  cfg.brownout.step_up_after = 3;
  Fleet fleet(cfg);
  for (int i = 0; i < 300; ++i) fleet.submit(req(1e-3 + i / 3000.0, 60e-3));
  const FleetReport r = fleet.run(0.1);

  EXPECT_EQ(count_kind(r, ServeEventKind::kBrownoutDown), 1u);
  EXPECT_EQ(count_kind(r, ServeEventKind::kBrownoutUp), 0u);
  EXPECT_EQ(r.final_brownout_level, 1);
}

// ---------------------------------------------------------------------------
// Execute mode: real tensors + robustness service wiring
// ---------------------------------------------------------------------------

TEST(FleetFaults, ExecuteModeFlagsCorruptedModelAsQualityDegraded) {
  // The deployed model carries a systematic fault (one layer scaled 8x);
  // the robustness service holds the clean golden copy, so every checked
  // response comes back divergent — delivered, but marked degraded.
  Graph clean = zoo::micro_mlp("m", 1, 16, {24, 12}, 4);
  Rng weights(7);
  clean.materialize_weights(weights);
  Graph corrupted = clean;
  Rng faults(9);
  safety::FaultInjector injector(faults);
  injector.scale_random_layer(corrupted, 8.0f);

  safety::RobustnessService::Config rc;
  rc.check_period = 1;
  rc.tolerance = 1e-3;
  safety::RobustnessService service(clean, rc);

  Rig rig = make_rig(1);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  FleetConfig cfg = base_config(sim, 1);
  cfg.graph = &corrupted;
  cfg.variants = {{"mlp-corrupted", &corrupted, DType::kFP32, false}};
  cfg.robustness = &service;
  cfg.execute = true;
  Fleet fleet(cfg);
  for (int i = 0; i < 4; ++i) fleet.submit(req(1e-3 * (i + 1), 50e-3));
  const FleetReport r = fleet.run(0.1);

  EXPECT_EQ(r.completed, 4u);  // degraded quality still ships
  EXPECT_EQ(r.quality_degraded, 4u);
  EXPECT_EQ(count_kind(r, ServeEventKind::kQualityDegraded), 4u);
  EXPECT_EQ(service.checks_run(), 4u);
  EXPECT_EQ(service.faults_detected(), 4u);
  const ServeEvent* degraded = first_of(r, ServeEventKind::kQualityDegraded);
  ASSERT_NE(degraded, nullptr);
  EXPECT_GT(degraded->value, 1e-3);  // carries the measured divergence

  // A clean deployment through the same path raises no degradation.
  safety::RobustnessService clean_service(clean, rc);
  Rig rig2 = make_rig(1);
  platform::PlatformSimulator sim2(rig2.chassis, rig2.fabric);
  FleetConfig cfg2 = base_config(sim2, 1);
  cfg2.graph = &clean;
  cfg2.variants = {{"mlp-clean", &clean, DType::kFP32, false}};
  cfg2.robustness = &clean_service;
  cfg2.execute = true;
  Fleet fleet2(cfg2);
  for (int i = 0; i < 4; ++i) fleet2.submit(req(1e-3 * (i + 1), 50e-3));
  const FleetReport r2 = fleet2.run(0.1);
  EXPECT_EQ(r2.completed, 4u);
  EXPECT_EQ(r2.quality_degraded, 0u);
}
// ---------------------------------------------------------------------------
// EventLog: the one event mirror and digest of the serving engines
// ---------------------------------------------------------------------------

std::vector<ServeEvent> fixed_events() {
  return {{0.001, ServeEventKind::kAdmitted, "request 1", "standard, budget 20.000 ms", 1},
          {0.002, ServeEventKind::kDispatched, "request 1", "come0 (fp32), service 4.000 ms", 4e-3},
          {0.003, ServeEventKind::kAdmitted, "request 2", "", 2},
          {0.006, ServeEventKind::kCompleted, "request 1", "come0, latency 5.000 ms", 5e-3}};
}

std::vector<ServeEvent> log_all(EventLog& log, const std::vector<ServeEvent>& events) {
  for (const ServeEvent& e : events) log.add(e.time_s, e.kind, e.subject, e.detail, e.value);
  return log.take();
}

TEST(EventLog, MirrorsEveryEventAsAnInstantAndACounter) {
  const std::vector<ServeEvent> events = fixed_events();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  EventLog log("vedliot.fleet", &tracer, &metrics);
  const std::vector<ServeEvent> logged = log_all(log, events);
  EXPECT_TRUE(log.take().empty());

  ASSERT_EQ(logged.size(), events.size());
  ASSERT_EQ(tracer.spans().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ServeEvent& e = events[i];
    EXPECT_EQ(format_event(logged[i]), format_event(e));
    EXPECT_EQ(logged[i].value, e.value);
    const obs::Span& sp = tracer.spans()[i];
    EXPECT_EQ(sp.name, event_name(e.kind));
    EXPECT_EQ(sp.category, "vedliot.fleet");
    EXPECT_EQ(sp.start_ns, sp.end_ns);
    std::vector<std::pair<std::string, std::string>> attrs = {{"subject", e.subject}};
    if (!e.detail.empty()) attrs.emplace_back("detail", e.detail);
    EXPECT_EQ(sp.attrs, attrs);
    const std::vector<std::pair<std::string, double>> nums = {{"time_s", e.time_s},
                                                              {"value", e.value}};
    EXPECT_EQ(sp.num_attrs, nums);
  }
  ASSERT_EQ(metrics.counters().size(), 3u);
  EXPECT_EQ(metrics.counters().at("vedliot.fleet.admitted").value(), 2u);
  EXPECT_EQ(metrics.counters().at("vedliot.fleet.dispatched").value(), 1u);
  EXPECT_EQ(metrics.counters().at("vedliot.fleet.completed").value(), 1u);
  EXPECT_TRUE(EventLog::check_mirror(logged, "vedliot.fleet", tracer, &metrics).empty());

  // Without a tracer or registry the log still records every event.
  EventLog bare("vedliot.serve", nullptr, nullptr);
  EXPECT_EQ(log_all(bare, events).size(), events.size());
}

TEST(EventLog, DigestIsTheFnv1aChainOverFormattedEvents) {
  const std::vector<ServeEvent> events = fixed_events();
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const ServeEvent& e : events) h = util::fnv1a64(format_event(e), h);
  char chain[24];
  std::snprintf(chain, sizeof(chain), "%016llx", static_cast<unsigned long long>(h));
  EXPECT_EQ(event_digest(events), chain);
  EXPECT_EQ(event_digest({}), "cbf29ce484222325");  // the FNV offset basis

  std::vector<ServeEvent> swapped = events;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(event_digest(swapped), event_digest(events));
}

TEST(EventLog, MirrorCheckFlagsATamperedTracerAndAStrayCounter) {
  const std::vector<ServeEvent> events = fixed_events();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  EventLog log("vedliot.serve", &tracer, &metrics);
  const std::vector<ServeEvent> logged = log_all(log, events);
  // Spans of other categories are not part of the mirror.
  tracer.instant("admitted", "vedliot.fleet");
  (void)tracer.span("serve.run", "vedliot.serve.run");
  ASSERT_TRUE(EventLog::check_mirror(logged, "vedliot.serve", tracer, &metrics).empty());

  // An instant the log never recorded breaks the 1:1 count.
  obs::Tracer extra;
  EventLog extra_log("vedliot.serve", &extra, nullptr);
  (void)log_all(extra_log, events);
  extra.instant("shed", "vedliot.serve");
  auto v = EventLog::check_mirror(logged, "vedliot.serve", extra, &metrics);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "tracer mirror count 5 != event count 4");

  // Instants in another order.
  std::vector<ServeEvent> swapped = events;
  std::swap(swapped[1], swapped[2]);
  obs::Tracer reordered;
  EventLog reordered_log("vedliot.serve", &reordered, nullptr);
  (void)log_all(reordered_log, swapped);
  v = EventLog::check_mirror(logged, "vedliot.serve", reordered, &metrics);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "tracer mirror out of order at event 1: admitted != dispatched");

  // A counter off by one, and a counter with no events behind it.
  metrics.counter("vedliot.serve.completed").inc();
  metrics.counter("vedliot.serve.shed").inc();
  metrics.counter("vedliot.fleet.shed").inc();  // another category: not ours
  v = EventLog::check_mirror(logged, "vedliot.serve", tracer, &metrics);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "counter vedliot.serve.completed != event count 1");
  EXPECT_EQ(v[1], "counter vedliot.serve.shed has no matching events");
}

TEST(SoakProbe, AppendsMirrorViolationsAndTagsEveryViolationWithTheRunIdentity) {
  SoakProbe probe;
  EventLog log("vedliot.serve", &probe.trace, &probe.metrics);
  const std::vector<ServeEvent> logged = log_all(log, fixed_events());
  probe.metrics.counter("vedliot.serve.shed").inc();

  std::vector<std::string> violations = {"queue depth 33 exceeded capacity 32"};
  probe.close(logged, "vedliot.serve", "sim seed=0x5ebc", violations);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0], "queue depth 33 exceeded capacity 32 [sim seed=0x5ebc]");
  EXPECT_EQ(violations[1], "counter vedliot.serve.shed has no matching events [sim seed=0x5ebc]");

  // Without an identity (the fleet soak has no simulator) nothing is tagged.
  std::vector<std::string> untagged;
  probe.close(logged, "vedliot.serve", "", untagged);
  ASSERT_EQ(untagged.size(), 1u);
  EXPECT_EQ(untagged[0], "counter vedliot.serve.shed has no matching events");
}

// ---------------------------------------------------------------------------
// Chaos soak: the four serving invariants under seeded fault campaigns
// ---------------------------------------------------------------------------

TEST(SoakServe, InvariantsHoldAcrossFaultRates) {
  std::vector<SoakResult> sweep;
  for (const double rate : {0.0, 0.05, 0.2}) {
    SoakConfig sc;
    sc.duration_s = 0.8;
    sc.fault_rate = rate;
    sweep.push_back(run_soak(sc));
    const SoakResult& res = sweep.back();
    std::string why;
    for (const auto& v : res.violations) why += v + "\n";
    EXPECT_TRUE(res.ok()) << "fault_rate=" << rate << ":\n" << why;
    // Invariant 3 directly: the queue bound held.
    EXPECT_LE(res.report.max_queue_depth, SoakConfig::kQueueCapacity);
    EXPECT_GT(res.report.completed, 0u);
  }
  // Invariant 2 across the sweep: goodput never rises with the fault rate.
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].goodput(), sweep[i - 1].goodput() + 1e-9);
  }
  EXPECT_GT(sweep.front().goodput(), sweep.back().goodput());
}

TEST(SoakServe, HealthyRunNeverMissesADeadline) {
  SoakConfig sc;
  sc.duration_s = 0.8;
  sc.fault_rate = 0.0;
  const SoakResult res = run_soak(sc);
  EXPECT_TRUE(res.ok());
  // Invariant 1 at fault rate zero is unconditional.
  EXPECT_EQ(res.report.deadline_missed, 0u);
}

TEST(SoakServe, SameSeedIsBitwiseIdentical) {
  SoakConfig sc;
  sc.duration_s = 0.5;
  sc.fault_rate = 0.2;
  EXPECT_EQ(run_soak(sc).to_json(), run_soak(sc).to_json());
}

TEST(SoakServe, DifferentSeedsDiffer) {
  SoakConfig a;
  a.duration_s = 0.5;
  a.fault_rate = 0.2;
  SoakConfig b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(run_soak(a).to_json(), run_soak(b).to_json());
}

TEST(SoakServe, ViolationMessagesCarryTheReproSeed) {
  SoakConfig sc;
  sc.duration_s = 0.5;
  sc.fault_rate = 0.2;
  const SoakResult res = run_soak(sc);
  // The record embeds the simulator identity (seed + fault counters) so a
  // failing CI log is reproducible from the message alone.
  EXPECT_NE(res.sim_describe.find("seed=0x"), std::string::npos);
  EXPECT_NE(res.to_json().find(res.sim_describe.substr(0, 30)), std::string::npos);
}

// ---------------------------------------------------------------------------
// Integrity mode: scrubbing, self-healing reload, OTA lifecycle
// ---------------------------------------------------------------------------

struct IntegrityRig {
  Rig rig;
  platform::PlatformSimulator sim;
  Graph model;
  safety::RobustnessService robustness;
  safety::ModelStore store;

  explicit IntegrityRig(int backends)
      : rig(make_rig(backends)),
        sim(rig.chassis, rig.fabric),
        model(materialized_mlp()),
        robustness(model, robustness_config()) {}

  static Graph materialized_mlp() {
    Graph g = zoo::micro_mlp("m", 1, 16, {24, 12}, 4);
    Rng weights(7);
    g.materialize_weights(weights);
    return g;
  }

  static safety::RobustnessService::Config robustness_config() {
    safety::RobustnessService::Config rc;
    rc.check_period = 1;
    rc.tolerance = 1e-3;
    return rc;
  }

  FleetConfig config() {
    FleetConfig cfg = base_config(sim, rig.chassis.installed().size());
    cfg.graph = &model;
    cfg.variants = {{"mlp", &model, DType::kFP32, false}};
    cfg.execute = true;
    cfg.robustness = &robustness;
    cfg.store = &store;
    cfg.scrub.tensors_per_tick = 2;
    return cfg;
  }
};

platform::FaultEvent memory_fault(double t, const std::string& slot) {
  platform::FaultEvent e;
  e.time_s = t;
  e.kind = platform::FaultKind::kMemoryFault;
  e.slot = slot;
  e.magnitude = 1.0;
  return e;
}

TEST(FleetIntegrity, HealsMemoryFault) {
  IntegrityRig ir(1);
  const FleetConfig cfg = ir.config();
  ir.sim.schedule(memory_fault(0.030, "come0"));
  Fleet fleet(cfg);
  for (int i = 0; i < 20; ++i) fleet.submit(req(2e-3 + 5e-3 * i, 80e-3));
  const FleetReport r = fleet.run(0.3);

  EXPECT_EQ(r.memory_faults, 1u);
  EXPECT_GE(r.scrub_hits, 1u);
  EXPECT_GE(r.quarantines, 1u);
  EXPECT_GE(r.model_reloads, 1u);
  EXPECT_EQ(r.dirty_at_end, 0u);  // healed by end of run
  // fault -> detection -> reload, in that order
  EXPECT_LT(first_index(r, ServeEventKind::kMemoryFault),
            first_index(r, ServeEventKind::kScrubHit));
  EXPECT_LT(first_index(r, ServeEventKind::kScrubHit),
            first_index(r, ServeEventKind::kModelReloaded));
  // detection within one scrub sweep (+2 ticks slack) of the flip
  const std::size_t entries = digest_weights(ir.model).size();
  const std::size_t sweep = (entries + cfg.scrub.tensors_per_tick - 1) /
                            cfg.scrub.tensors_per_tick;
  const ServeEvent* hit = first_of(r, ServeEventKind::kScrubHit);
  ASSERT_NE(hit, nullptr);
  EXPECT_LE(hit->time_s - 0.030,
            static_cast<double>(sweep + 2) * cfg.control_period_s + 1e-9);
  // the hit names the corrupted (node, tensor) pair
  EXPECT_NE(hit->detail.find("tensor"), std::string::npos);
  // requests delivered after the reload verify clean again
  const ServeEvent* reload = first_of(r, ServeEventKind::kModelReloaded);
  ASSERT_NE(reload, nullptr);
  for (const ServeEvent& e : r.events) {
    if (e.kind == ServeEventKind::kQualityDegraded) {
      EXPECT_LE(e.time_s, reload->time_s + 1e-9);
    }
  }
}

TEST(FleetIntegrity, SeuCorruptsOnlyTheReplicaOnItsSlot) {
  // Two replicas, each with its own deployed copy: the flip on come1 is
  // found and repaired on come1's copy; come0's never needs a reload.
  IntegrityRig ir(2);
  const FleetConfig cfg = ir.config();
  ir.sim.schedule(memory_fault(0.030, "come1"));
  Fleet fleet(cfg);
  for (int i = 0; i < 20; ++i) {
    fleet.submit(req(2e-3 + 5e-3 * i, 80e-3, 0, "c" + std::to_string(i)));
  }
  const FleetReport r = fleet.run(0.3);

  EXPECT_EQ(r.memory_faults, 1u);
  EXPECT_EQ(r.dirty_at_end, 0u);
  ASSERT_GE(count_kind(r, ServeEventKind::kModelReloaded), 1u);
  for (const ServeEvent& e : r.events) {
    if (e.kind == ServeEventKind::kScrubHit || e.kind == ServeEventKind::kModelReloaded ||
        e.kind == ServeEventKind::kQuarantine) {
      EXPECT_EQ(e.subject, "backend come1") << format_event(e);
    }
  }
}

TEST(FleetIntegrity, OtaCommitAndReject) {
  IntegrityRig ir(1);
  Fleet fleet(ir.config());

  // v2: genuinely different weights, correctly declared canary outputs.
  Graph v2 = ir.model.clone();
  for (NodeId id : v2.topo_order()) {
    Node& n = v2.node(id);
    if (!n.weights.empty()) {
      for (float& w : n.weights[0].data()) w *= 1.03f;
    }
  }
  v2.touch();
  fleet.submit_ota(0.020, safety::make_ota_package(v2));

  // Then a payload corrupted in transit: must be rejected at staging.
  safety::OtaPackage damaged = safety::make_ota_package(v2);
  damaged.package.at(damaged.package.size() / 3) ^= 0x20;
  fleet.submit_ota(0.060, damaged);

  for (int i = 0; i < 20; ++i) fleet.submit(req(2e-3 + 5e-3 * i, 80e-3));
  const FleetReport r = fleet.run(0.3);

  EXPECT_EQ(r.ota_staged, 2u);
  EXPECT_EQ(r.ota_committed, 1u);
  EXPECT_EQ(r.ota_rejected, 1u);
  EXPECT_EQ(r.ota_rolled_back, 0u);
  EXPECT_EQ(ir.store.version("mlp"), 2u);  // the good push is live
  EXPECT_EQ(r.dirty_at_end, 0u);
  // The rejected push names why.
  const ServeEvent* rejected = first_of(r, ServeEventKind::kOtaRejected);
  ASSERT_NE(rejected, nullptr);
  EXPECT_NE(rejected->detail.find("staging failed"), std::string::npos);
  // After the commit the robustness golden follows the new weights: no
  // degradation storm from a healthy v2 deployment.
  EXPECT_EQ(r.quality_degraded, 0u);
}

TEST(FleetIntegrity, BadPushRollsBackInProbation) {
  IntegrityRig ir(1);
  FleetConfig cfg = ir.config();
  cfg.ota_probation_sweeps = 3;

  Graph v2 = ir.model.clone();
  for (NodeId id : v2.topo_order()) {
    Node& n = v2.node(id);
    if (!n.weights.empty()) {
      for (float& w : n.weights[0].data()) w *= 0.95f;
    }
  }
  v2.touch();
  // The push verifies clean and commits — then its freshly written image
  // takes a flip inside the probation window: policy is rollback, not
  // surgical repair.
  ir.sim.schedule(memory_fault(0.050 + 1.5 * cfg.control_period_s, "come0"));
  Fleet fleet(cfg);
  fleet.submit_ota(0.050, safety::make_ota_package(v2));
  for (int i = 0; i < 20; ++i) fleet.submit(req(2e-3 + 5e-3 * i, 80e-3));
  const FleetReport r = fleet.run(0.3);

  EXPECT_EQ(r.ota_committed, 1u);
  EXPECT_EQ(r.ota_rolled_back, 1u);
  EXPECT_LT(first_index(r, ServeEventKind::kOtaCommitted),
            first_index(r, ServeEventKind::kOtaRolledBack));
  EXPECT_EQ(ir.store.version("mlp"), 1u);  // v1 serving again
  EXPECT_FALSE(ir.store.can_rollback("mlp"));
  EXPECT_EQ(r.dirty_at_end, 0u);
}
// ---------------------------------------------------------------------------
// Integrity soak: the four corruption invariants under seeded SEU campaigns
// ---------------------------------------------------------------------------

TEST(SoakIntegrity, InvariantsHoldAcrossFlipRates) {
  for (const double rate : {0.0, 6.0}) {
    IntegritySoakConfig sc;
    sc.duration_s = 0.6;
    sc.arrival_hz = 150.0;
    sc.flip_rate_hz = rate;
    const IntegritySoakResult res = run_integrity_soak(sc);
    std::string why;
    for (const auto& v : res.violations) why += v + "\n";
    EXPECT_TRUE(res.ok()) << "flip_rate=" << rate << ":\n" << why;
    EXPECT_GT(res.report.completed, 0u);
    EXPECT_EQ(res.report.dirty_at_end, 0u);
    if (rate > 0) {
      EXPECT_GT(res.report.memory_faults, 0u);
      EXPECT_LE(res.max_detection_s, res.detection_bound_s + 1e-9);
    }
  }
}

TEST(SoakIntegrity, DetectionMatchesTheFaultedReplicaNotItsPeer) {
  // come1 takes an SEU at 100 ms; come0's scrubber hits first (an older
  // fault of its own) and heals. Only come1's own hit at 130 ms detects it.
  const std::string flip =
      "1 weight bit(s) flipped in deployed integrity-fp32: node 'conv_0' tensor 0";
  const std::string hit = "node 'conv_0' tensor 0 crc mismatch (scrub sweep)";
  const std::vector<ServeEvent> events = {
      {0.100, ServeEventKind::kMemoryFault, "backend come1", flip, 1},
      {0.110, ServeEventKind::kScrubHit, "backend come0", hit, 0},
      {0.110, ServeEventKind::kModelReloaded, "backend come0", "", 1},
      {0.130, ServeEventKind::kScrubHit, "backend come1", hit, 0},
      {0.130, ServeEventKind::kModelReloaded, "backend come1", "", 1},
  };
  IntegritySoakResult res;
  check_detection(events, 0.07, res);
  EXPECT_TRUE(res.ok()) << res.violations.front();
  EXPECT_NEAR(res.max_detection_s, 0.030, 1e-12);
  EXPECT_NEAR(res.mean_detection_s, 0.030, 1e-12);

  // A 20 ms bound now fails on the true latency, and a heal on the peer
  // replica does not heal this one.
  std::vector<ServeEvent> peer_healed = events;
  peer_healed[4].subject = "backend come0";
  IntegritySoakResult tight;
  check_detection(peer_healed, 0.02, tight);
  ASSERT_EQ(tight.violations.size(), 2u);
  EXPECT_EQ(tight.violations[0].rfind("detection latency 0.030000s exceeds bound", 0), 0u)
      << tight.violations[0];
  EXPECT_EQ(tight.violations[1],
            "scrub hit on backend come1 at 0.130000s not followed by its recovery");

  // The fleet-wide rollback heals every replica's hit.
  std::vector<ServeEvent> rolled_back = peer_healed;
  rolled_back[4] = {0.130, ServeEventKind::kOtaRolledBack, "ota integrity-fp32", "", 1};
  IntegritySoakResult rb;
  check_detection(rolled_back, 0.07, rb);
  EXPECT_TRUE(rb.ok()) << rb.violations.front();
}

TEST(SoakIntegrity, DetectionMatchesTheFlippedTensorNotItsNeighbour) {
  // Two SEUs on come1 hit different tensors; the later one's tensor is
  // scrubbed first. Each fault is detected by the hit that names its own
  // tensor: 60 ms and 10 ms, not 30 ms and 10 ms.
  const std::vector<ServeEvent> events = {
      {0.100, ServeEventKind::kMemoryFault, "backend come1",
       "1 weight bit(s) flipped in deployed integrity-fp32: node 'conv_4' tensor 0", 1},
      {0.120, ServeEventKind::kMemoryFault, "backend come1",
       "2 weight bit(s) flipped in deployed integrity-fp32: node 'logits' tensor 1, node "
       "'conv_0' tensor 1",
       2},
      {0.130, ServeEventKind::kScrubHit, "backend come1",
       "node 'logits' tensor 1 crc mismatch (scrub sweep)", 1},
      {0.130, ServeEventKind::kModelReloaded, "backend come1", "", 1},
      {0.160, ServeEventKind::kScrubHit, "backend come1",
       "node 'conv_4' tensor 0 crc mismatch (scrub sweep)", 0},
      {0.160, ServeEventKind::kModelReloaded, "backend come1", "", 1},
  };
  IntegritySoakResult res;
  check_detection(events, 0.07, res);
  EXPECT_TRUE(res.ok()) << res.violations.front();
  EXPECT_NEAR(res.max_detection_s, 0.060, 1e-12);
  EXPECT_NEAR(res.mean_detection_s, 0.035, 1e-12);

  // A hit on another tensor of the same node ('conv_4' tensor 1) detects
  // neither fault.
  std::vector<ServeEvent> other_tensor = events;
  other_tensor[4].detail = "node 'conv_4' tensor 1 crc mismatch (scrub sweep)";
  IntegritySoakResult missed;
  check_detection(other_tensor, 0.07, missed);
  ASSERT_EQ(missed.violations.size(), 1u);
  const std::string never = "memory fault on backend come1 at 0.100000s never detected";
  EXPECT_EQ(missed.violations[0].rfind(never, 0), 0u) << missed.violations[0];
}

TEST(SoakIntegrity, SameSeedIsBitwiseIdentical) {
  IntegritySoakConfig sc;
  sc.duration_s = 0.5;
  sc.arrival_hz = 150.0;
  sc.flip_rate_hz = 8.0;
  EXPECT_EQ(run_integrity_soak(sc).to_json(), run_integrity_soak(sc).to_json());
}

TEST(SoakIntegrity, DifferentSeedsDiffer) {
  IntegritySoakConfig a;
  a.duration_s = 0.5;
  a.arrival_hz = 150.0;
  a.flip_rate_hz = 8.0;
  IntegritySoakConfig b = a;
  b.seed = a.seed + 1;
  EXPECT_NE(run_integrity_soak(a).to_json(), run_integrity_soak(b).to_json());
}

}  // namespace
}  // namespace vedliot::serve
