// Tests for the resilience subsystem: the fault-injecting platform
// simulator (faults.hpp) and the resilient distributed inference runtime
// (resilience.hpp) driving a pipeline through crashes, partitions,
// throttles and transient transfer errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "platform/faults.hpp"
#include "platform/resilience.hpp"

namespace vedliot::platform {
namespace {

struct TestRig {
  Chassis chassis;
  Fabric fabric;
  std::vector<std::string> slots;
};

TestRig recs_box_with_modules(int count) {
  TestRig s{Chassis(recs_box()), star_fabric({"come0", "come1", "come2", "come3"}, 10.0, {1.0, 10.0}),
            {}};
  for (int i = 0; i < count; ++i) {
    const std::string slot = "come" + std::to_string(i);
    s.chassis.install(slot, find_module(i % 2 == 0 ? "COMe-XavierAGX" : "COMe-D1577"));
    s.slots.push_back(slot);
  }
  return s;
}

FaultEvent crash(double t, const std::string& slot) {
  FaultEvent e;
  e.time_s = t;
  e.kind = FaultKind::kModuleCrash;
  e.slot = slot;
  return e;
}

FaultEvent restart(double t, const std::string& slot) {
  FaultEvent e;
  e.time_s = t;
  e.kind = FaultKind::kModuleRestart;
  e.slot = slot;
  return e;
}

std::size_t count_kind(const ResilienceReport& r, ResilienceEventKind k) {
  return static_cast<std::size_t>(
      std::count_if(r.events.begin(), r.events.end(),
                    [&](const ResilienceEvent& e) { return e.kind == k; }));
}

const ResilienceEvent* first_of(const ResilienceReport& r, ResilienceEventKind k) {
  const auto it = std::find_if(r.events.begin(), r.events.end(),
                               [&](const ResilienceEvent& e) { return e.kind == k; });
  return it == r.events.end() ? nullptr : &*it;
}

// ---------------------------------------------------------------------------
// PlatformSimulator
// ---------------------------------------------------------------------------

TEST(PlatformSimulator, AppliesScheduledFaultsInTimeOrder) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  sim.schedule(crash(0.05, "come1"));
  sim.schedule(restart(0.10, "come1"));

  EXPECT_TRUE(sim.advance_to(0.04).empty());
  EXPECT_TRUE(sim.alive("come1"));

  const auto hit = sim.advance_to(0.06);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].kind, FaultKind::kModuleCrash);
  EXPECT_FALSE(sim.alive("come1"));
  EXPECT_EQ(sim.alive_of(s.slots), std::vector<std::string>{"come0"});

  const auto back = sim.advance_to(0.2);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].kind, FaultKind::kModuleRestart);
  EXPECT_TRUE(sim.alive("come1"));
  EXPECT_EQ(sim.faults_applied(), 2u);
  EXPECT_EQ(sim.faults_skipped(), 0u);
}

TEST(PlatformSimulator, SkipsInapplicableEventsInsteadOfThrowing) {
  TestRig s = recs_box_with_modules(1);
  PlatformSimulator sim(s.chassis, s.fabric);
  sim.schedule(crash(0.01, "come0"));
  sim.schedule(crash(0.02, "come0"));    // already dead
  sim.schedule(restart(0.03, "come0"));
  sim.schedule(restart(0.04, "come0"));  // already back
  sim.advance_to(0.1);
  EXPECT_EQ(sim.faults_applied(), 2u);
  EXPECT_EQ(sim.faults_skipped(), 2u);
  EXPECT_TRUE(sim.alive("come0"));
}

TEST(PlatformSimulator, RejectsEventsInTheSimulatedPast) {
  TestRig s = recs_box_with_modules(1);
  PlatformSimulator sim(s.chassis, s.fabric);
  sim.advance_to(1.0);
  EXPECT_THROW(sim.schedule(crash(0.5, "come0")), InvalidArgument);
  EXPECT_THROW((void)sim.advance_to(0.5), Error);  // clock cannot go backwards
}

TEST(PlatformSimulator, ThermalThrottleScalesEffectiveGops) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  FaultEvent th;
  th.time_s = 0.01;
  th.kind = FaultKind::kThermalThrottle;
  th.slot = "come0";
  th.magnitude = 0.5;
  sim.schedule(th);
  FaultEvent rec = th;
  rec.time_s = 0.02;
  rec.kind = FaultKind::kThermalRecover;
  sim.schedule(rec);

  sim.advance_to(0.015);
  EXPECT_DOUBLE_EQ(sim.gops_scale("come0"), 0.5);
  EXPECT_DOUBLE_EQ(sim.gops_scale("come1"), 1.0);
  EXPECT_EQ(sim.gops_scales().size(), 1u);
  sim.advance_to(0.03);
  EXPECT_DOUBLE_EQ(sim.gops_scale("come0"), 1.0);
  EXPECT_TRUE(sim.gops_scales().empty());
}

TEST(PlatformSimulator, LinkDropPartitionsAndRestoreHeals) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  FaultEvent drop;
  drop.time_s = 0.01;
  drop.kind = FaultKind::kLinkDrop;
  drop.a = "switch0";
  drop.b = "come1";
  sim.schedule(drop);
  FaultEvent restore = drop;
  restore.time_s = 0.02;
  restore.kind = FaultKind::kLinkRestore;
  sim.schedule(restore);

  sim.advance_to(0.015);
  EXPECT_THROW((void)sim.try_transfer("come0", "come1"), NotFound);
  sim.advance_to(0.03);
  EXPECT_TRUE(sim.try_transfer("come0", "come1"));  // prob 0 -> always ok
}

TEST(PlatformSimulator, TransientTransferErrorsAreSeededAndDeterministic) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator::Config cfg;
  cfg.transient_transfer_prob = 0.5;
  cfg.seed = 42;
  PlatformSimulator a(s.chassis, s.fabric, cfg);
  PlatformSimulator b(s.chassis, s.fabric, cfg);
  int failures = 0;
  for (int i = 0; i < 64; ++i) {
    const bool ra = a.try_transfer("come0", "come1");
    EXPECT_EQ(ra, b.try_transfer("come0", "come1"));
    if (!ra) ++failures;
  }
  EXPECT_GT(failures, 8);  // prob 0.5 over 64 draws
  EXPECT_LT(failures, 56);
}

TEST(PlatformSimulator, LinkPartitionSeversEveryLinkAndHealReinstates) {
  TestRig s = recs_box_with_modules(3);
  PlatformSimulator sim(s.chassis, s.fabric);
  FaultEvent cut;
  cut.time_s = 0.01;
  cut.kind = FaultKind::kLinkPartition;
  cut.slot = "come1";
  sim.schedule(cut);
  FaultEvent heal = cut;
  heal.time_s = 0.02;
  heal.kind = FaultKind::kLinkHeal;
  sim.schedule(heal);
  // healing an unpartitioned slot later is a skip, not an error
  FaultEvent spurious = heal;
  spurious.time_s = 0.03;
  sim.schedule(spurious);

  sim.advance_to(0.015);
  EXPECT_TRUE(sim.partitioned("come1"));
  EXPECT_THROW((void)sim.try_transfer("come0", "come1"), NotFound);
  EXPECT_THROW((void)sim.draw_channel("switch0", "come1"), NotFound);
  EXPECT_TRUE(sim.try_transfer("come0", "come2"));  // others unaffected

  sim.advance_to(0.025);
  EXPECT_FALSE(sim.partitioned("come1"));
  EXPECT_TRUE(sim.try_transfer("come0", "come1"));

  sim.advance_to(0.04);
  EXPECT_EQ(sim.faults_applied(), 2u);
  EXPECT_EQ(sim.faults_skipped(), 1u);
}

TEST(PlatformSimulator, PacketDupAndReorderArmPerLinkHazards) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator::Config cfg;
  cfg.seed = 21;
  PlatformSimulator sim(s.chassis, s.fabric, cfg);

  FaultEvent dup;
  dup.time_s = 0.01;
  dup.kind = FaultKind::kPacketDup;
  dup.a = "switch0";
  dup.b = "come1";
  dup.magnitude = 0.9;
  sim.schedule(dup);
  FaultEvent reorder = dup;
  reorder.kind = FaultKind::kPacketReorder;
  sim.schedule(reorder);
  sim.advance_to(0.02);

  EXPECT_DOUBLE_EQ(sim.dup_prob("switch0", "come1"), 0.9);
  EXPECT_DOUBLE_EQ(sim.reorder_prob("come1", "switch0"), 0.9);  // undirected
  EXPECT_DOUBLE_EQ(sim.dup_prob("switch0", "come0"), 0.0);      // other links clean

  int dups = 0, reorders = 0;
  for (int i = 0; i < 100; ++i) {
    const auto d = sim.draw_channel("switch0", "come1");
    if (d.duplicated) ++dups;
    if (d.reordered) ++reorders;
  }
  EXPECT_GT(dups, 60);  // p = 0.9 over 100 draws
  EXPECT_GT(reorders, 60);
  // the clean link consumes no hazard draws
  const auto clean = sim.draw_channel("switch0", "come0");
  EXPECT_TRUE(clean.intact);
  EXPECT_FALSE(clean.duplicated);
  EXPECT_FALSE(clean.reordered);

  // magnitude 0 disarms the hazard (the heal convention)
  FaultEvent disarm = dup;
  disarm.time_s = 0.03;
  disarm.magnitude = 0.0;
  sim.schedule(disarm);
  sim.advance_to(0.04);
  EXPECT_DOUBLE_EQ(sim.dup_prob("switch0", "come1"), 0.0);
}

TEST(PlatformSimulator, DescribeNamesChannelFaultState) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  FaultEvent cut;
  cut.time_s = 0.01;
  cut.kind = FaultKind::kLinkPartition;
  cut.slot = "come1";
  sim.schedule(cut);
  FaultEvent dup;
  dup.time_s = 0.01;
  dup.kind = FaultKind::kPacketDup;
  dup.a = "switch0";
  dup.b = "come0";
  dup.magnitude = 0.5;
  sim.schedule(dup);
  sim.advance_to(0.02);
  const std::string d = sim.describe();
  EXPECT_NE(d.find("partitioned=1"), std::string::npos) << d;
  EXPECT_NE(d.find("dup_links=1"), std::string::npos) << d;
  EXPECT_NE(d.find("reorder_links=0"), std::string::npos) << d;
}

TEST(PlatformSimulator, NextFaultTimeDrivesEventLoops) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  EXPECT_FALSE(sim.next_fault_time().has_value());
  sim.schedule(crash(0.05, "come1"));
  sim.schedule(restart(0.10, "come1"));
  ASSERT_TRUE(sim.next_fault_time().has_value());
  EXPECT_DOUBLE_EQ(*sim.next_fault_time(), 0.05);
  sim.advance_to(0.06);
  EXPECT_DOUBLE_EQ(*sim.next_fault_time(), 0.10);
  sim.advance_to(0.2);
  EXPECT_FALSE(sim.next_fault_time().has_value());
}

TEST(FaultTimeline, PushKeepsEventsSorted) {
  FaultTimeline t;
  t.push(crash(0.3, "come0"));
  t.push(crash(0.1, "come1"));
  t.push(crash(0.2, "come2"));
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.events()[0].time_s, 0.1);
  EXPECT_DOUBLE_EQ(t.events()[1].time_s, 0.2);
  EXPECT_DOUBLE_EQ(t.events()[2].time_s, 0.3);
}

TEST(FaultTimeline, RandomCampaignIsDeterministicAndSorted) {
  const std::vector<std::string> slots{"come0", "come1", "come2"};
  Rng ra(7), rb(7);
  const FaultTimeline a = FaultTimeline::random_campaign(slots, 8, 1.0, ra);
  const FaultTimeline b = FaultTimeline::random_campaign(slots, 8, 1.0, rb);
  ASSERT_EQ(a.size(), 16u);  // inject + recover per fault
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time_s, b.events()[i].time_s);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].subject(), b.events()[i].subject());
    if (i > 0) {
      EXPECT_GE(a.events()[i].time_s, a.events()[i - 1].time_s);
    }
  }
}

TEST(FaultTimeline, LossyFabricCampaignIsDeterministicAndSelfHealing) {
  const std::vector<std::string> slots{"come0", "come1", "come2"};
  Rng ra(7), rb(7);
  const FaultTimeline a = FaultTimeline::lossy_fabric_campaign(slots, 10, 1.0, 0.4, ra);
  const FaultTimeline b = FaultTimeline::lossy_fabric_campaign(slots, 10, 1.0, 0.4, rb);
  ASSERT_EQ(a.size(), 20u);  // inject + heal per fault
  ASSERT_EQ(a.size(), b.size());
  std::size_t channel_faults = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time_s, b.events()[i].time_s);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].subject(), b.events()[i].subject());
    if (i > 0) {
      EXPECT_GE(a.events()[i].time_s, a.events()[i - 1].time_s);
    }
    switch (a.events()[i].kind) {
      case FaultKind::kLinkPartition:
      case FaultKind::kPacketDup:
      case FaultKind::kPacketReorder:
        ++channel_faults;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(channel_faults, 0u);  // the campaign actually exercises the fabric
  // every injection heals inside the window: count balance per kind
  std::map<FaultKind, int> balance;
  for (const FaultEvent& e : a.events()) {
    switch (e.kind) {
      case FaultKind::kLinkPartition: ++balance[FaultKind::kLinkPartition]; break;
      case FaultKind::kLinkHeal: --balance[FaultKind::kLinkPartition]; break;
      case FaultKind::kModuleCrash: ++balance[FaultKind::kModuleCrash]; break;
      case FaultKind::kModuleRestart: --balance[FaultKind::kModuleCrash]; break;
      case FaultKind::kPacketDup:
        balance[FaultKind::kPacketDup] += e.magnitude > 0 ? 1 : -1;
        break;
      case FaultKind::kPacketReorder:
        balance[FaultKind::kPacketReorder] += e.magnitude > 0 ? 1 : -1;
        break;
      default:
        break;
    }
  }
  for (const auto& [kind, n] : balance) {
    EXPECT_EQ(n, 0) << "unbalanced fault kind " << static_cast<int>(kind);
  }
}

// ---------------------------------------------------------------------------
// ResilienceController: end-to-end scenario (the ISSUE acceptance case)
// ---------------------------------------------------------------------------

ResilienceConfig scenario_config() {
  ResilienceConfig cfg;
  cfg.heartbeat_period_s = 10e-3;
  cfg.heartbeat_miss_threshold = 3;
  cfg.max_transfer_attempts = 5;
  cfg.latency_budget_s = 1.0;
  cfg.precision_ladder = {DType::kINT8};
  cfg.seed = 1234;
  return cfg;
}

ResilienceReport run_crash_scenario(std::uint64_t sim_seed, obs::Tracer* tracer = nullptr) {
  TestRig s = recs_box_with_modules(3);
  PlatformSimulator::Config pc;
  pc.transient_transfer_prob = 0.05;
  pc.seed = sim_seed;
  PlatformSimulator sim(s.chassis, s.fabric, pc);
  sim.schedule(crash(0.205, "come1"));  // mid-run, between heartbeats

  Graph g = zoo::resnet50();
  ResilienceConfig cfg = scenario_config();
  cfg.trace = tracer;
  ResilienceController ctl(g, sim, s.slots, 3, DType::kINT8, cfg);
  return ctl.run(1.0);
}

TEST(Resilience, EndToEndCrashDetectFailoverRecover) {
  const ResilienceReport r = run_crash_scenario(99);

  // The healthy plan used all three modules, three stages.
  ASSERT_EQ(r.healthy_plan.stages.size(), 3u);
  EXPECT_GT(r.healthy_plan.throughput_fps, 0.0);

  // The crash was injected and detected by missed heartbeats within the
  // configured threshold: 3 misses at 10 ms cadence, crash at t=0.205 ->
  // detection no later than t=0.24 (3 full periods + phase).
  const ResilienceEvent* injected = first_of(r, ResilienceEventKind::kFaultInjected);
  ASSERT_NE(injected, nullptr);
  EXPECT_EQ(injected->subject, "slot come1");
  ASSERT_GE(count_kind(r, ResilienceEventKind::kHeartbeatMiss), 3u);
  const ResilienceEvent* detected = first_of(r, ResilienceEventKind::kFaultDetected);
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->subject, "slot come1");
  ASSERT_EQ(r.detection_latencies_s.size(), 1u);
  EXPECT_LE(r.detection_latencies_s[0], 3 * 10e-3 + 10e-3);
  EXPECT_GE(r.detection_latencies_s[0], 2 * 10e-3);

  // Transient link faults were retried with backoff.
  EXPECT_GT(r.transfer_retries, 0u);
  EXPECT_GE(count_kind(r, ResilienceEventKind::kTransientFault), r.transfer_retries / 2);

  // The dead slot's stages failed over to survivors; the final plan avoids
  // come1 entirely and the pipeline stayed alive.
  EXPECT_GE(r.failovers, 1u);
  ASSERT_TRUE(r.pipeline_alive);
  ASSERT_FALSE(r.final_plan.stages.empty());
  for (const auto& st : r.final_plan.stages) EXPECT_NE(st.slot, "come1");
  EXPECT_EQ(r.recovery_times_s.size(), 1u);
  EXPECT_GT(r.mean_recovery_time_s(), 0.0);
  EXPECT_GT(r.frames_completed, 0u);

  // Recovered throughput is within 2x of a fresh plan computed directly on
  // the degraded platform (same survivors, same fabric).
  TestRig degraded = recs_box_with_modules(3);
  degraded.chassis.remove("come1");
  const auto fresh = plan_distributed_inference(
      zoo::resnet50(), degraded.chassis, degraded.fabric, {"come0", "come2"},
      r.final_plan.stages.size(), DType::kINT8);
  EXPECT_GE(r.final_plan.throughput_fps, fresh.throughput_fps / 2.0);
  EXPECT_LE(r.final_plan.throughput_fps, fresh.throughput_fps * 2.0);
}

TEST(Resilience, DeterministicUnderFixedSeed) {
  const ResilienceReport a = run_crash_scenario(99);
  const ResilienceReport b = run_crash_scenario(99);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].subject, b.events[i].subject);
    EXPECT_EQ(a.events[i].detail, b.events[i].detail);
  }
  EXPECT_EQ(a.frames_completed, b.frames_completed);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_DOUBLE_EQ(a.mean_detection_latency_s(), b.mean_detection_latency_s());
  EXPECT_DOUBLE_EQ(a.mean_recovery_time_s(), b.mean_recovery_time_s());

  // A different fault seed changes the transient-error pattern.
  const ResilienceReport c = run_crash_scenario(100);
  EXPECT_NE(a.transfer_retries, c.transfer_retries);
}

TEST(Resilience, ThermalThrottleDetectedViaTelemetryAndRebalanced) {
  TestRig s = recs_box_with_modules(3);
  PlatformSimulator sim(s.chassis, s.fabric);
  FaultEvent th;
  th.time_s = 0.105;
  th.kind = FaultKind::kThermalThrottle;
  th.slot = "come0";
  th.magnitude = 0.4;
  sim.schedule(th);

  Graph g = zoo::resnet50();
  ResilienceController ctl(g, sim, s.slots, 3, DType::kINT8, scenario_config());
  const ResilienceReport r = ctl.run(0.5);

  const ResilienceEvent* detected = first_of(r, ResilienceEventKind::kFaultDetected);
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->subject, "slot come0");
  EXPECT_NE(detected->detail.find("telemetry"), std::string::npos);
  ASSERT_EQ(r.detection_latencies_s.size(), 1u);
  EXPECT_LE(r.detection_latencies_s[0], 10e-3);  // visible at the next tick

  // The pipeline replanned against the throttled capacity and kept going;
  // steady-state throughput cannot exceed the healthy plan's.
  EXPECT_TRUE(r.pipeline_alive);
  EXPECT_GT(r.frames_completed, 0u);
  EXPECT_LE(r.final_plan.throughput_fps, r.healthy_plan.throughput_fps + 1e-9);
}

TEST(Resilience, RobustnessVerdictQuarantinesSlot) {
  TestRig s = recs_box_with_modules(3);
  PlatformSimulator sim(s.chassis, s.fabric);
  Graph g = zoo::resnet50();
  ResilienceController ctl(g, sim, s.slots, 3, DType::kINT8, scenario_config());

  // checked-ok and not-checked verdicts are ignored; checked-faulty at
  // t=0.3 quarantines come2 even though it still answers heartbeats.
  ctl.report_verdict("come2", safety::CheckResult::kCheckedOk, 0.1);
  ctl.report_verdict("come2", safety::CheckResult::kNotChecked, 0.2);
  ctl.report_verdict("come2", safety::CheckResult::kCheckedFaulty, 0.3);
  const ResilienceReport r = ctl.run(1.0);

  const ResilienceEvent* detected = first_of(r, ResilienceEventKind::kFaultDetected);
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->subject, "slot come2");
  EXPECT_NE(detected->detail.find("robustness service"), std::string::npos);
  EXPECT_GE(detected->time_s, 0.3);
  EXPECT_EQ(count_kind(r, ResilienceEventKind::kHeartbeatMiss), 0u);  // silent fault
  EXPECT_GE(r.failovers, 1u);
  ASSERT_TRUE(r.pipeline_alive);
  for (const auto& st : r.final_plan.stages) EXPECT_NE(st.slot, "come2");
}

TEST(Resilience, UnrecoverableWhenAllSlotsDieThenHealsOnRestart) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  sim.schedule(crash(0.1, "come0"));
  sim.schedule(crash(0.1, "come1"));
  sim.schedule(restart(0.5, "come0"));

  Graph g = zoo::resnet50();
  ResilienceController ctl(g, sim, s.slots, 2, DType::kINT8, scenario_config());
  const ResilienceReport r = ctl.run(1.0);

  EXPECT_GE(count_kind(r, ResilienceEventKind::kUnrecoverable), 1u);
  EXPECT_GT(r.frames_dropped, 0u);
  // come0 restarted at t=0.5: the controller replans and the pipeline ends
  // the run alive as a single-slot deployment.
  EXPECT_TRUE(r.pipeline_alive);
  ASSERT_FALSE(r.final_plan.stages.empty());
  for (const auto& st : r.final_plan.stages) EXPECT_EQ(st.slot, "come0");
}

TEST(Resilience, TracerMirrorsEventLogWithoutChangingIt) {
  // Routing the event log through vedliot::obs must be a pure mirror: the
  // structured report is bit-identical with and without a tracer attached,
  // and every event appears as one instant span in log order.
  const ResilienceReport plain = run_crash_scenario(99);
  obs::Tracer tracer;
  const ResilienceReport traced = run_crash_scenario(99, &tracer);

  ASSERT_EQ(plain.events.size(), traced.events.size());
  for (std::size_t i = 0; i < plain.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.events[i].time_s, traced.events[i].time_s);
    EXPECT_EQ(plain.events[i].kind, traced.events[i].kind);
    EXPECT_EQ(plain.events[i].subject, traced.events[i].subject);
    EXPECT_EQ(plain.events[i].detail, traced.events[i].detail);
    EXPECT_DOUBLE_EQ(plain.events[i].value, traced.events[i].value);
  }
  EXPECT_EQ(plain.frames_completed, traced.frames_completed);
  EXPECT_EQ(plain.transfer_retries, traced.transfer_retries);

  // Every logged event has exactly one instant span in the resilience
  // category, in log order (the run span sits under its own category).
  const auto violations = obs::EventLog<ResilienceEventKind>::check_mirror(
      traced.events, "vedliot.platform.resilience", tracer);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());

  // The whole run sits under one closed "resilience.run" span, and the
  // replans show up as planner spans.
  ASSERT_FALSE(tracer.spans().empty());
  EXPECT_EQ(tracer.spans().front().name, "resilience.run");
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_TRUE(std::any_of(tracer.spans().begin(), tracer.spans().end(), [](const obs::Span& sp) {
    return sp.name == "plan_distributed_inference";
  }));
}

TEST(Resilience, EventsAccessorAndJsonRoundTrip) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  sim.schedule(crash(0.105, "come1"));
  Graph g = zoo::resnet50();
  ResilienceController ctl(g, sim, s.slots, 2, DType::kINT8, scenario_config());
  const ResilienceReport r = ctl.run(0.5);

  // The typed accessor exposes the same log the report carries.
  const std::span<const ResilienceEvent> view = ctl.events();
  ASSERT_EQ(view.size(), r.events.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].kind, r.events[i].kind);
    EXPECT_EQ(view[i].subject, r.events[i].subject);
  }

  // to_json() round-trips through the obs JSON parser with every event.
  const obs::JsonValue doc = obs::json_parse(r.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("record").as_string(), "resilience-report");
  EXPECT_EQ(doc.at("pipeline_alive").boolean, r.pipeline_alive);
  EXPECT_DOUBLE_EQ(doc.at("frames_completed").as_number(),
                   static_cast<double>(r.frames_completed));
  const obs::JsonValue& events = doc.at("events");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), r.events.size());
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    EXPECT_EQ(events.array[i].at("kind").as_string(),
              event_name(r.events[i].kind));
    EXPECT_EQ(events.array[i].at("subject").as_string(), r.events[i].subject);
    EXPECT_DOUBLE_EQ(events.array[i].at("time_s").as_number(), r.events[i].time_s);
  }
}

TEST(Resilience, EventLogFormatsHumanReadably) {
  ResilienceEvent e;
  e.time_s = 0.03;
  e.kind = ResilienceEventKind::kFaultDetected;
  e.subject = "slot come1";
  e.detail = "declared dead after 3 missed heartbeats";
  const std::string line = format_event(e);
  EXPECT_NE(line.find("fault-detected"), std::string::npos);
  EXPECT_NE(line.find("slot come1"), std::string::npos);
  EXPECT_NE(line.find("declared dead"), std::string::npos);
}

TEST(Resilience, ControllerIsOneShot) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  Graph g = zoo::resnet50();
  ResilienceController ctl(g, sim, s.slots, 2, DType::kINT8, scenario_config());
  (void)ctl.run(0.05);
  EXPECT_THROW((void)ctl.run(0.05), Error);
}

TEST(Resilience, TransferAttemptsAreCappedAgainstRetryStorms) {
  // A pathological config asks for a million attempts per frame on a
  // fabric that fails 99% of transfers. The controller must clamp to
  // kTransferAttemptCap: frames drop (a million attempts would virtually
  // never give up) and every give-up names the clamped attempt count.
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator::Config pc;
  pc.transient_transfer_prob = 0.99;
  pc.seed = 31;
  PlatformSimulator sim(s.chassis, s.fabric, pc);
  Graph g = zoo::resnet50();
  ResilienceConfig cfg = scenario_config();
  cfg.max_transfer_attempts = 1'000'000;
  ResilienceController ctl(g, sim, s.slots, 2, DType::kINT8, cfg);
  const ResilienceReport r = ctl.run(0.2);

  EXPECT_GT(r.frames_dropped, 0u);
  const ResilienceEvent* timeout = first_of(r, ResilienceEventKind::kTransferTimeout);
  ASSERT_NE(timeout, nullptr);
  EXPECT_NE(timeout->detail.find(
                "after " + std::to_string(ResilienceController::kTransferAttemptCap)),
            std::string::npos);
  // No frame burned more than the cap: transient faults per give-up are
  // bounded by kTransferAttemptCap (plus the frames that squeaked through).
  const std::size_t timeouts = count_kind(r, ResilienceEventKind::kTransferTimeout);
  const std::size_t frames = r.frames_completed + r.frames_dropped;
  EXPECT_LE(r.transfer_retries,
            frames * 2 * static_cast<std::size_t>(ResilienceController::kTransferAttemptCap));
  EXPECT_GE(timeouts, 1u);
}

// ---------------------------------------------------------------------------
// HealthMonitor (shared by the resilience controller and the serve layer)
// ---------------------------------------------------------------------------

TEST(HealthMonitor, DeclaresDownAtThresholdAndRecoversByProbe) {
  TestRig s = recs_box_with_modules(2);
  PlatformSimulator sim(s.chassis, s.fabric);
  HealthMonitor mon({"come0", "come1"}, HealthConfig{3});
  sim.schedule(crash(0.01, "come1"));
  sim.advance_to(0.02);

  const auto b1 = mon.tick(sim);
  ASSERT_EQ(b1.size(), 1u);  // healthy come0 is silent
  EXPECT_EQ(b1[0].slot, "come1");
  EXPECT_EQ(b1[0].misses, 1);
  EXPECT_FALSE(b1[0].declared_down);
  (void)mon.tick(sim);
  const auto b3 = mon.tick(sim);
  ASSERT_EQ(b3.size(), 1u);
  EXPECT_EQ(b3[0].misses, 3);
  EXPECT_TRUE(b3[0].declared_down);
  EXPECT_TRUE(mon.down("come1"));

  // Down slots are only probed for recovery — no further miss beats.
  EXPECT_TRUE(mon.tick(sim).empty());

  sim.schedule(restart(0.03, "come1"));
  sim.advance_to(0.05);
  const auto back = mon.tick(sim);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].recovered);
  EXPECT_FALSE(mon.down("come1"));
}

TEST(HealthMonitor, MarkUpClearsStateForExternallyObservedRestarts) {
  TestRig s = recs_box_with_modules(1);
  PlatformSimulator sim(s.chassis, s.fabric);
  HealthMonitor mon({"come0"}, HealthConfig{2});
  sim.schedule(crash(0.01, "come0"));
  sim.advance_to(0.02);
  (void)mon.tick(sim);
  (void)mon.tick(sim);
  ASSERT_TRUE(mon.down("come0"));

  // The controller saw the module-restart fault event itself.
  sim.schedule(restart(0.03, "come0"));
  sim.advance_to(0.04);
  mon.mark_up("come0");
  EXPECT_FALSE(mon.down("come0"));
  // Miss counting starts fresh after the clear.
  EXPECT_TRUE(mon.tick(sim).empty());
}

}  // namespace
}  // namespace vedliot::platform
