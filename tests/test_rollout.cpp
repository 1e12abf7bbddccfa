// Tests for the fleet OTA rollout stack: the chunked resumable transport
// (safety/ota_transport.hpp), the staged-canary RolloutController
// (serve/rollout.hpp) driving a simulated device swarm through lossy-fabric
// faults, and the deterministic rollout soak (soak/ota_soak.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/baseboard.hpp"
#include "platform/faults.hpp"
#include "platform/microserver.hpp"
#include "safety/model_store.hpp"
#include "safety/ota_transport.hpp"
#include "serve/rollout.hpp"
#include "soak/ota_soak.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {
namespace {

using namespace soak;

using safety::OtaChunk;
using safety::OtaChunker;
using safety::OtaReceiver;
using safety::OtaSender;

std::vector<std::uint8_t> test_package(std::size_t n, std::uint8_t salt = 7) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>((i * 31 + salt) & 0xFF);
  }
  return p;
}

// ---------------------------------------------------------------------------
// OtaChunker
// ---------------------------------------------------------------------------

TEST(OtaChunker, SplitsWithShortTail) {
  const auto pkg = test_package(1000);
  OtaChunker c(pkg, 256);
  EXPECT_EQ(c.chunk_count(), 4u);  // 256 * 3 + 232
  EXPECT_EQ(c.total_bytes(), 1000u);
  EXPECT_EQ(c.chunk(0).payload.size(), 256u);
  EXPECT_EQ(c.chunk(3).payload.size(), 232u);
  EXPECT_EQ(c.chunk(3).offset, 768u);
  // every chunk's CRC matches its payload
  for (std::uint32_t s = 0; s < c.chunk_count(); ++s) {
    const OtaChunk ch = c.chunk(s);
    EXPECT_EQ(ch.crc, util::crc32(std::span<const std::uint8_t>(ch.payload)));
  }
  EXPECT_THROW((void)c.chunk(4), Error);
}

TEST(OtaChunker, RejectsDegenerateInputs) {
  const auto pkg = test_package(100);
  EXPECT_THROW(OtaChunker(pkg, 16), Error);  // chunk_bytes < 64
  EXPECT_THROW(OtaChunker(std::span<const std::uint8_t>{}, 256), Error);
}

// ---------------------------------------------------------------------------
// OtaReceiver: dup / reorder / corrupt / bogus / resume
// ---------------------------------------------------------------------------

TEST(OtaReceiver, ReassemblesOutOfOrderAndDedupesExactly) {
  const auto pkg = test_package(1000);
  OtaChunker c(pkg, 256);
  OtaReceiver r(c.total_bytes(), c.chunk_bytes(), c.package_crc());

  // deliver in reverse order, each chunk twice
  for (std::uint32_t s = c.chunk_count(); s-- > 0;) {
    EXPECT_EQ(r.accept(c.chunk(s)), OtaReceiver::Accept::kAccepted);
    EXPECT_EQ(r.accept(c.chunk(s)), OtaReceiver::Accept::kDuplicate);
  }
  ASSERT_TRUE(r.complete());
  EXPECT_EQ(r.assemble(), pkg);
}

TEST(OtaReceiver, RefusesCorruptAndBogusChunksWithoutStateDamage) {
  const auto pkg = test_package(1000);
  OtaChunker c(pkg, 256);
  OtaReceiver r(c.total_bytes(), c.chunk_bytes(), c.package_crc());

  OtaChunk damaged = c.chunk(1);
  damaged.payload[10] ^= 0x40;  // CRC now stale
  EXPECT_EQ(r.accept(damaged), OtaReceiver::Accept::kCorrupt);
  EXPECT_FALSE(r.has(1));

  OtaChunk bogus = c.chunk(2);
  bogus.offset += 1;  // inconsistent with seq * chunk_bytes
  EXPECT_EQ(r.accept(bogus), OtaReceiver::Accept::kBogus);
  OtaChunk out_of_range = c.chunk(0);
  out_of_range.seq = 99;
  out_of_range.offset = 99ull * 256;
  EXPECT_EQ(r.accept(out_of_range), OtaReceiver::Accept::kBogus);

  EXPECT_EQ(r.received_chunks(), 0u);
  for (std::uint32_t s = 0; s < c.chunk_count(); ++s) r.accept(c.chunk(s));
  EXPECT_EQ(r.assemble(), pkg);
}

TEST(OtaReceiver, AssembleRefusesTornImage) {
  const auto pkg = test_package(1000);
  OtaChunker c(pkg, 256);
  OtaReceiver r(c.total_bytes(), c.chunk_bytes(), c.package_crc());
  r.accept(c.chunk(0));
  r.accept(c.chunk(2));
  EXPECT_FALSE(r.complete());
  EXPECT_THROW((void)r.assemble(), Error);  // a torn image is unrepresentable
  EXPECT_EQ(r.next_needed(), 1u);
}

TEST(OtaReceiver, JournalSurvivesInterruptionAndResumesFromLastGoodChunk) {
  const auto pkg = test_package(4096);
  OtaChunker c(pkg, 512);
  OtaReceiver r(c.total_bytes(), c.chunk_bytes(), c.package_crc());

  // first attempt lands chunks 0..2, then the device "crashes" (the
  // receiver object IS the journal: nothing else persists)
  for (std::uint32_t s = 0; s < 3; ++s) r.accept(c.chunk(s));
  EXPECT_EQ(r.next_needed(), 3u);

  // after restart the sender asks the journal where to resume; only the
  // remaining chunks move
  std::size_t resent = 0;
  while (!r.complete()) {
    r.accept(c.chunk(r.next_needed()));
    ++resent;
  }
  EXPECT_EQ(resent, c.chunk_count() - 3);
  EXPECT_EQ(r.assemble(), pkg);
}

TEST(OtaReceiver, PinsWholePackageCrcFromAnnouncement) {
  const auto pkg = test_package(1000);
  OtaChunker c(pkg, 256);
  // announcement carries the wrong whole-package CRC: every chunk lands
  // fine but assembly must refuse the mismatched image
  OtaReceiver r(c.total_bytes(), c.chunk_bytes(), c.package_crc() ^ 1);
  for (std::uint32_t s = 0; s < c.chunk_count(); ++s) r.accept(c.chunk(s));
  ASSERT_TRUE(r.complete());
  EXPECT_THROW((void)r.assemble(), Error);
}

// ---------------------------------------------------------------------------
// OtaSender: windowing, retries, exhaustion, backoff bounds
// ---------------------------------------------------------------------------

TEST(OtaSender, SelectsWindowOfLowestMissingChunks) {
  const auto pkg = test_package(2048);
  OtaChunker c(pkg, 256);
  OtaReceiver r(c.total_bytes(), c.chunk_bytes(), c.package_crc());
  OtaSender::Config sc;
  sc.window = 3;
  OtaSender s(sc, 42);

  EXPECT_EQ(s.select(r), (std::vector<std::uint32_t>{0, 1, 2}));
  r.accept(c.chunk(0));
  r.accept(c.chunk(2));
  EXPECT_EQ(s.select(r), (std::vector<std::uint32_t>{1, 3, 4}));
  for (std::uint32_t q = 0; q < c.chunk_count(); ++q) r.accept(c.chunk(q));
  EXPECT_TRUE(s.select(r).empty());
}

TEST(OtaSender, BackoffStaysWithinFloorAndCap) {
  OtaSender::Config sc;
  sc.backoff_base_s = 1e-3;
  sc.backoff_cap_s = 8e-3;
  sc.backoff_floor_s = 0.25e-3;
  OtaSender s(sc, 7);
  for (int i = 0; i < 50; ++i) {
    const double w = s.on_result(0, false);
    EXPECT_GE(w, sc.backoff_floor_s);  // jitter floor: no hot retry loop
    EXPECT_LE(w, sc.backoff_cap_s);
  }
  EXPECT_DOUBLE_EQ(s.on_result(0, true), 0.0);
}

TEST(OtaSender, ExhaustsAfterAttemptCap) {
  OtaSender::Config sc;
  sc.max_chunk_attempts = 3;
  OtaSender s(sc, 7);
  EXPECT_FALSE(s.exhausted());
  (void)s.on_result(5, false);
  (void)s.on_result(5, false);
  EXPECT_FALSE(s.exhausted());
  (void)s.on_result(5, false);
  EXPECT_TRUE(s.exhausted());
  EXPECT_EQ(s.retries(), 3u);
}

// ---------------------------------------------------------------------------
// RolloutController end-to-end over a simulated swarm
// ---------------------------------------------------------------------------

struct SwarmRig {
  std::vector<std::string> slots;
  platform::Chassis chassis;
  platform::Fabric fabric;
};

SwarmRig swarm(int n) {
  platform::BaseboardSpec spec;
  spec.name = "test-swarm";
  std::vector<std::string> slots;
  for (int i = 0; i < n; ++i) {
    const std::string slot = "dev" + std::to_string(i);
    spec.slots.push_back(platform::SlotSpec{slot, {platform::FormFactor::kSMARC}, 8.0});
    slots.push_back(slot);
  }
  spec.total_power_budget_w = 8.0 * n;
  spec.ethernet_gbps = {1.0};
  platform::Chassis chassis(spec);
  for (const std::string& slot : slots) {
    chassis.install(slot, platform::find_module("SMARC-iMX8MPlus"));
  }
  return SwarmRig{slots, std::move(chassis), platform::star_fabric(slots, 1.0, {1.0})};
}

struct Versions {
  Graph v1;
  Graph v2;
};

Versions versions(std::uint64_t seed = 0x30DE1) {
  Graph v1 = zoo::micro_cnn("ota", 1, 3, 8, 8, 8);
  Rng rng(seed);
  v1.materialize_weights(rng);
  Graph v2 = v1.clone();
  for (NodeId id : v2.topo_order()) {
    Node& node = v2.node(id);
    if (!node.weights.empty()) {
      for (float& w : node.weights.at(0).data()) w *= 1.02f;
      break;
    }
  }
  v2.touch();
  return Versions{std::move(v1), std::move(v2)};
}

RolloutConfig rollout_config(const SwarmRig& rig) {
  RolloutConfig rc;
  rc.devices = rig.slots;
  rc.model_name = "ota";
  rc.canary_devices = 1;
  rc.chunk_bytes = 1024;
  rc.control_period_s = 1e-3;
  return rc;
}

TEST(RolloutController, CleanFabricCommitsWholeFleetInWaves) {
  SwarmRig rig = swarm(7);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Versions v = versions();
  const std::uint32_t manifest = RolloutController::serve_crc_of(v.v2, 0xCAA1B);

  RolloutController ctl(sim, rollout_config(rig));
  ctl.set_baseline(v.v1);
  ctl.set_target(safety::make_ota_package(v.v2, 0xCAA1B, 2), manifest);
  const RolloutReport r = ctl.run(2.0);

  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.halted);
  EXPECT_EQ(r.devices_committed, 7u);
  EXPECT_EQ(r.devices_rolled_back, 0u);
  // canary 1, then 2, then 4 (capped by fleet size)
  EXPECT_EQ(r.waves_started, 3u);
  EXPECT_EQ(r.waves_passed, 3u);
  EXPECT_EQ(r.chunk_retries, 0u);
  for (const DeviceOutcome& d : r.outcomes) {
    EXPECT_EQ(d.version, 2u);
    EXPECT_EQ(d.serve_crc, manifest);
  }
  // monotone progress curve
  for (std::size_t i = 1; i < r.progress.size(); ++i) {
    EXPECT_GE(r.progress[i].second, r.progress[i - 1].second);
  }
}

TEST(RolloutController, BadPackageHaltsAtCanaryAndRollsBackPaced) {
  SwarmRig rig = swarm(6);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Versions v = versions();
  // ship v1-with-different-weights against v2's manifest: internally
  // consistent (ModelStore commits it) but serving the wrong fingerprint
  Graph bad = v.v1.clone();
  for (NodeId id : bad.topo_order()) {
    Node& node = bad.node(id);
    if (!node.weights.empty()) {
      for (float& w : node.weights.at(0).data()) w *= 0.9f;
      break;
    }
  }
  bad.touch();

  RolloutConfig rc = rollout_config(rig);
  rc.canary_devices = 3;  // enough commits to overflow the rollback burst
  rc.rollback_rate_per_s = 100.0;
  rc.rollback_burst = 1.0;
  RolloutController ctl(sim, rc);
  ctl.set_baseline(v.v1);
  ctl.set_target(safety::make_ota_package(bad, 0xCAA1B, 2),
                 RolloutController::serve_crc_of(v.v2, 0xCAA1B));
  const RolloutReport r = ctl.run(2.0);

  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.halted);
  EXPECT_EQ(r.waves_passed, 0u);  // the canary gate caught it
  EXPECT_EQ(r.devices_committed, 0u);
  EXPECT_EQ(r.devices_rolled_back, 3u);
  EXPECT_GT(r.rollbacks_paced, 0u);  // the bucket forced waits
  const std::uint32_t baseline = RolloutController::serve_crc_of(v.v1, 0xCAA1B);
  for (const DeviceOutcome& d : r.outcomes) {
    EXPECT_EQ(d.version, 1u);
    EXPECT_EQ(d.serve_crc, baseline);
  }
  // rollback events respect the token bucket within every window
  std::vector<double> rb_times;
  for (const ServeEvent& e : r.events) {
    if (e.kind == ServeEventKind::kOtaRolledBack) rb_times.push_back(e.time_s);
  }
  ASSERT_EQ(rb_times.size(), 3u);
  for (std::size_t i = 0; i < rb_times.size(); ++i) {
    for (std::size_t j = i; j < rb_times.size(); ++j) {
      const double span = rb_times[j] - rb_times[i];
      EXPECT_LE(static_cast<double>(j - i + 1),
                rc.rollback_burst + rc.rollback_rate_per_s * span + 1e-6);
    }
  }
}

TEST(RolloutController, TransferResumesAfterCrashRestart) {
  SwarmRig rig = swarm(2);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Versions v = versions();

  // crash the canary mid-transfer; restart well before the run budget.
  // chunk service time at 1 Gbps is ~10 us, so 20 us is inside the stream.
  platform::FaultEvent crash;
  crash.time_s = 20e-6;
  crash.kind = platform::FaultKind::kModuleCrash;
  crash.slot = "dev0";
  sim.schedule(crash);
  platform::FaultEvent restart = crash;
  restart.time_s = 5e-3;
  restart.kind = platform::FaultKind::kModuleRestart;
  sim.schedule(restart);

  RolloutConfig rc = rollout_config(rig);
  rc.chunk_bytes = 256;  // many chunks: the crash lands inside the stream
  RolloutController ctl(sim, rc);
  ctl.set_baseline(v.v1);
  const std::uint32_t manifest = RolloutController::serve_crc_of(v.v2, 0xCAA1B);
  ctl.set_target(safety::make_ota_package(v.v2, 0xCAA1B, 2), manifest);
  const RolloutReport r = ctl.run(2.0);

  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.devices_committed, 2u);
  EXPECT_GE(r.resumes, 1u);
  EXPECT_GE(r.outcomes[0].resumes, 1u);
  // the resume continued from the journal instead of restarting: strictly
  // fewer distinct chunks than a full second transfer would deliver
  std::size_t resumed_events = 0;
  for (const ServeEvent& e : r.events) {
    if (e.kind == ServeEventKind::kOtaResumed) ++resumed_events;
  }
  EXPECT_GE(resumed_events, 1u);
}

TEST(RolloutController, PartitionPausesAndHealResumes) {
  SwarmRig rig = swarm(2);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Versions v = versions();

  platform::FaultEvent cut;
  cut.time_s = 20e-6;
  cut.kind = platform::FaultKind::kLinkPartition;
  cut.slot = "dev0";
  sim.schedule(cut);
  platform::FaultEvent heal = cut;
  heal.time_s = 5e-3;
  heal.kind = platform::FaultKind::kLinkHeal;
  sim.schedule(heal);

  RolloutConfig rc = rollout_config(rig);
  rc.chunk_bytes = 256;
  RolloutController ctl(sim, rc);
  ctl.set_baseline(v.v1);
  ctl.set_target(safety::make_ota_package(v.v2, 0xCAA1B, 2),
                 RolloutController::serve_crc_of(v.v2, 0xCAA1B));
  const RolloutReport r = ctl.run(2.0);

  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.devices_committed, 2u);
  EXPECT_GE(r.resumes, 1u);
}

TEST(RolloutController, ExhaustedSenderFailsDeviceNotFleet) {
  SwarmRig rig = swarm(3);
  platform::PlatformSimulator::Config pc;
  pc.transient_transfer_prob = 0.75;  // heavy damage
  pc.seed = 9;
  platform::PlatformSimulator sim(rig.chassis, rig.fabric, pc);
  Versions v = versions();

  RolloutConfig rc = rollout_config(rig);
  rc.sender.max_chunk_attempts = 2;  // give up almost immediately
  RolloutController ctl(sim, rc);
  ctl.set_baseline(v.v1);
  ctl.set_target(safety::make_ota_package(v.v2, 0xCAA1B, 2),
                 RolloutController::serve_crc_of(v.v2, 0xCAA1B));
  const RolloutReport r = ctl.run(2.0);

  // the canary's exhausted transfer trips its wave gate (fraction 1.0):
  // the rollout halts instead of pushing a package it cannot deliver, and
  // a failed transfer never touches any device's store
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.halted);
  EXPECT_GT(r.devices_failed, 0u);
  EXPECT_EQ(r.waves_passed, 0u);
  const std::uint32_t baseline = RolloutController::serve_crc_of(v.v1, 0xCAA1B);
  for (const DeviceOutcome& d : r.outcomes) {
    EXPECT_EQ(d.version, 1u);
    EXPECT_EQ(d.serve_crc, baseline);
    if (d.transfer_failed) {
      EXPECT_FALSE(d.rolled_back);  // nothing was installed to roll back
    }
  }
}

TEST(RolloutController, IsOneShotAndValidatesSetup) {
  SwarmRig rig = swarm(2);
  platform::PlatformSimulator sim(rig.chassis, rig.fabric);
  Versions v = versions();
  RolloutController ctl(sim, rollout_config(rig));
  EXPECT_THROW((void)ctl.run(1.0), Error);  // no baseline/target yet
  ctl.set_baseline(v.v1);
  EXPECT_THROW((void)ctl.run(1.0), Error);  // still no target
  ctl.set_target(safety::make_ota_package(v.v2, 0xCAA1B, 2),
                 RolloutController::serve_crc_of(v.v2, 0xCAA1B));
  (void)ctl.run(1.0);
  EXPECT_THROW((void)ctl.run(1.0), Error);  // one-shot
}

// ---------------------------------------------------------------------------
// Soak harness: invariants + bitwise determinism
// ---------------------------------------------------------------------------

OtaSoakConfig quick_soak(double fault_rate, bool bad = false) {
  OtaSoakConfig cfg;
  cfg.n_devices = 5;
  cfg.duration_s = 2.0;
  cfg.fault_rate = fault_rate;
  cfg.bad_package = bad;
  return cfg;
}

TEST(OtaSoak, CleanAndLossySweepsHoldAllInvariants) {
  for (const double rate : {0.0, 0.2}) {
    const OtaSoakResult r = run_ota_soak(quick_soak(rate));
    EXPECT_TRUE(r.ok()) << "rate " << rate << ": " << (r.violations.empty() ? "" : r.violations[0]);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.no_torn_install);
  }
}

TEST(OtaSoak, BadPackageHaltsRollsBackAndStillHoldsInvariants) {
  // 8 devices -> a 4-wide canary wave: more rollbacks than the bucket's
  // burst of 2, so the drain is actually paced and the span is positive
  OtaSoakConfig cfg = quick_soak(0.05, true);
  cfg.n_devices = 8;
  const OtaSoakResult r = run_ota_soak(cfg);
  EXPECT_TRUE(r.ok()) << (r.violations.empty() ? "" : r.violations[0]);
  EXPECT_TRUE(r.report.halted);
  EXPECT_EQ(r.report.waves_passed, 0u);
  EXPECT_EQ(r.report.devices_committed, 0u);
  EXPECT_EQ(r.report.devices_rolled_back, 4u);
  EXPECT_GT(r.report.rollbacks_paced, 0u);
  EXPECT_GT(r.rollback_span_s, 0.0);  // the drain was actually paced
}

TEST(OtaSoak, SameSeedIsBitwiseDeterministic) {
  const OtaSoakResult a = run_ota_soak(quick_soak(0.2));
  const OtaSoakResult b = run_ota_soak(quick_soak(0.2));
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(OtaSoak, JsonRecordCarriesTheGateFields) {
  const std::string j = run_ota_soak(quick_soak(0.0)).to_json();
  EXPECT_NE(j.find("\"record\":\"soak-ota\""), std::string::npos);
  EXPECT_NE(j.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(j.find("\"no_torn_install\":true"), std::string::npos);
  EXPECT_NE(j.find("\"events_fnv1a\""), std::string::npos);
}

}  // namespace
}  // namespace vedliot::serve
