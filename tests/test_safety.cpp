// Tests for the safety stack: input monitors, output robustness service,
// fault injection, architectural hybridization kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/package.hpp"
#include "graph/zoo.hpp"
#include "obs/metrics.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "safety/hybrid.hpp"
#include "safety/model_store.hpp"
#include "safety/monitors.hpp"
#include "safety/robustness.hpp"
#include "safety/scrub.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace vedliot::safety {
namespace {

TimeSeriesMonitor::Config default_ts_config() {
  TimeSeriesMonitor::Config cfg;
  cfg.window = 32;
  cfg.range_lo = -100.0;
  cfg.range_hi = 100.0;
  return cfg;
}

TEST(TimeSeriesMonitor, CleanSignalPasses) {
  TimeSeriesMonitor mon(default_ts_config());
  Rng rng(1);
  std::size_t bad = 0;
  for (int i = 0; i < 500; ++i) {
    if (mon.check(std::sin(i * 0.1) + rng.normal(0.0, 0.1)) != DataVerdict::kOk) ++bad;
  }
  // a robust monitor tolerates a noisy sine with near-zero false alarms
  EXPECT_LE(bad, 5u);
}

TEST(TimeSeriesMonitor, DetectsSpikeOutlier) {
  TimeSeriesMonitor mon(default_ts_config());
  Rng rng(2);
  for (int i = 0; i < 100; ++i) mon.check(rng.normal(0.0, 0.5));
  EXPECT_EQ(mon.check(50.0), DataVerdict::kOutlier);
  // the corrected value is the last known-good sample, not the spike
  EXPECT_LT(std::abs(mon.corrected()), 5.0);
}

TEST(TimeSeriesMonitor, OutlierDoesNotPoisonWindow) {
  // After one spike, normal samples must keep passing (median/MAD, not
  // mean/stddev, and rejected samples stay out of the window).
  TimeSeriesMonitor mon(default_ts_config());
  Rng rng(3);
  for (int i = 0; i < 100; ++i) mon.check(rng.normal(0.0, 0.5));
  mon.check(80.0);
  std::size_t bad = 0;
  for (int i = 0; i < 100; ++i) {
    if (mon.check(rng.normal(0.0, 0.5)) != DataVerdict::kOk) ++bad;
  }
  EXPECT_LE(bad, 2u);
}

TEST(TimeSeriesMonitor, DetectsStuckSensor) {
  auto cfg = default_ts_config();
  cfg.stuck_run = 5;
  TimeSeriesMonitor mon(cfg);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) mon.check(rng.normal(0.0, 1.0));
  DataVerdict v = DataVerdict::kOk;
  for (int i = 0; i < 10; ++i) v = mon.check(3.25);
  EXPECT_EQ(v, DataVerdict::kStuckAt);
}

TEST(TimeSeriesMonitor, DetectsMissingAndRange) {
  TimeSeriesMonitor mon(default_ts_config());
  EXPECT_EQ(mon.check(std::numeric_limits<double>::quiet_NaN()), DataVerdict::kMissing);
  EXPECT_EQ(mon.check(std::numeric_limits<double>::infinity()), DataVerdict::kMissing);
  EXPECT_EQ(mon.check(1000.0), DataVerdict::kOutOfRange);
  EXPECT_EQ(mon.check(-101.0), DataVerdict::kOutOfRange);
}

TEST(TimeSeriesMonitor, CountsAnomalies) {
  TimeSeriesMonitor mon(default_ts_config());
  Rng rng(5);
  for (int i = 0; i < 64; ++i) mon.check(rng.normal(0.0, 1.0));
  mon.check(1e6);
  mon.check(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(mon.anomalies(), 2u);
  EXPECT_EQ(mon.samples_seen(), 66u);
}

Tensor synthetic_frame(double mean, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{1, 1, 24, 24});
  for (float& v : t.data()) {
    v = static_cast<float>(std::clamp(mean + rng.normal(0.0, noise), 0.0, 1.0));
  }
  return t;
}

TEST(ImageMonitor, GoodFramePasses) {
  ImageMonitor mon;
  EXPECT_EQ(mon.check(synthetic_frame(0.5, 0.02, 1)), DataVerdict::kOk);
}

TEST(ImageMonitor, DetectsExposureProblems) {
  ImageMonitor mon;
  EXPECT_EQ(mon.check(synthetic_frame(0.005, 0.001, 2)), DataVerdict::kOutOfRange);  // dark
  Tensor bright(Shape{1, 1, 24, 24});
  bright.fill(0.999f);
  EXPECT_EQ(mon.check(bright), DataVerdict::kOutOfRange);
}

TEST(ImageMonitor, DetectsCoveredLens) {
  ImageMonitor mon;
  Tensor flat(Shape{1, 1, 24, 24});
  flat.fill(0.5f);
  EXPECT_EQ(mon.check(flat), DataVerdict::kStuckAt);
}

TEST(ImageMonitor, DetectsHeavyNoise) {
  ImageMonitor mon;
  EXPECT_EQ(mon.check(synthetic_frame(0.5, 0.5, 3)), DataVerdict::kNoisy);
}

TEST(ImageMonitor, DetectsNanPixels) {
  ImageMonitor mon;
  Tensor t = synthetic_frame(0.5, 0.02, 4);
  t.at(10) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(mon.check(t), DataVerdict::kMissing);
}

TEST(ImageMonitor, NoiseEstimatorOrdersFrames) {
  const double clean = ImageMonitor::noise_level(synthetic_frame(0.5, 0.01, 5));
  const double noisy = ImageMonitor::noise_level(synthetic_frame(0.5, 0.3, 6));
  EXPECT_LT(clean, noisy);
}

TEST(Correction, PolicyMapping) {
  EXPECT_EQ(correction_for(DataVerdict::kOk), CorrectionAction::kPass);
  EXPECT_EQ(correction_for(DataVerdict::kOutlier), CorrectionAction::kReplace);
  EXPECT_EQ(correction_for(DataVerdict::kMissing), CorrectionAction::kReplace);
  EXPECT_EQ(correction_for(DataVerdict::kNoisy), CorrectionAction::kDrop);
  EXPECT_EQ(correction_for(DataVerdict::kStuckAt), CorrectionAction::kDrop);
}

// ---------------------------------------------------------------------------
// Robustness service
// ---------------------------------------------------------------------------

struct Deployment {
  Graph graph;
  std::unique_ptr<runtime::Session> exec;
};

Deployment deploy_micro(std::uint64_t seed = 7) {
  Deployment d{zoo::micro_mlp("m", 1, 16, {24, 16}, 4), nullptr};
  Rng rng(seed);
  d.graph.materialize_weights(rng);
  d.exec = runtime::make_session(d.graph);
  return d;
}

Tensor sample_input(std::uint64_t seed) {
  Rng rng(seed);
  return Tensor(Shape{1, 16}, rng.normal_vector(16));
}

TEST(Robustness, HealthyDeploymentProducesNoFaults) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {4, 1e-4});
  for (int i = 0; i < 32; ++i) {
    const Tensor in = sample_input(static_cast<std::uint64_t>(i));
    service.submit(in, d.exec->run_single(in));
  }
  EXPECT_EQ(service.faults_detected(), 0u);
  EXPECT_EQ(service.checks_run(), 8u);  // every 4th of 32
}

TEST(Robustness, DetectsBitFlippedModel) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {1, 1e-5});  // check everything

  Rng rng(55);
  FaultInjector injector(rng);
  injector.flip_weight_bits(d.graph, 16);
  runtime::Session faulty(d.graph);

  std::size_t detected = 0;
  for (int i = 0; i < 16; ++i) {
    const Tensor in = sample_input(static_cast<std::uint64_t>(i));
    if (service.submit(in, faulty.run_single(in)) == CheckResult::kCheckedFaulty) ++detected;
  }
  EXPECT_GT(detected, 0u);
}

TEST(Robustness, DetectsZeroedChannel) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {1, 1e-5});
  Rng rng(56);
  FaultInjector injector(rng);
  injector.zero_random_channel(d.graph);
  runtime::Session faulty(d.graph);
  std::size_t detected = 0;
  for (int i = 0; i < 16; ++i) {
    const Tensor in = sample_input(static_cast<std::uint64_t>(i));
    if (service.submit(in, faulty.run_single(in)) == CheckResult::kCheckedFaulty) ++detected;
  }
  EXPECT_GT(detected, 0u);
}

TEST(Robustness, DetectsScaledLayerAttack) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {1, 1e-5});
  Rng rng(57);
  FaultInjector injector(rng);
  injector.scale_random_layer(d.graph, 1.5f);
  runtime::Session faulty(d.graph);
  std::size_t detected = 0;
  for (int i = 0; i < 16; ++i) {
    const Tensor in = sample_input(static_cast<std::uint64_t>(i));
    if (service.submit(in, faulty.run_single(in)) == CheckResult::kCheckedFaulty) ++detected;
  }
  EXPECT_GT(detected, 0u);
}

TEST(Robustness, PeriodSamplingSkipsChecks) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {8, 1e-4});
  for (int i = 0; i < 16; ++i) {
    const Tensor in = sample_input(static_cast<std::uint64_t>(i));
    service.submit(in, d.exec->run_single(in));
  }
  EXPECT_EQ(service.submissions(), 16u);
  EXPECT_EQ(service.checks_run(), 2u);
}

TEST(Robustness, GoldenCopyIndependentOfDeployedGraph) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {1, 1e-5});
  const Tensor in = sample_input(0);
  const Tensor good = d.exec->run_single(in);
  // Corrupt the deployed graph AFTER the service took its copy.
  Rng rng(58);
  FaultInjector(rng).scale_random_layer(d.graph, 10.0f);
  // The service still validates against the original behaviour.
  EXPECT_EQ(service.submit(in, good), CheckResult::kCheckedOk);
}

TEST(Robustness, SubmitDistinguishesSkippedFromVerified) {
  // The conflated bool return used to make "skipped by sampling" look like
  // "verified clean"; the CheckResult enum keeps the three outcomes apart.
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {2, 1e-4});
  const Tensor in = sample_input(0);
  const Tensor good = d.exec->run_single(in);
  EXPECT_EQ(service.submit(in, good), CheckResult::kNotChecked);  // 1st of period 2
  EXPECT_EQ(service.submit(in, good), CheckResult::kCheckedOk);

  Tensor bad = good;
  bad.at(0) += 1.0f;
  EXPECT_EQ(service.submit(in, bad), CheckResult::kNotChecked);
  EXPECT_EQ(service.submit(in, bad), CheckResult::kCheckedFaulty);
  EXPECT_EQ(service.faults_detected(), 1u);

  EXPECT_EQ(check_result_name(CheckResult::kNotChecked), "not-checked");
  EXPECT_EQ(check_result_name(CheckResult::kCheckedOk), "checked-ok");
  EXPECT_EQ(check_result_name(CheckResult::kCheckedFaulty), "checked-faulty");
}

// ---------------------------------------------------------------------------
// Fault injector structure: each fault class does exactly what it claims,
// deterministically under a fixed seed, and the golden-model service flags
// it (beyond the detection-rate tests above).
// ---------------------------------------------------------------------------

std::vector<Tensor> snapshot_weights(const Graph& g) {
  std::vector<Tensor> out;
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (!n.weights.empty()) out.push_back(n.weights[0]);
  }
  return out;
}

TEST(FaultInjector, ZeroRandomChannelZeroesExactlyOneChannel) {
  Deployment d = deploy_micro();
  const auto before = snapshot_weights(d.graph);
  Rng rng(77);
  FaultInjector(rng).zero_random_channel(d.graph);
  const auto after = snapshot_weights(d.graph);
  ASSERT_EQ(before.size(), after.size());

  std::size_t changed_layers = 0;
  for (std::size_t l = 0; l < before.size(); ++l) {
    if (std::equal(before[l].data().begin(), before[l].data().end(),
                   after[l].data().begin())) {
      continue;
    }
    ++changed_layers;
    // Exactly one output channel went to zero; the rest are untouched.
    const auto oc = after[l].shape().dim(0);
    const auto per = static_cast<std::size_t>(after[l].numel() / oc);
    std::size_t zeroed = 0;
    for (std::int64_t c = 0; c < oc; ++c) {
      const auto chan = after[l].data().subspan(static_cast<std::size_t>(c) * per, per);
      const bool all_zero =
          std::all_of(chan.begin(), chan.end(), [](float v) { return v == 0.0f; });
      const auto prev = before[l].data().subspan(static_cast<std::size_t>(c) * per, per);
      if (all_zero) {
        ++zeroed;
      } else {
        EXPECT_TRUE(std::equal(prev.begin(), prev.end(), chan.begin()));
      }
    }
    EXPECT_EQ(zeroed, 1u);
  }
  EXPECT_EQ(changed_layers, 1u);
}

TEST(FaultInjector, ScaleRandomLayerScalesExactlyOneLayer) {
  Deployment d = deploy_micro();
  const auto before = snapshot_weights(d.graph);
  Rng rng(78);
  FaultInjector(rng).scale_random_layer(d.graph, 2.0f);
  const auto after = snapshot_weights(d.graph);
  ASSERT_EQ(before.size(), after.size());

  std::size_t changed_layers = 0;
  for (std::size_t l = 0; l < before.size(); ++l) {
    bool same = true, scaled = true;
    for (std::int64_t i = 0; i < before[l].numel(); ++i) {
      const float b = before[l].at(static_cast<std::size_t>(i));
      const float a = after[l].at(static_cast<std::size_t>(i));
      if (a != b) same = false;
      if (a != 2.0f * b) scaled = false;
    }
    if (!same) {
      ++changed_layers;
      EXPECT_TRUE(scaled) << "layer " << l << " changed but not by the gain factor";
    }
  }
  EXPECT_EQ(changed_layers, 1u);
}

TEST(FaultInjector, DeterministicUnderFixedSeed) {
  Deployment a = deploy_micro();
  Deployment b = deploy_micro();
  Rng ra(99), rb(99);
  FaultInjector(ra).zero_random_channel(a.graph);
  FaultInjector(rb).zero_random_channel(b.graph);
  const auto wa = snapshot_weights(a.graph);
  const auto wb = snapshot_weights(b.graph);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t l = 0; l < wa.size(); ++l) {
    EXPECT_TRUE(std::equal(wa[l].data().begin(), wa[l].data().end(), wb[l].data().begin()));
  }
}

TEST(FaultInjector, RequiresParametricNodes) {
  Graph g("no-params");
  const NodeId in = g.add_input("x", Shape{1, 8});
  g.add(OpKind::kRelu, "relu", {in});
  Rng rng(5);
  FaultInjector injector(rng);
  EXPECT_THROW(injector.zero_random_channel(g), Error);
  EXPECT_THROW(injector.scale_random_layer(g, 2.0f), Error);
  EXPECT_THROW(injector.flip_weight_bits(g, 1), Error);
}

TEST(FaultInjector, ServiceFlagsEachFaultClass) {
  // The golden-model service must flag every injected fault class on at
  // least one probe input (period 1, tight tolerance).
  const auto detect = [](void (*inject)(Graph&, Rng&)) {
    Deployment d = deploy_micro();
    RobustnessService service(d.graph, {1, 1e-5});
    Rng rng(101);
    inject(d.graph, rng);
    runtime::Session faulty(d.graph);
    std::size_t hits = 0;
    for (int i = 0; i < 24; ++i) {
      const Tensor in = sample_input(static_cast<std::uint64_t>(1000 + i));
      if (service.submit(in, faulty.run_single(in)) == CheckResult::kCheckedFaulty) ++hits;
    }
    return hits;
  };
  EXPECT_GT(detect([](Graph& g, Rng& r) { FaultInjector(r).zero_random_channel(g); }), 0u);
  EXPECT_GT(detect([](Graph& g, Rng& r) { FaultInjector(r).scale_random_layer(g, 1.5f); }), 0u);
  EXPECT_GT(detect([](Graph& g, Rng& r) { FaultInjector(r).flip_weight_bits(g, 16); }), 0u);
}

// ---------------------------------------------------------------------------
// Hybridization kernel
// ---------------------------------------------------------------------------

PayloadTask perception_task() {
  PayloadTask t;
  t.name = "perception";
  t.period_s = 0.1;
  t.deadline_s = 0.15;
  t.misses_to_degrade = 1;
  t.misses_to_stop = 3;
  return t;
}

TEST(Hybrid, StaysNormalWithTimelyHeartbeats) {
  SafetyKernel kernel;
  kernel.register_task(perception_task());
  double now = 0;
  for (int i = 0; i < 50; ++i) {
    now += 0.1;
    kernel.heartbeat("perception", now);
    EXPECT_EQ(kernel.tick(now), SystemState::kNormal);
  }
  EXPECT_EQ(kernel.missed_deadlines("perception"), 0u);
}

TEST(Hybrid, DegradesOnMissedDeadline) {
  SafetyKernel kernel;
  kernel.register_task(perception_task());
  bool degraded_cb = false;
  kernel.on_degraded([&] { degraded_cb = true; });
  kernel.heartbeat("perception", 0.1);
  EXPECT_EQ(kernel.tick(0.3), SystemState::kDegraded);  // >0.15 gap
  EXPECT_TRUE(degraded_cb);
}

TEST(Hybrid, SafeStopLatchesAfterRepeatedMisses) {
  SafetyKernel kernel;
  kernel.register_task(perception_task());
  bool stopped = false;
  kernel.on_safe_stop([&] { stopped = true; });
  kernel.heartbeat("perception", 0.1);
  double now = 0.3;
  SystemState s = SystemState::kNormal;
  for (int i = 0; i < 5; ++i) {
    s = kernel.tick(now);
    now += 0.2;
  }
  EXPECT_EQ(s, SystemState::kSafeStop);
  EXPECT_TRUE(stopped);
  // latched: even a resumed heartbeat cannot clear SafeStop
  kernel.heartbeat("perception", now);
  kernel.try_recover(now);
  EXPECT_EQ(kernel.tick(now), SystemState::kSafeStop);
}

TEST(Hybrid, RecoversFromDegraded) {
  SafetyKernel kernel;
  kernel.register_task(perception_task());
  kernel.heartbeat("perception", 0.1);
  EXPECT_EQ(kernel.tick(0.3), SystemState::kDegraded);
  // heartbeats resume within deadline
  kernel.heartbeat("perception", 0.35);
  kernel.heartbeat("perception", 0.45);
  kernel.try_recover(0.5);
  EXPECT_EQ(kernel.tick(0.5), SystemState::kNormal);
}

TEST(Hybrid, MultipleTasksWorstCaseGoverns) {
  SafetyKernel kernel;
  kernel.register_task(perception_task());
  PayloadTask planner = perception_task();
  planner.name = "planner";
  kernel.register_task(planner);
  double now = 0.1;
  kernel.heartbeat("perception", now);
  kernel.heartbeat("planner", now);
  // only the planner stalls
  for (int i = 0; i < 5; ++i) {
    now += 0.1;
    kernel.heartbeat("perception", now);
    kernel.tick(now);
  }
  EXPECT_GT(kernel.missed_deadlines("planner"), 0u);
  EXPECT_EQ(kernel.missed_deadlines("perception"), 0u);
  EXPECT_NE(kernel.state(), SystemState::kNormal);
}

TEST(Hybrid, ValidationErrors) {
  SafetyKernel kernel;
  PayloadTask bad = perception_task();
  bad.deadline_s = 0.01;  // < period
  EXPECT_THROW(kernel.register_task(bad), Error);
  kernel.register_task(perception_task());
  EXPECT_THROW(kernel.register_task(perception_task()), Error);
  EXPECT_THROW(kernel.heartbeat("ghost", 0.0), NotFound);
  EXPECT_THROW((void)kernel.missed_deadlines("ghost"), NotFound);
}

// ---------------------------------------------------------------------------
// Weight scrubber
// ---------------------------------------------------------------------------

/// Flip one mantissa bit of weights[tensor][elem] on the n-th parametric
/// node — a surgical, known-location SEU for localization tests.
void flip_at(Graph& g, std::size_t nth_parametric, std::size_t tensor, std::size_t elem) {
  std::size_t seen = 0;
  for (NodeId id : g.topo_order()) {
    Node& n = g.node(id);
    if (n.weights.empty()) continue;
    if (seen++ != nth_parametric) continue;
    float& w = n.weights.at(tensor).at(static_cast<std::int64_t>(elem));
    auto u = std::bit_cast<std::uint32_t>(w);
    w = std::bit_cast<float>(u ^ (1u << 22));
    return;
  }
  FAIL() << "graph has no parametric node " << nth_parametric;
}

TEST(WeightScrubber, CleanGraphScansWithoutHits) {
  Deployment d = deploy_micro();
  WeightScrubber scrub(d.graph, {2});
  EXPECT_EQ(scrub.entries(), digest_weights(d.graph).size());
  for (std::size_t i = 0; i < 3 * scrub.ticks_per_sweep(); ++i) {
    EXPECT_TRUE(scrub.tick().empty());
  }
  EXPECT_EQ(scrub.hits(), 0u);
  EXPECT_GE(scrub.tensors_scanned(), scrub.entries());
}

TEST(WeightScrubber, SweepBoundIsCeilOfEntriesOverBudget) {
  Deployment d = deploy_micro();
  const std::size_t entries = digest_weights(d.graph).size();
  WeightScrubber one(d.graph, {1});
  EXPECT_EQ(one.ticks_per_sweep(), entries);
  WeightScrubber big(d.graph, {entries + 5});
  EXPECT_EQ(big.ticks_per_sweep(), 1u);
  WeightScrubber two(d.graph, {2});
  EXPECT_EQ(two.ticks_per_sweep(), (entries + 1) / 2);
}

TEST(WeightScrubber, LocalizesBitFlipWithinOneSweep) {
  Deployment d = deploy_micro();
  WeightScrubber scrub(d.graph, {2});
  flip_at(d.graph, 1, 0, 3);

  std::vector<WeightScrubber::Hit> hits;
  for (std::size_t i = 0; i < scrub.ticks_per_sweep(); ++i) {
    auto h = scrub.tick();
    hits.insert(hits.end(), h.begin(), h.end());
  }
  ASSERT_EQ(hits.size(), 1u);  // localized to exactly one (node, tensor)
  EXPECT_EQ(hits[0].tensor, 0u);
  EXPECT_NE(hits[0].expected, hits[0].actual);
  EXPECT_FALSE(hits[0].node_name.empty());
  // the hit names the node we corrupted
  std::size_t seen = 0;
  for (NodeId id : d.graph.topo_order()) {
    const Node& n = d.graph.node(id);
    if (n.weights.empty()) continue;
    if (seen++ == 1) {
      EXPECT_EQ(hits[0].node, id);
    }
  }
}

TEST(WeightScrubber, RebaselineTrustsCurrentBits) {
  Deployment d = deploy_micro();
  WeightScrubber scrub(d.graph, {64});
  flip_at(d.graph, 0, 0, 0);
  EXPECT_FALSE(scrub.full_scan().empty());
  scrub.rebaseline();  // e.g. an intentional in-place update
  EXPECT_TRUE(scrub.full_scan().empty());
}

TEST(WeightScrubber, FullScanFindsEveryCorruptTensor) {
  Deployment d = deploy_micro();
  WeightScrubber scrub(d.graph, {1});
  flip_at(d.graph, 0, 0, 1);
  flip_at(d.graph, 2, 0, 0);
  EXPECT_EQ(scrub.full_scan().size(), 2u);
}

// ---------------------------------------------------------------------------
// Model store: install / repair / restore / OTA push / rollback
// ---------------------------------------------------------------------------

Tensor probe_input(std::uint64_t seed = 42) { return sample_input(seed); }

TEST(ModelStore, InstallAndMaterializeRoundTrip) {
  Deployment d = deploy_micro();
  ModelStore store;
  EXPECT_EQ(store.install("kws", d.graph), 1u);
  EXPECT_TRUE(store.has("kws"));
  EXPECT_EQ(store.version("kws"), 1u);
  EXPECT_FALSE(store.can_rollback("kws"));
  EXPECT_THROW((void)store.install("kws", d.graph), InvalidArgument);

  Graph fresh = store.materialize("kws");
  const Tensor in = probe_input();
  EXPECT_FLOAT_EQ(
      max_abs_diff(d.exec->run_single(in), runtime::Session(fresh).run_single(in)), 0.0f);
}

TEST(ModelStore, RepairRewritesOnlyTheHitTensors) {
  Deployment d = deploy_micro();
  ModelStore store;
  store.install("kws", d.graph);

  Graph live = store.materialize("kws");
  WeightScrubber scrub(live, {64});
  flip_at(live, 1, 0, 5);
  const auto hits = scrub.full_scan();
  ASSERT_EQ(hits.size(), 1u);

  EXPECT_EQ(store.repair("kws", live, hits), 1u);
  EXPECT_TRUE(scrub.full_scan().empty());  // repaired bits re-match golden
  const Tensor in = probe_input();
  EXPECT_FLOAT_EQ(
      max_abs_diff(d.exec->run_single(in), runtime::Session(live).run_single(in)), 0.0f);
}

TEST(ModelStore, RestoreRewritesEveryTensor) {
  Deployment d = deploy_micro();
  ModelStore store;
  store.install("kws", d.graph);

  Graph live = store.materialize("kws");
  flip_at(live, 0, 0, 0);
  flip_at(live, 1, 0, 1);
  flip_at(live, 2, 0, 2);
  EXPECT_EQ(store.restore("kws", live), digest_weights(d.graph).size());
  WeightScrubber scrub(live, {64});
  EXPECT_TRUE(scrub.full_scan().empty());
}

TEST(ModelStore, PushCommitsVerifiedUpdate) {
  Deployment d = deploy_micro();
  ModelStore store;
  store.install("kws", d.graph);

  Graph v2 = d.graph.clone();
  for (NodeId id : v2.topo_order()) {
    Node& n = v2.node(id);
    if (!n.weights.empty()) {
      for (float& w : n.weights[0].data()) w *= 1.01f;
    }
  }
  v2.touch();
  const auto report = store.push("kws", make_ota_package(v2));
  EXPECT_EQ(report.outcome, OtaOutcome::kCommitted);
  EXPECT_EQ(report.from_version, 1u);
  EXPECT_EQ(report.to_version, 2u);
  EXPECT_EQ(store.version("kws"), 2u);
  EXPECT_TRUE(store.can_rollback("kws"));

  const Tensor in = probe_input();
  EXPECT_FLOAT_EQ(
      max_abs_diff(runtime::Session(v2).run_single(in),
                   runtime::Session(store.materialize("kws")).run_single(in)),
      0.0f);
}

TEST(ModelStore, PushRejectsCorruptedPayload) {
  Deployment d = deploy_micro();
  ModelStore store;
  store.install("kws", d.graph);

  OtaPackage update = make_ota_package(d.graph);
  update.package.at(update.package.size() / 2) ^= 0x08;  // one flipped bit in transit
  const auto report = store.push("kws", update);
  EXPECT_EQ(report.outcome, OtaOutcome::kRejected);
  EXPECT_NE(report.detail.find("staging failed"), std::string::npos);
  EXPECT_EQ(store.version("kws"), 1u);  // old version still serving
  EXPECT_FALSE(store.can_rollback("kws"));
}

TEST(ModelStore, PushRejectsCanaryDivergence) {
  // The package itself is intact, but the publisher-declared outputs don't
  // match what the model produces — a wrong-weights / wrong-toolchain push.
  Deployment d = deploy_micro();
  ModelStore store;
  store.install("kws", d.graph);

  OtaPackage update = make_ota_package(d.graph);
  for (float& v : update.canary_output) v += 0.5f;
  const auto report = store.push("kws", update);
  EXPECT_EQ(report.outcome, OtaOutcome::kRejected);
  EXPECT_NE(report.detail.find("canary"), std::string::npos);
  EXPECT_EQ(store.version("kws"), 1u);
}

TEST(ModelStore, RollbackRestoresPreviousVersion) {
  Deployment d = deploy_micro();
  ModelStore store;
  store.install("kws", d.graph);

  Graph v2 = d.graph.clone();
  for (NodeId id : v2.topo_order()) {
    Node& n = v2.node(id);
    if (!n.weights.empty()) {
      for (float& w : n.weights[0].data()) w *= 0.9f;
    }
  }
  v2.touch();
  ASSERT_EQ(store.push("kws", make_ota_package(v2)).outcome, OtaOutcome::kCommitted);

  const auto rb = store.rollback("kws");
  EXPECT_EQ(rb.outcome, OtaOutcome::kRolledBack);
  EXPECT_EQ(rb.from_version, 2u);
  EXPECT_EQ(rb.to_version, 1u);
  EXPECT_EQ(store.version("kws"), 1u);
  EXPECT_FALSE(store.can_rollback("kws"));  // retention is one level deep

  const Tensor in = probe_input();
  EXPECT_FLOAT_EQ(
      max_abs_diff(d.exec->run_single(in),
                   runtime::Session(store.materialize("kws")).run_single(in)),
      0.0f);

  const auto again = store.rollback("kws");
  EXPECT_EQ(again.outcome, OtaOutcome::kRejected);
  EXPECT_EQ(ota_outcome_name(OtaOutcome::kCommitted), "committed");
  EXPECT_EQ(ota_outcome_name(OtaOutcome::kRejected), "rejected");
  EXPECT_EQ(ota_outcome_name(OtaOutcome::kRolledBack), "rolled-back");
}

TEST(ModelStore, UnknownNameThrows) {
  ModelStore store;
  EXPECT_FALSE(store.has("ghost"));
  EXPECT_THROW((void)store.current("ghost"), NotFound);
  EXPECT_THROW((void)store.materialize("ghost"), NotFound);
  EXPECT_THROW((void)store.rollback("ghost"), NotFound);
}

// ---------------------------------------------------------------------------
// Fault injector: int8 / bias awareness + determinism (satellite b)
// ---------------------------------------------------------------------------

std::vector<Tensor> snapshot_all_weights(const Graph& g) {
  std::vector<Tensor> out;
  for (NodeId id : g.topo_order()) {
    for (const Tensor& w : g.node(id).weights) out.push_back(w);
  }
  return out;
}

TEST(FaultInjector, SameSeedSameFlipsIncludingBias) {
  Deployment a = deploy_micro();
  Deployment b = deploy_micro();
  Rng ra(321), rb(321);
  FaultInjector(ra).flip_weight_bits(a.graph, 24, /*include_bias=*/true);
  FaultInjector(rb).flip_weight_bits(b.graph, 24, /*include_bias=*/true);
  const auto wa = snapshot_all_weights(a.graph);
  const auto wb = snapshot_all_weights(b.graph);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t l = 0; l < wa.size(); ++l) {
    EXPECT_TRUE(std::equal(wa[l].data().begin(), wa[l].data().end(), wb[l].data().begin()))
        << "tensor " << l << " diverged under the same seed";
  }
}

TEST(FaultInjector, BiasTensorsFaultedWhenRequested) {
  // With enough flips and include_bias, at least one bias tensor
  // (weights[1]) must change; without the flag, none may.
  const auto bias_changed = [](bool include_bias) {
    Deployment d = deploy_micro();
    const auto before = snapshot_all_weights(d.graph);
    Rng rng(17);
    FaultInjector(rng).flip_weight_bits(d.graph, 64, include_bias);
    const auto after = snapshot_all_weights(d.graph);
    bool changed = false;
    std::size_t l = 0;
    for (NodeId id : d.graph.topo_order()) {
      const Node& n = d.graph.node(id);
      for (std::size_t t = 0; t < n.weights.size(); ++t, ++l) {
        if (t >= 1 && !std::equal(before[l].data().begin(), before[l].data().end(),
                                  after[l].data().begin())) {
          changed = true;
        }
      }
    }
    return changed;
  };
  EXPECT_TRUE(bias_changed(true));
  EXPECT_FALSE(bias_changed(false));
}

TEST(FaultInjector, Int8FlipsStayOnTheQuantizedGrid) {
  // On an int8-tagged node the flip must act on the quantized code: the
  // changed kernel value is still an exact multiple of its channel scale.
  // One flip per fresh graph — a second flip in the same channel would see
  // a scale already moved by the first.
  std::size_t changed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Deployment d = deploy_micro();
    for (NodeId id : d.graph.topo_order()) {
      Node& n = d.graph.node(id);
      if (!n.weights.empty()) n.weight_dtype = DType::kINT8;
    }
    const auto before = snapshot_all_weights(d.graph);
    Rng rng(seed);
    FaultInjector(rng).flip_weight_bits(d.graph, 1);

    std::size_t l = 0;
    for (NodeId id : d.graph.topo_order()) {
      const Node& n = d.graph.node(id);
      for (std::size_t t = 0; t < n.weights.size(); ++t, ++l) {
        const Tensor& old = before[l];
        const Tensor& now = n.weights[t];
        for (std::int64_t i = 0; i < now.numel(); ++i) {
          if (old.at(i) == now.at(i)) continue;
          ++changed;
          // recover this element's channel scale from the pre-flip tensor
          const auto oc = old.shape().dim(0);
          const auto per = old.numel() / oc;
          const auto chan = i / per;
          double amax = 0;
          for (std::int64_t j = chan * per; j < (chan + 1) * per; ++j) {
            amax = std::max(amax, std::abs(static_cast<double>(old.at(j))));
          }
          const double ws = amax > 0 ? amax / 127.0 : 1.0;
          const double code = static_cast<double>(now.at(i)) / ws;
          EXPECT_NEAR(code, std::round(code), 1e-3) << "off-grid int8 flip";
          EXPECT_LE(std::abs(code), 255.0);
        }
      }
    }
  }
  EXPECT_GT(changed, 0u);
}

TEST(FaultInjector, Int8FlipOnAWidenedChannelUsesTheExecutorScale) {
  // Int8Executor.BiasBeyondInt32WidensTheWeightScale's conv (weight 1e-9,
  // bias 1.0, act_scales 0.01): its bias needs the wider weight scale
  // 1 / (0.01 · (2^31 − 1 − 127·128 − 1)), at which the weight's code is 0.
  // The flip acts on that code, as the integer engine stores it, so the
  // faulted weight is one set bit on the widened grid.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 2, 2});
  AttrMap a;
  a.set_int("out_channels", 1);
  a.set_int("kernel", 1);
  a.set_int("stride", 1);
  a.set_int("pad", 0);
  a.set_int("groups", 1);
  a.set_int("bias", 1);
  const NodeId c = g.add(OpKind::kConv2d, "conv", {in}, a);
  g.node(c).weights = {Tensor(Shape{1, 1, 1, 1}, {1e-9f}), Tensor(Shape{1}, {1.0f})};
  g.node(c).weight_dtype = DType::kINT8;
  g.node(in).attrs.set_float("act_scale", 0.01);
  g.node(c).attrs.set_float("act_scale", 0.01);

  Rng rng(5);
  (void)FaultInjector(rng).flip_weight_bits(g, 1);
  const double widened = 1.0 / (0.01 * (2147483647.0 - 127.0 * 128.0 - 1.0));
  const double code = static_cast<double>(g.node(c).weights[0].at(0)) / widened;
  EXPECT_NEAR(code, std::nearbyint(code), 1e-3) << "off the executor's grid";
  const auto bits = static_cast<std::uint8_t>(static_cast<std::int8_t>(std::nearbyint(code)));
  EXPECT_EQ(std::popcount(bits), 1) << "code " << code << " is not one flipped bit of 0";
}

/// micro_cnn with BatchNorm folded and activations calibrated: a graph both
/// dtypes run.
Graph calibrated_micro_cnn() {
  Graph g = zoo::micro_cnn("faulted", 1, 3, 16, 5);
  Rng rng(61);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass().run(g);
  std::vector<Tensor> samples;
  Rng data_rng(62);
  for (int i = 0; i < 4; ++i) {
    samples.emplace_back(Shape{1, 3, 16, 16}, data_rng.normal_vector(768));
  }
  opt::calibrate_activations(g, samples);
  return g;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()) == 0;
}

TEST(FaultInjector, SessionBuiltBeforeTheFaultServesTheFaultedModel) {
  // Every fault class touches the graph, so a session compiled before the
  // fault recompiles its plan (repacked f32 panels, requantized int8 codes)
  // and serves exactly what a session built after the fault serves.
  using Inject = void (*)(Graph&, Rng&);
  const std::pair<const char*, Inject> faults[] = {
      {"flip_weight_bits",
       [](Graph& g, Rng& r) { (void)FaultInjector(r).flip_weight_bits(g, 16); }},
      {"zero_random_channel", [](Graph& g, Rng& r) { FaultInjector(r).zero_random_channel(g); }},
      {"scale_random_layer",
       [](Graph& g, Rng& r) { FaultInjector(r).scale_random_layer(g, 3.0f); }},
  };
  Rng data_rng(63);
  const Tensor x(Shape{1, 3, 16, 16}, data_rng.normal_vector(768));
  for (const bool int8 : {false, true}) {
    for (const auto level : {util::SimdLevel::kPortable, util::SimdLevel::kAuto}) {
      for (const auto& [name, inject] : faults) {
        const std::string what = std::string(name) + (int8 ? " int8" : " f32") + " at " +
                                 std::string(util::simd_level_name(level));
        Graph g = calibrated_micro_cnn();
        runtime::RunOptions o;
        o.exec.simd = level;
        const auto open = [&] {
          return int8 ? runtime::make_quantized_session(g, o) : runtime::make_session(g, o);
        };
        const auto live = open();
        const Tensor clean = live->run_single(x);
        Rng rng(64);
        inject(g, rng);
        const Tensor fresh = open()->run_single(x);
        EXPECT_FALSE(same_bits(fresh, clean)) << what << ": the fault changes no output bit";
        EXPECT_TRUE(same_bits(live->run_single(x), fresh)) << what << ": served the stale plan";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Robustness service: obs export + golden replacement (satellite c)
// ---------------------------------------------------------------------------

TEST(Robustness, MetricsMirrorChecksFaultsAndDivergence) {
  Deployment d = deploy_micro();
  obs::MetricsRegistry metrics;
  RobustnessService::Config cfg;
  cfg.check_period = 1;
  cfg.tolerance = 1e-5;
  cfg.metrics = &metrics;
  RobustnessService service(d.graph, cfg);

  const Tensor in = sample_input(0);
  const Tensor good = d.exec->run_single(in);
  Tensor bad = good;
  bad.at(0) += 1.0f;
  service.submit(in, good);
  service.submit(in, bad);
  service.submit(in, good);

  ASSERT_TRUE(metrics.has_counter("vedliot.safety.checks"));
  ASSERT_TRUE(metrics.has_counter("vedliot.safety.faults"));
  ASSERT_TRUE(metrics.has_gauge("vedliot.safety.last_divergence"));
  EXPECT_EQ(metrics.counters().at("vedliot.safety.checks").value(), service.checks_run());
  EXPECT_EQ(metrics.counters().at("vedliot.safety.faults").value(),
            service.faults_detected());
  EXPECT_EQ(service.checks_run(), 3u);
  EXPECT_EQ(service.faults_detected(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauges().at("vedliot.safety.last_divergence").value(),
                   service.last_divergence());
}

TEST(Robustness, ReplaceGoldenRedefinesCorrectness) {
  Deployment d = deploy_micro();
  RobustnessService service(d.graph, {1, 1e-5});

  Graph v2 = d.graph.clone();
  for (NodeId id : v2.topo_order()) {
    Node& n = v2.node(id);
    if (!n.weights.empty()) {
      for (float& w : n.weights[0].data()) w *= 1.05f;
    }
  }
  v2.touch();
  const Tensor in = sample_input(3);
  const Tensor v2_out = runtime::Session(v2).run_single(in);

  EXPECT_EQ(service.submit(in, v2_out), CheckResult::kCheckedFaulty);
  service.replace_golden(v2);  // OTA moved the deployment to v2
  EXPECT_EQ(service.submit(in, v2_out), CheckResult::kCheckedOk);
  EXPECT_EQ(service.submissions(), 2u);  // counters keep running
}

}  // namespace
}  // namespace vedliot::safety
