// Tests for the end-to-end VEDLIoT design flow (Fig. 1 as one API).

#include <gtest/gtest.h>

#include "core/designflow.hpp"
#include "graph/zoo.hpp"
#include "util/rng.hpp"

namespace vedliot::core {
namespace {

DesignSpec mirror_spec() {
  DesignSpec spec;
  spec.application = "smart-mirror-gesture";
  spec.latency_budget_s = 0.05;
  spec.power_budget_w = 15.0;
  spec.rate_hz = 15.0;
  spec.platform = "uRECS";
  return spec;
}

TEST(DesignFlow, GestureNetDeploysOnUrecs) {
  Graph g = zoo::gesture_net();
  const auto report = run_design_flow(g, mirror_spec());
  EXPECT_FALSE(report.selected_device.empty());
  EXPECT_FALSE(report.selected_module.empty());
  EXPECT_LE(report.estimate.latency_s, 0.05);
  EXPECT_LE(report.duty_cycled_power_w, 15.0);
  EXPECT_FALSE(report.candidates.empty());
}

TEST(DesignFlow, PicksLowestEnergyFeasibleCandidate) {
  Graph g = zoo::gesture_net();
  const auto report = run_design_flow(g, mirror_spec());
  double best = 1e18;
  std::string best_device;
  for (const auto& c : report.candidates) {
    if (c.feasible && c.energy_per_inference_j < best) {
      best = c.energy_per_inference_j;
      best_device = c.device;
    }
  }
  EXPECT_EQ(report.selected_device, best_device);
}

TEST(DesignFlow, OptimizationPassesRunOnMaterializedModel) {
  Graph g = zoo::gesture_net();
  Rng rng(5);
  g.materialize_weights(rng);
  DesignSpec spec = mirror_spec();
  const auto report = run_design_flow(g, spec);
  // fuse-bn + fuse-act + quantize
  EXPECT_EQ(report.optimization_log.size(), 3u);
  EXPECT_EQ(report.optimization_log[2].pass_name, "quantize-weights");
}

TEST(DesignFlow, AnalyticModelSkipsQuantizePass) {
  Graph g = zoo::gesture_net();  // no weights
  const auto report = run_design_flow(g, mirror_spec());
  EXPECT_EQ(report.optimization_log.size(), 2u);
}

TEST(DesignFlow, ImpossibleBudgetThrows) {
  Graph g = zoo::yolov4();
  DesignSpec spec = mirror_spec();
  spec.application = "impossible";
  spec.latency_budget_s = 0.001;  // 1 ms YoloV4 on a 15 W node: no
  EXPECT_THROW((void)run_design_flow(g, spec), DesignFlowError);
}

TEST(DesignFlow, RejectionReasonsRecorded) {
  Graph g = zoo::pedestrian_net();
  DesignSpec spec = mirror_spec();
  spec.latency_budget_s = 0.004;
  spec.application = "paeb";
  try {
    const auto report = run_design_flow(g, spec);
    // if it succeeded, slower candidates must carry rejection reasons
    bool any_rejected = false;
    for (const auto& c : report.candidates) {
      if (!c.feasible) {
        any_rejected = true;
        EXPECT_FALSE(c.rejection.empty());
      }
    }
    EXPECT_TRUE(any_rejected);
  } catch (const DesignFlowError&) {
    // also acceptable on this tight budget
  }
}

TEST(DesignFlow, BiggerPlatformAdmitsBiggerModels) {
  Graph g = zoo::resnet50();
  DesignSpec spec;
  spec.application = "cloud-offload";
  spec.latency_budget_s = 0.05;
  spec.power_budget_w = 300.0;
  spec.rate_hz = 10.0;
  spec.platform = "t.RECS";
  const auto report = run_design_flow(g, spec);
  EXPECT_LE(report.estimate.latency_s, 0.05);
}

TEST(DesignFlow, UnknownPlatformThrows) {
  Graph g = zoo::gesture_net();
  DesignSpec spec = mirror_spec();
  spec.platform = "z.RECS";
  EXPECT_THROW((void)run_design_flow(g, spec), DesignFlowError);
}

TEST(DesignFlow, SecurityAndSafetyFlagsPropagate) {
  Graph g = zoo::pedestrian_net();
  DesignSpec spec = mirror_spec();
  spec.application = "paeb";
  spec.latency_budget_s = 0.1;
  spec.require_attestation = true;
  spec.enable_robustness_monitor = true;
  const auto report = run_design_flow(g, spec);
  EXPECT_TRUE(report.attestation_configured);
  EXPECT_TRUE(report.robustness_monitor_configured);
}

TEST(DesignFlow, MarkdownReportComplete) {
  Graph g = zoo::gesture_net();
  const auto report = run_design_flow(g, mirror_spec());
  const std::string md = report.to_markdown();
  EXPECT_NE(md.find("design-flow report"), std::string::npos);
  EXPECT_NE(md.find(report.selected_module), std::string::npos);
  EXPECT_NE(md.find("Candidate accelerators"), std::string::npos);
  EXPECT_NE(md.find("Optimization passes"), std::string::npos);
}

}  // namespace
}  // namespace vedliot::core
// appended: hardware-aware autotuning
#include "core/autotune.hpp"

namespace vedliot::core {
namespace {

std::vector<Tensor> tune_probes(const Shape& shape, int n, std::uint64_t seed) {
  std::vector<Tensor> out;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    out.emplace_back(shape, rng.normal_vector(static_cast<std::size_t>(shape.numel())));
  }
  return out;
}

Graph tuned_model(std::uint64_t seed = 17) {
  Graph g = zoo::micro_cnn("edge", 1, 1, 16, 4);
  Rng rng(seed);
  g.materialize_weights(rng);
  return g;
}

TEST(Autotune, EvaluatesFullGridOnVersatileDevice) {
  Graph g = tuned_model();
  const auto& dev = hw::find_device("XavierNX");  // fp32+fp16+int8
  TuneBudget budget;
  budget.latency_s = 1.0;
  budget.max_output_rmse = 1.0;
  const auto r = autotune(g, dev, budget, tune_probes(Shape{1, 1, 16, 16}, 4, 3));
  EXPECT_EQ(r.points.size(), 9u);  // 3 dtypes x 3 prune levels
  EXPECT_TRUE(r.feasible);
}

TEST(Autotune, PrefersLowPrecisionWhenQualityAllows) {
  Graph g = tuned_model();
  const auto& dev = hw::find_device("XavierNX");
  TuneBudget budget;
  budget.latency_s = 1.0;
  budget.max_output_rmse = 0.2;  // generous
  const auto r = autotune(g, dev, budget, tune_probes(Shape{1, 1, 16, 16}, 4, 3));
  ASSERT_TRUE(r.feasible);
  // INT8 variants dominate on energy when allowed.
  EXPECT_EQ(r.best.option.dtype, DType::kINT8);
}

TEST(Autotune, QualityFloorExcludesAggressiveOptions) {
  Graph g = tuned_model();
  const auto& dev = hw::find_device("XavierNX");
  TuneBudget strict;
  strict.latency_s = 1.0;
  strict.max_output_rmse = 1e-9;  // only bit-exact survives
  const auto r = autotune(g, dev, strict, tune_probes(Shape{1, 1, 16, 16}, 2, 3));
  if (r.feasible) {
    EXPECT_EQ(r.best.option.dtype, DType::kFP32);
    EXPECT_DOUBLE_EQ(r.best.option.channel_prune, 0.0);
  }
  // aggressive options must be flagged as quality violations
  bool saw_violation = false;
  for (const auto& p : r.points) {
    if (p.option.dtype == DType::kINT8 && !p.meets_quality) saw_violation = true;
  }
  EXPECT_TRUE(saw_violation);
}

TEST(Autotune, PruningReducesEstimatedLatency) {
  Graph g = tuned_model();
  const auto& dev = hw::find_device("XavierNX");
  TuneBudget budget;
  budget.latency_s = 1.0;
  budget.max_output_rmse = 10.0;
  const auto r = autotune(g, dev, budget, tune_probes(Shape{1, 1, 16, 16}, 2, 3));
  double lat_dense = 0, lat_pruned = 0;
  for (const auto& p : r.points) {
    if (p.option.dtype != DType::kINT8) continue;
    if (p.option.channel_prune == 0.0) lat_dense = p.latency_s;
    if (p.option.channel_prune == 0.5) lat_pruned = p.latency_s;
  }
  EXPECT_GT(lat_dense, 0.0);
  EXPECT_LT(lat_pruned, lat_dense);
}

TEST(Autotune, Validation) {
  Graph analytic = zoo::micro_cnn("a", 1, 1, 16, 4);  // no weights
  const auto& dev = hw::find_device("XavierNX");
  EXPECT_THROW((void)autotune(analytic, dev, {}, tune_probes(Shape{1, 1, 16, 16}, 1, 1)), Error);
  Graph g = tuned_model();
  EXPECT_THROW((void)autotune(g, dev, {}, {}), Error);
}

}  // namespace
}  // namespace vedliot::core
