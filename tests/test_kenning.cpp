// Tests for the Kenning-analogue: metrics (confusion matrix, detection
// PR/AP) and the deployment flow (wrapper, optimizers, runtime targets).

#include <gtest/gtest.h>

#include <memory>

#include "graph/zoo.hpp"
#include "hw/device.hpp"
#include "kenning/flow.hpp"
#include "kenning/metrics.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace vedliot::kenning {
namespace {

TEST(ConfusionMatrix, AccuracyAndCells) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(1, 1);
  cm.add(1, 2);  // mistake
  cm.add(2, 2);
  EXPECT_EQ(cm.total(), 5u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 4.0 / 5.0);
  EXPECT_EQ(cm.count(1, 2), 1u);
  EXPECT_EQ(cm.count(2, 1), 0u);
}

TEST(ConfusionMatrix, PrecisionRecallF1) {
  ConfusionMatrix cm(2);
  // class 1: tp=3, fp=1 (truth 0 predicted 1), fn=2 (truth 1 predicted 0)
  for (int i = 0; i < 3; ++i) cm.add(1, 1);
  cm.add(0, 1);
  cm.add(1, 0);
  cm.add(1, 0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 3.0 / 5.0);
  const double p = 0.75, r = 0.6;
  EXPECT_NEAR(cm.f1(1), 2 * p * r / (p + r), 1e-12);
}

TEST(ConfusionMatrix, EmptyClassesGiveZeroNotNan) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(2), 0.0);
}

TEST(ConfusionMatrix, Validation) {
  EXPECT_THROW(ConfusionMatrix(1), Error);
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), Error);
}

TEST(Iou, KnownOverlaps) {
  const Box a{0, 0, 10, 10};
  EXPECT_DOUBLE_EQ(iou(a, a), 1.0);
  EXPECT_DOUBLE_EQ(iou(a, Box{10, 10, 5, 5}), 0.0);  // touching corners
  // half overlap: inter=50, union=150
  EXPECT_NEAR(iou(a, Box{5, 0, 10, 10}), 50.0 / 150.0, 1e-12);
}

TEST(DetectionEval, PerfectDetector) {
  std::vector<GroundTruth> gt{{{0, 0, 10, 10}, 0}, {{20, 20, 10, 10}, 0}};
  std::vector<Detection> det{{{0, 0, 10, 10}, 0.9, 0}, {{20, 20, 10, 10}, 0.8, 0}};
  const auto eval = evaluate_detections(det, gt);
  EXPECT_EQ(eval.true_positives, 2u);
  EXPECT_EQ(eval.false_positives, 0u);
  EXPECT_EQ(eval.false_negatives, 0u);
  EXPECT_NEAR(eval.average_precision, 1.0, 1e-12);
}

TEST(DetectionEval, DuplicateDetectionsCountOnceAsTp) {
  std::vector<GroundTruth> gt{{{0, 0, 10, 10}, 0}};
  std::vector<Detection> det{{{0, 0, 10, 10}, 0.9, 0}, {{1, 1, 10, 10}, 0.8, 0}};
  const auto eval = evaluate_detections(det, gt);
  EXPECT_EQ(eval.true_positives, 1u);
  EXPECT_EQ(eval.false_positives, 1u);
}

TEST(DetectionEval, ImageIdsSeparateMatches) {
  std::vector<GroundTruth> gt{{{0, 0, 10, 10}, 1}};
  std::vector<Detection> det{{{0, 0, 10, 10}, 0.9, 2}};  // right box, wrong image
  const auto eval = evaluate_detections(det, gt);
  EXPECT_EQ(eval.true_positives, 0u);
  EXPECT_EQ(eval.false_negatives, 1u);
}

TEST(DetectionEval, ApHandComputed) {
  // One GT; two detections: high-scoring FP then TP.
  std::vector<GroundTruth> gt{{{0, 0, 10, 10}, 0}};
  std::vector<Detection> det{{{50, 50, 10, 10}, 0.9, 0}, {{0, 0, 10, 10}, 0.8, 0}};
  const auto eval = evaluate_detections(det, gt);
  // point 1: p=0, r=0; point 2: p=0.5, r=1 -> AP = 0.5 * (1-0) = 0.5
  EXPECT_NEAR(eval.average_precision, 0.5, 1e-12);
  ASSERT_EQ(eval.curve.size(), 2u);
  EXPECT_DOUBLE_EQ(eval.curve[1].recall, 1.0);
}

TEST(DetectionEval, IouThresholdGates) {
  std::vector<GroundTruth> gt{{{0, 0, 10, 10}, 0}};
  std::vector<Detection> det{{{3, 3, 10, 10}, 0.9, 0}};  // iou ~ 0.33
  EXPECT_EQ(evaluate_detections(det, gt, 0.5).true_positives, 0u);
  EXPECT_EQ(evaluate_detections(det, gt, 0.3).true_positives, 1u);
}

// ---------------------------------------------------------------------------
// Flow
// ---------------------------------------------------------------------------

ModelWrapper make_wrapper(std::uint64_t seed = 3) {
  Graph g = zoo::micro_mlp("clf", 1, 8, {16}, 3);
  Rng rng(seed);
  g.materialize_weights(rng);
  return ModelWrapper("clf", std::move(g));
}

std::vector<Sample> make_dataset(const ModelWrapper& wrapper, std::size_t n) {
  // Label every sample with the model's own prediction so accuracy on the
  // unmodified model is exactly 1 (a clean baseline for optimizations).
  std::vector<Sample> out;
  Graph g = wrapper.graph().clone();
  runtime::Session exec(g);
  Rng rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    s.input = Tensor(Shape{1, 8}, rng.normal_vector(8));
    const Tensor y = exec.run_single(s.input);
    s.label = wrapper.postprocess(y);
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ModelWrapper, DefaultPostprocessIsArgmax) {
  ModelWrapper w = make_wrapper();
  Tensor t(Shape{1, 3}, {0.1f, 0.7f, 0.2f});
  EXPECT_EQ(w.postprocess(t), 1u);
}

TEST(ModelWrapper, CustomHooks) {
  ModelWrapper w = make_wrapper();
  w.set_preprocess([](const Tensor& t) {
    Tensor out = t;
    for (float& v : out.data()) v *= 2.0f;
    return out;
  });
  w.set_postprocess([](const Tensor&) { return std::size_t{2}; });
  EXPECT_EQ(w.postprocess(Tensor(Shape{1, 3})), 2u);
  EXPECT_EQ(w.preprocess(Tensor(Shape{1}, {3.0f})).at(0), 6.0f);
}

TEST(HostRuntime, MeasuresLatencyMemoryQuality) {
  ModelWrapper w = make_wrapper();
  const auto dataset = make_dataset(w, 20);
  HostRuntime rt;
  const auto report = rt.benchmark(w, dataset);
  EXPECT_EQ(report.samples, 20u);
  EXPECT_GT(report.mean_latency_ms, 0.0);
  // Bounded by the median of the same samples, not the mean: one preempted
  // sample inflates the mean past 2x p90 under a loaded test run.
  EXPECT_GT(report.median_latency_ms, 0.0);
  EXPECT_GE(report.p90_latency_ms, report.median_latency_ms);
  EXPECT_GT(report.arena_mib, 0.0);
  EXPECT_GT(report.weight_mib, 0.0);
  ASSERT_TRUE(report.quality.has_value());
  EXPECT_DOUBLE_EQ(report.quality->accuracy(), 1.0);  // self-labelled
}

TEST(SimulatedTarget, UsesPerfModelNumbers) {
  ModelWrapper w = make_wrapper();
  const auto dataset = make_dataset(w, 4);
  SimulatedTarget target(hw::find_device("MyriadX"), DType::kINT8);
  const auto report = target.benchmark(w, dataset);
  EXPECT_EQ(report.target, "MyriadX");
  EXPECT_GT(report.estimated_power_w, 0.0);
  EXPECT_GT(report.estimated_energy_mj, 0.0);
  ASSERT_TRUE(report.quality.has_value());
}

TEST(Flow, OptimizeThenDeployAcrossTargets) {
  Flow flow(make_wrapper());
  flow.optimize(std::make_unique<opt::FuseBatchNormPass>())
      .optimize(std::make_unique<opt::QuantizeWeightsPass>(DType::kINT8));
  flow.deploy_to(std::make_unique<HostRuntime>())
      .deploy_to(std::make_unique<SimulatedTarget>(hw::find_device("EdgeTPU"), DType::kINT8));
  const auto dataset = make_dataset(make_wrapper(), 12);
  const auto reports = flow.run(dataset);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(flow.pass_log().size(), 2u);
  // INT8 quantization must keep the self-labelled accuracy near-perfect
  ASSERT_TRUE(reports[0].quality.has_value());
  EXPECT_GE(reports[0].quality->accuracy(), 0.9);
}

TEST(Flow, ReportRendersMarkdown) {
  ModelWrapper w = make_wrapper();
  HostRuntime rt;
  const auto report = rt.benchmark(w, make_dataset(w, 4));
  const std::string md = report.to_markdown();
  EXPECT_NE(md.find("## Deployment report"), std::string::npos);
  EXPECT_NE(md.find("mean latency"), std::string::npos);
  EXPECT_NE(md.find("Confusion matrix"), std::string::npos);
}

TEST(Flow, EmptyDatasetStillMeasuresSimulatedTargets) {
  Flow flow(make_wrapper());
  flow.deploy_to(std::make_unique<SimulatedTarget>(hw::find_device("MyriadX"), DType::kINT8));
  const auto reports = flow.run({});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].mean_latency_ms, 0.0);
  EXPECT_FALSE(reports[0].quality.has_value());
}

}  // namespace
}  // namespace vedliot::kenning
// appended: hotspot profiling in the host-runtime report
namespace vedliot::kenning {
namespace {

TEST(HostRuntime, ReportsHotspots) {
  Graph g = zoo::micro_cnn("hot", 1, 1, 16, 4);
  Rng rng(8);
  g.materialize_weights(rng);
  ModelWrapper wrapper("hot", std::move(g));
  std::vector<Sample> dataset;
  Rng data_rng(9);
  for (int i = 0; i < 4; ++i) {
    Sample s;
    s.input = Tensor(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
    s.label = 0;
    dataset.push_back(std::move(s));
  }
  HostRuntime rt;
  const auto report = rt.benchmark(wrapper, dataset);
  ASSERT_FALSE(report.hotspots_ms.empty());
  EXPECT_EQ(report.hotspots_ms.front().first, "Conv2d");
  EXPECT_NE(report.to_markdown().find("hottest ops"), std::string::npos);
}

}  // namespace
}  // namespace vedliot::kenning
