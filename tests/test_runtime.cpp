// Tests for the reference executor (real arithmetic), its depthwise kernel
// and f32 activation formulas at kernel level, and the memory planner.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "direct_conv.hpp"
#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "opt/fusion.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/session.hpp"
#include "util/cpu.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

AttrMap conv_attrs(std::int64_t oc, std::int64_t k, std::int64_t s, std::int64_t p,
                   std::int64_t groups = 1, std::int64_t bias = 1) {
  AttrMap a;
  a.set_int("out_channels", oc);
  a.set_int("kernel", k);
  a.set_int("stride", s);
  a.set_int("pad", p);
  a.set_int("groups", groups);
  a.set_int("bias", bias);
  return a;
}

/// Build a single-op graph, set explicit weights, execute one input.
Tensor run_single_op(OpKind kind, const Shape& in_shape, AttrMap attrs,
                     std::vector<Tensor> weights, const Tensor& input) {
  Graph g("t");
  const NodeId in = g.add_input("x", in_shape);
  const NodeId op = g.add(kind, "op", {in}, std::move(attrs));
  g.node(op).weights = std::move(weights);
  runtime::Session exec(g);
  return exec.run_single(input);
}

TEST(Executor, Conv2dIdentityKernel) {
  // 1x1 conv with identity weights must copy the input.
  Tensor w(Shape{2, 2, 1, 1}, {1, 0, 0, 1});
  Tensor input(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  AttrMap a = conv_attrs(2, 1, 1, 0, 1, 0);
  const Tensor out = run_single_op(OpKind::kConv2d, input.shape(), a, {w}, input);
  EXPECT_FLOAT_EQ(max_abs_diff(out, input), 0.0f);
}

TEST(Executor, Conv2dHandComputed) {
  // 3x3 all-ones kernel, single channel, padding 1: each output = sum of the
  // 3x3 neighbourhood.
  Tensor w(Shape{1, 1, 3, 3});
  w.fill(1.0f);
  Tensor input(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  AttrMap a = conv_attrs(1, 3, 1, 1, 1, 0);
  const Tensor out = run_single_op(OpKind::kConv2d, input.shape(), a, {w}, input);
  // center output: sum of all = 45; corner (0,0): 1+2+4+5 = 12
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 45.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 12.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 2, 2), 5.0f + 6.0f + 8.0f + 9.0f);
}

TEST(Executor, Conv2dBiasApplied) {
  Tensor w(Shape{1, 1, 1, 1}, {2.0f});
  Tensor b(Shape{1}, {10.0f});
  Tensor input(Shape{1, 1, 1, 1}, {3.0f});
  const Tensor out =
      run_single_op(OpKind::kConv2d, input.shape(), conv_attrs(1, 1, 1, 0), {w, b}, input);
  EXPECT_FLOAT_EQ(out.at(0), 16.0f);
}

TEST(Executor, Conv2dStrideSkips) {
  Tensor w(Shape{1, 1, 1, 1}, {1.0f});
  Tensor input(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) input.at(static_cast<std::size_t>(i)) = static_cast<float>(i);
  const Tensor out =
      run_single_op(OpKind::kConv2d, input.shape(), conv_attrs(1, 1, 2, 0, 1, 0), {w}, input);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), 8.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 1), 10.0f);
}

TEST(Executor, DepthwiseConvIndependentChannels) {
  // groups == channels: each channel filtered independently.
  Tensor w(Shape{2, 1, 1, 1}, {2.0f, 3.0f});
  Tensor input(Shape{1, 2, 1, 1}, {10.0f, 10.0f});
  const Tensor out =
      run_single_op(OpKind::kConv2d, input.shape(), conv_attrs(2, 1, 1, 0, 2, 0), {w}, input);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 20.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 30.0f);
}

TEST(Executor, DenseMatVec) {
  Tensor w(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{2}, {0.5f, -0.5f});
  Tensor input(Shape{1, 3}, {1, 1, 1});
  AttrMap a;
  a.set_int("units", 2);
  a.set_int("bias", 1);
  const Tensor out = run_single_op(OpKind::kDense, input.shape(), a, {w, b}, input);
  EXPECT_FLOAT_EQ(out.at(0), 6.5f);
  EXPECT_FLOAT_EQ(out.at(1), 14.5f);
}

TEST(Executor, BatchNormFoldedFormula) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 1, 2});
  AttrMap bn;
  bn.set_float("epsilon", 0.0);
  const NodeId b = g.add(OpKind::kBatchNorm, "bn", {in}, bn);
  g.node(b).weights = {Tensor(Shape{1}, {2.0f}),   // gamma
                       Tensor(Shape{1}, {1.0f}),   // beta
                       Tensor(Shape{1}, {3.0f}),   // mean
                       Tensor(Shape{1}, {4.0f})};  // var
  runtime::Session exec(g);
  Tensor input(Shape{1, 1, 1, 2}, {3.0f, 5.0f});
  const Tensor out = exec.run_single(input);
  // (x - 3)/2 * 2 + 1
  EXPECT_FLOAT_EQ(out.at(0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1), 3.0f);
}

struct ActCase {
  OpKind kind;
  float in;
  float expected;
};

class ActivationSweep : public ::testing::TestWithParam<ActCase> {};

TEST_P(ActivationSweep, PointwiseValue) {
  const auto& p = GetParam();
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1});
  AttrMap attrs;
  if (p.kind == OpKind::kLeakyRelu) attrs.set_float("alpha", 0.1);
  g.add(p.kind, "act", {in}, attrs);
  runtime::Session exec(g);
  const Tensor out = exec.run_single(Tensor(Shape{1}, {p.in}));
  EXPECT_NEAR(out.at(0), p.expected, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Values, ActivationSweep,
    ::testing::Values(ActCase{OpKind::kRelu, -1.0f, 0.0f}, ActCase{OpKind::kRelu, 2.0f, 2.0f},
                      ActCase{OpKind::kRelu6, 8.0f, 6.0f}, ActCase{OpKind::kRelu6, -1.0f, 0.0f},
                      ActCase{OpKind::kLeakyRelu, -2.0f, -0.2f},
                      ActCase{OpKind::kLeakyRelu, 3.0f, 3.0f},
                      ActCase{OpKind::kSigmoid, 0.0f, 0.5f},
                      ActCase{OpKind::kHSigmoid, 0.0f, 0.5f},
                      ActCase{OpKind::kHSigmoid, 4.0f, 1.0f},
                      ActCase{OpKind::kHSwish, 3.0f, 3.0f},
                      ActCase{OpKind::kHSwish, -3.0f, 0.0f},
                      ActCase{OpKind::kTanh, 0.0f, 0.0f},
                      ActCase{OpKind::kMish, 0.0f, 0.0f}));

TEST(Executor, MishMatchesDefinition) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1});
  g.add(OpKind::kMish, "mish", {in});
  runtime::Session exec(g);
  for (float x : {-2.0f, -0.5f, 0.7f, 2.5f}) {
    const Tensor out = exec.run_single(Tensor(Shape{1}, {x}));
    const double expected = x * std::tanh(std::log1p(std::exp(static_cast<double>(x))));
    EXPECT_NEAR(out.at(0), expected, 1e-5) << x;
  }
}

TEST(Executor, AddAndMulBroadcast) {
  Graph g("t");
  const NodeId a = g.add_input("a", Shape{1, 2, 2, 2});
  const NodeId gap = g.add(OpKind::kGlobalAvgPool, "gap", {a});
  const NodeId m = g.add(OpKind::kMul, "mul", {a, gap});
  g.add(OpKind::kAdd, "add", {m, a});
  runtime::Session exec(g);
  Tensor input(Shape{1, 2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 2});
  auto outs = exec.run({{"a", input}}).outputs;
  const Tensor& out = outs.at("add");
  // channel 0 mean 1 -> mul gives 1, add gives 2; channel 1 mean 2 -> 4+2=6
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 1, 0, 0), 6.0f);
}

TEST(Executor, MaxPoolAndAvgPool) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 2, 2});
  AttrMap p;
  p.set_int("kernel", 2);
  p.set_int("stride", 2);
  p.set_int("pad", 0);
  g.add(OpKind::kMaxPool, "max", {in}, p);
  AttrMap p2;
  p2.set_int("kernel", 2);
  p2.set_int("stride", 2);
  p2.set_int("pad", 0);
  g.add(OpKind::kAvgPool, "avg", {in}, p2);
  runtime::Session exec(g);
  Tensor input(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  auto outs = exec.run({{"x", input}}).outputs;
  EXPECT_FLOAT_EQ(outs.at("max").at(0), 4.0f);
  EXPECT_FLOAT_EQ(outs.at("avg").at(0), 2.5f);
}

TEST(Executor, AvgPoolPaddingCountsValidOnly) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 2, 2});
  AttrMap p;
  p.set_int("kernel", 3);
  p.set_int("stride", 1);
  p.set_int("pad", 1);
  g.add(OpKind::kAvgPool, "avg", {in}, p);
  runtime::Session exec(g);
  Tensor input(Shape{1, 1, 2, 2}, {4, 4, 4, 4});
  const Tensor out = exec.run_single(input);
  // all windows average only valid elements -> always 4
  for (float v : out.data()) EXPECT_FLOAT_EQ(v, 4.0f);
}

TEST(Executor, ConcatChannels) {
  Graph g("t");
  const NodeId a = g.add_input("a", Shape{1, 1, 1, 2});
  const NodeId b = g.add_input("b", Shape{1, 2, 1, 2});
  AttrMap attrs;
  attrs.set_int("axis", 1);
  g.add(OpKind::kConcat, "cat", {b, a}, attrs);
  runtime::Session exec(g);
  Tensor ta(Shape{1, 1, 1, 2}, {7, 8});
  Tensor tb(Shape{1, 2, 1, 2}, {1, 2, 3, 4});
  auto outs = exec.run({{"a", ta}, {"b", tb}}).outputs;
  const Tensor& out = outs.at("cat");
  EXPECT_EQ(out.shape().c(), 3);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 2, 0, 1), 8.0f);
}

TEST(Executor, UpsampleNearest) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 1, 2});
  AttrMap u;
  u.set_int("scale", 2);
  g.add(OpKind::kUpsample, "up", {in}, u);
  runtime::Session exec(g);
  const Tensor out = exec.run_single(Tensor(Shape{1, 1, 1, 2}, {5, 9}));
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(out.at4(0, 0, 1, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at4(0, 0, 0, 3), 9.0f);
}

TEST(Executor, SoftmaxNormalizesAndIsStable) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 3});
  g.add(OpKind::kSoftmax, "sm", {in});
  runtime::Session exec(g);
  const Tensor out = exec.run_single(Tensor(Shape{1, 3}, {1000.0f, 1001.0f, 1002.0f}));
  double sum = 0;
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(out.at(2), out.at(1));
}

TEST(Executor, MissingFeedThrows) {
  Graph g = zoo::motor_net();
  Rng rng(1);
  g.materialize_weights(rng);
  runtime::Session exec(g);
  EXPECT_THROW((void)exec.run({}), ExecError);
}

TEST(Executor, WrongFeedShapeThrows) {
  Graph g = zoo::motor_net();
  Rng rng(1);
  g.materialize_weights(rng);
  runtime::Session exec(g);
  EXPECT_THROW((void)exec.run({{"features", Tensor(Shape{1, 3})}}), ExecError);
}

TEST(Executor, FeedLanesOutsideThePlanThrow) {
  // A plan built for 3 lanes runs any 1..3 lanes, the same on every feed.
  Graph g("lanes");
  const NodeId a = g.add_input("a", Shape{3, 1, 1, 2});
  const NodeId b = g.add_input("b", Shape{3, 2, 1, 2});
  AttrMap attrs;
  attrs.set_int("axis", 1);
  g.add(OpKind::kConcat, "cat", {b, a}, attrs);
  runtime::Session exec(g);
  const auto feeds = [](const Shape& sa, const Shape& sb) {
    return std::map<std::string, Tensor>{{"a", Tensor(sa)}, {"b", Tensor(sb)}};
  };
  EXPECT_EQ(exec.run(feeds(Shape{2, 1, 1, 2}, Shape{2, 2, 1, 2})).outputs.at("cat").shape(),
            Shape({2, 3, 1, 2}));
  // Shape forbids a zero extent: a 0-lane feed is one with no leading dimension.
  EXPECT_THROW((void)exec.run(feeds(Shape{}, Shape{2, 2, 1, 2})), ExecError);
  EXPECT_THROW((void)exec.run(feeds(Shape{4, 1, 1, 2}, Shape{4, 2, 1, 2})), ExecError);
  EXPECT_THROW((void)exec.run(feeds(Shape{2, 1, 1, 2}, Shape{3, 2, 1, 2})), ExecError);
  EXPECT_THROW((void)exec.run(feeds(Shape{2, 1, 1, 3}, Shape{2, 2, 1, 2})), ExecError);
}

TEST(Executor, UnmaterializedWeightsRejected) {
  Graph g = zoo::motor_net();
  EXPECT_THROW(runtime::Session{g}, ExecError);
}

TEST(Executor, EndToEndMicroCnnDeterministic) {
  Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);
  Rng rng(7);
  g.materialize_weights(rng);
  runtime::Session exec(g);
  Rng data_rng(8);
  Tensor input(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
  const Tensor a = exec.run_single(input);
  const Tensor b = exec.run_single(input);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
  double sum = 0;
  for (float v : a.data()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-5);  // softmax output
}

TEST(Executor, ActivationIntrospection) {
  // The run observer sees every node once, in plan order (the input first),
  // each readable during its call; afterwards only the graph output is.
  Graph g = zoo::micro_mlp("m", 1, 4, {8}, 2);
  Rng rng(9);
  g.materialize_weights(rng);
  runtime::Session exec(g);
  const Tensor x(Shape{1, 4}, {1, 2, 3, 4});
  std::vector<NodeId> seen;
  Tensor fc0, out;
  const auto outs = exec.run({{"features", x}}, [&](NodeId id) {
    seen.push_back(id);
    const Tensor v = exec.value(id);
    if (g.node(id).name == "fc0") fc0 = v.clone();
    if (id == g.outputs().front()) out = v.clone();
    EXPECT_THROW((void)exec.quantized(id), ExecError);  // an f32 plan has no codes
  }).outputs;
  EXPECT_EQ(seen, g.topo_order());
  EXPECT_EQ(seen.front(), g.inputs().front());
  ASSERT_EQ(fc0.shape(), (Shape{1, 8}));
  EXPECT_FLOAT_EQ(max_abs_diff(out, outs.at("prob")), 0.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(exec.value(g.outputs().front()), out), 0.0f);
  for (NodeId id : g.topo_order()) {
    if (id != g.outputs().front()) {
      EXPECT_THROW((void)exec.value(id), ExecError);
    }
  }
}

// ---------------------------------------------------------------------------
// Memory planner
// ---------------------------------------------------------------------------

class PlannerOnZoo : public ::testing::TestWithParam<const char*> {};

TEST_P(PlannerOnZoo, ValidAndSavesMemory) {
  const std::string which = GetParam();
  Graph g = which == "resnet50" ? zoo::resnet50()
            : which == "mnv3"   ? zoo::mobilenet_v3_large()
            : which == "yolov4" ? zoo::yolov4()
                                : zoo::micro_cnn("m", 1, 3, 32, 10);
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  EXPECT_TRUE(plan_is_valid(plan));
  EXPECT_GT(plan.reuse_factor(), 2.0) << which;  // reuse must pay off
  EXPECT_EQ(plan.buffers.size(), g.size());
}

INSTANTIATE_TEST_SUITE_P(Models, PlannerOnZoo,
                         ::testing::Values("resnet50", "mnv3", "yolov4", "micro"));

TEST(Planner, ArenaAtLeastLargestTensor) {
  Graph g = zoo::mobilenet_v3_large();
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  const auto cost = graph_cost(g);
  EXPECT_GE(plan.arena_bytes, cost.peak_single_elems * 4);
}

TEST(Planner, Int8ArenaRoughlyQuarterOfFp32) {
  Graph g = zoo::micro_cnn("m", 1, 3, 32, 10);
  const auto p32 = plan_memory(g, DType::kFP32);
  const auto p8 = plan_memory(g, DType::kINT8);
  EXPECT_LT(p8.arena_bytes, p32.arena_bytes / 2);
}

TEST(Planner, AlignmentRespected) {
  Graph g = zoo::micro_mlp("m", 1, 10, {32, 16}, 4);
  const MemoryPlan plan = plan_memory(g, DType::kFP32, 128);
  for (const auto& b : plan.buffers) {
    EXPECT_EQ(b.offset % 128, 0);
    EXPECT_EQ(b.size % 128, 0);
  }
}

TEST(Planner, ResidualLifetimesDontOverlapInArena) {
  // ResNet blocks keep the shortcut alive across the body: the planner must
  // not alias those buffers. plan_is_valid covers it, but check explicitly
  // on a graph with a long-lived tensor.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 8, 8, 8});
  NodeId cur = in;
  for (int i = 0; i < 4; ++i) {
    std::string name = "r";
    name += std::to_string(i);
    cur = g.add(OpKind::kRelu, name, {cur});
  }
  g.add(OpKind::kAdd, "res", {cur, in});  // input alive until the end
  const MemoryPlan plan = plan_memory(g, DType::kFP32);
  EXPECT_TRUE(plan_is_valid(plan));
  // the input buffer must not be reused by any of the relu chain
  const auto& input_buf = plan.buffers.front();
  EXPECT_EQ(input_buf.node, in);
  EXPECT_EQ(input_buf.last_use, plan.buffers.back().first_use);
}

// ---------------------------------------------------------------------------
// Execution engine: parallel determinism, GEMM conv, activation arena
// ---------------------------------------------------------------------------

/// Bitwise tensor equality: parallel partitioning must not change a single
/// bit, so plain float == (which conflates -0.0 and 0.0) is not enough.
void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)));
}

Tensor run_with_options(const Graph& g, const Tensor& x, const runtime::RunOptions& opts) {
  auto session = runtime::make_session(g, opts);
  return session->run_single(x);
}

/// Resource knobs moved into RunOptions::exec (ExecConfig); these builders
/// keep the matrix of engine configurations below readable.
runtime::RunOptions with_threads(unsigned threads) {
  runtime::RunOptions o;
  o.exec.threads = threads;
  return o;
}

TEST(ExecutionEngine, ResNet50ParallelBitwiseIdenticalToSerial) {
  Graph g = zoo::resnet50(/*batch=*/1, /*classes=*/10, /*image=*/32);
  Rng rng(21);
  g.materialize_weights(rng);
  Rng data_rng(22);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  const Tensor serial = run_with_options(g, x, with_threads(1));
  const Tensor t2 = run_with_options(g, x, with_threads(2));
  const Tensor t4 = run_with_options(g, x, with_threads(4));
  expect_bitwise_equal(serial, t2);
  expect_bitwise_equal(serial, t4);
}

TEST(ExecutionEngine, MobileNetV3ParallelBitwiseIdenticalToSerial) {
  Graph g = zoo::mobilenet_v3_large(/*batch=*/1, /*classes=*/10, /*image=*/32);
  Rng rng(23);
  g.materialize_weights(rng);
  Rng data_rng(24);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  const Tensor serial = run_with_options(g, x, with_threads(1));
  const Tensor t4 = run_with_options(g, x, with_threads(4));
  expect_bitwise_equal(serial, t4);
}

TEST(ExecutionEngine, GemmConvMatchesDirectConv) {
  // GEMM accumulates in float along the same k-order the direct loop walks,
  // but the direct reference accumulates in double: close, not bitwise.
  Graph g = zoo::resnet50(1, 10, 32);
  Rng rng(25);
  g.materialize_weights(rng);
  Rng data_rng(26);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  const Tensor gemm = run_with_options(g, x, {});
  const Tensor direct = testutil::direct_conv_run(g, x);
  EXPECT_LT(max_abs_diff(gemm, direct), 1e-3f);
}

TEST(ExecutionEngine, ArenaHalvesResNet50ActivationFootprint) {
  Graph g = zoo::resnet50(1, 10, 64);
  Rng rng(29);
  g.materialize_weights(rng);
  Rng data_rng(30);
  Tensor x(Shape{1, 3, 64, 64}, data_rng.normal_vector(3 * 64 * 64));

  runtime::Session exec(g);
  (void)exec.run_single(x);
  const runtime::Session::ArenaStats& stats = exec.arena_stats();
  EXPECT_GT(stats.arena_bytes, 0);
  // Liveness packing must reclaim at least half of the naive sum of all
  // activation buffers on ResNet-50 (ISSUE acceptance: arena <= 50% naive).
  EXPECT_LE(stats.arena_bytes * 2, stats.naive_bytes);
}

TEST(ExecutionEngine, SessionOutputOwnsItsMemory) {
  // Outputs are cloned out of the arena: they must stay valid after the
  // session (and its slab) is gone.
  Graph g = zoo::micro_cnn("own", 1, 3, 16, 4);
  Rng rng(33);
  g.materialize_weights(rng);
  Rng data_rng(34);
  Tensor x(Shape{1, 3, 16, 16}, data_rng.normal_vector(3 * 16 * 16));

  Tensor y;
  {
    auto session = runtime::make_session(g, with_threads(2));
    y = session->run_single(x);
  }
  EXPECT_FALSE(y.is_view());
  EXPECT_EQ(y.numel(), 4);
  float sum = 0;
  for (float v : y.data()) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);  // softmax head
}

/// CRC-32 of the output of one single-thread run at dispatch \p level
/// (portable unless given). The constants were recorded once; a change in
/// any of them means the engine's f32 arithmetic changed.
void expect_pinned_f32(Graph g, const Shape& in_shape, std::uint64_t seed,
                       std::uint32_t want_crc,
                       util::SimdLevel level = util::SimdLevel::kPortable) {
  Rng rng(seed);
  g.materialize_weights(rng);
  Rng data_rng(seed + 100);
  const Tensor x(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));
  runtime::RunOptions o;
  o.exec.simd = level;
  o.exec.threads = 1;
  EXPECT_EQ(util::crc32(run_with_options(g, x, o).data()), want_crc) << g.name();
}

TEST(PinnedOutputs, F32NetworksBitExact) {
  expect_pinned_f32(zoo::resnet50(1, 10, 32), Shape{1, 3, 32, 32}, 61, 3573386354u);
  expect_pinned_f32(zoo::mobilenet_v3_large(1, 10, 32), Shape{1, 3, 32, 32}, 63, 4012347630u);
  expect_pinned_f32(zoo::micro_cnn("pin", 8, 3, 16, 5), Shape{8, 3, 16, 16}, 65, 1130817910u);
}

/// The logits of one run of \p g at \p level: the softmax output's input,
/// read through the run observer.
Tensor logits_of(const Graph& g, const Tensor& x, util::SimdLevel level) {
  runtime::Session exec(g);
  exec.set_exec_config({.simd = level});
  const NodeId logits = g.node(g.outputs().front()).inputs.at(0);
  Tensor out;
  (void)exec.run({{g.node(g.inputs().front()).name, x}}, [&](NodeId id) {
    if (id == logits) out = exec.value(id).clone();
  });
  return out;
}

/// CRC-32 of the ResNet-50 logits (the softmax input) of one run at \p level.
std::uint32_t resnet50_logits_crc(util::SimdLevel level) {
  Graph g = zoo::resnet50(1, 10, 32);
  Rng rng(61);
  g.materialize_weights(rng);
  Rng data_rng(161);
  const Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));
  return util::crc32(logits_of(g, x, level).data());
}

TEST(PinnedOutputs, F32ResNet50LogitsBitExact) {
  // Under random weights the ResNet-50 softmax above saturates to one-hot,
  // so its CRC only sees a changed class; the logits (the softmax input of
  // the same run) pin every bit.
  EXPECT_EQ(resnet50_logits_crc(util::SimdLevel::kPortable), 4186703573u);
}

TEST(PinnedOutputs, F32SimdLevelBitExact) {
  // The same networks and logits at the level kAuto resolves to: AVX2 has
  // its own constants (FMA contraction moves the last bits), portable
  // (VEDLIOT_FORCE_PORTABLE=1 or no SIMD on the host) reuses the ones
  // above, and a level with no recorded constant (NEON) skips.
  const util::SimdLevel level = util::resolve_simd_level(util::SimdLevel::kAuto);
  if (level != util::SimdLevel::kPortable && level != util::SimdLevel::kAvx2) {
    GTEST_SKIP() << "no pinned f32 constants for " << util::simd_level_name(level);
  }
  const bool avx2 = level == util::SimdLevel::kAvx2;
  // ResNet-50's one-hot softmax is the same at both levels; its logits are not.
  expect_pinned_f32(zoo::resnet50(1, 10, 32), Shape{1, 3, 32, 32}, 61, 3573386354u, level);
  expect_pinned_f32(zoo::mobilenet_v3_large(1, 10, 32), Shape{1, 3, 32, 32}, 63,
                    avx2 ? 1276554148u : 4012347630u, level);
  expect_pinned_f32(zoo::micro_cnn("pin", 8, 3, 16, 5), Shape{8, 3, 16, 16}, 65,
                    avx2 ? 2906562146u : 1130817910u, level);
  EXPECT_EQ(resnet50_logits_crc(level), avx2 ? 4160410157u : 4186703573u);
}

TEST(PinnedOutputs, F32ActivationFusionIsBitwise) {
  // Fusing ResNet-50's activations — the residual Add+Relu pairs included —
  // applies each Relu to the same float the unfused op reads, so a
  // BN-folded network's logits keep every bit, at portable dispatch and at
  // the resolved level.
  Graph folded = zoo::resnet50(1, 10, 32);
  Rng rng(61);
  folded.materialize_weights(rng);
  opt::FuseBatchNormPass().run(folded);
  Graph fused = folded;
  opt::FuseActivationPass().run(fused);
  std::size_t fused_adds = 0, relus = 0;
  for (NodeId id : fused.topo_order()) {
    const Node& n = fused.node(id);
    if (n.kind == OpKind::kAdd && n.attrs.get_str_or("fused_act", "") == "Relu") ++fused_adds;
    if (n.kind == OpKind::kRelu) ++relus;
  }
  EXPECT_EQ(fused_adds, 16u);
  EXPECT_EQ(relus, 0u);

  Rng data_rng(161);
  const Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));
  for (auto level : {util::SimdLevel::kPortable, util::SimdLevel::kAuto}) {
    const Tensor want = logits_of(folded, x, level);
    const Tensor got = logits_of(fused, x, level);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(), want.data().size_bytes()), 0)
        << util::simd_level_name(level);
  }
}

TEST(ExecutionEngine, SetMaxBatchAdjustsAdmissionOnLiveSession) {
  // Brownout controllers shrink the admission cap on a live session and
  // restore it without rebuilding the executor.
  Graph g = zoo::micro_mlp("mb", 4, 8, {8}, 3);
  Rng rng(41);
  g.materialize_weights(rng);
  auto session = runtime::make_session(g);
  Rng data_rng(42);
  const Tensor x(Shape{4, 8}, data_rng.normal_vector(32));

  EXPECT_EQ(session->max_batch(), 0);  // unlimited by default
  EXPECT_NO_THROW((void)session->run_single(x));

  session->set_exec_config({.max_batch = 2});
  EXPECT_EQ(session->max_batch(), 2);
  EXPECT_THROW((void)session->run_single(x), ExecError);

  session->set_exec_config({});
  EXPECT_NO_THROW((void)session->run_single(x));
}

// ---------------------------------------------------------------------------
// Kernel level: the depthwise row sweep against the per-pixel loop it
// replaced, and each activation's row form against apply_activation
// ---------------------------------------------------------------------------

/// The per-pixel depthwise loop the row sweep replaced, kept verbatim as the
/// reference: per output pixel the bias, then its in-image taps in (kh, kw)
/// order with two bounds checks per tap, then the channel's epilogue.
template <typename P>
std::uint64_t depthwise_per_pixel(const typename P::Elem* in, const typename P::Elem* w,
                                  typename P::Elem* out, const runtime_kernels::Conv2dGeometry& g,
                                  std::int64_t b, std::int64_t c_lo, std::int64_t c_hi,
                                  const P& p) {
  using Acc = typename P::Acc;
  const std::int64_t k = g.kernel, IH = g.in_h, IW = g.in_w, OH = g.out_h, OW = g.out_w;
  std::uint64_t saturations = 0;
  for (std::int64_t c = c_lo; c < c_hi; ++c) {
    const auto* plane = in + ((b * g.in_c + c) * IH) * IW;
    const auto* wc = w + c * k * k;
    auto* oplane = out + ((b * g.out_c + c) * OH) * OW;
    const Acc init = p.init(c);
    const auto epilogue = p.channel(c);
    for (std::int64_t oh = 0; oh < OH; ++oh) {
      for (std::int64_t ow = 0; ow < OW; ++ow) {
        Acc acc = init;
        for (std::int64_t kh = 0; kh < k; ++kh) {
          const std::int64_t ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= IH) continue;
          for (std::int64_t kw = 0; kw < k; ++kw) {
            const std::int64_t iw = ow * g.stride - g.pad + kw;
            if (iw < 0 || iw >= IW) continue;
            acc += static_cast<Acc>(plane[ih * IW + iw]) * static_cast<Acc>(wc[kh * k + kw]);
          }
        }
        oplane[oh * OW + ow] = epilogue(acc, saturations);
      }
    }
  }
  return saturations;
}

/// Depthwise geometries over kernel {1, 3, 5, 7} x stride {1, 2, 3} x pad
/// {0..3}, at planes from 1x1 up: planes narrower than the kernel, one
/// output column, and rows of 800 input columns, wider than the kernel's
/// internal row block, at every stride. Five channels, two lanes.
std::vector<runtime_kernels::Conv2dGeometry> depthwise_geometries() {
  struct Plane {
    std::int64_t h, w;
  };
  std::vector<runtime_kernels::Conv2dGeometry> out;
  for (std::int64_t k : {1, 3, 5, 7}) {
    for (std::int64_t s : {1, 2, 3}) {
      for (std::int64_t pad = 0; pad <= 3; ++pad) {
        for (const Plane pl : {Plane{1, 1}, Plane{2, 3}, Plane{5, 1}, Plane{6, 9}, Plane{9, 14},
                               Plane{k, 800}}) {
          if (pl.h + 2 * pad < k || pl.w + 2 * pad < k) continue;  // no output pixel
          const std::int64_t oh = (pl.h + 2 * pad - k) / s + 1, ow = (pl.w + 2 * pad - k) / s + 1;
          out.push_back({5, pl.h, pl.w, 5, oh, ow, k, s, pad, 5});
        }
      }
    }
  }
  return out;
}

std::string describe(const runtime_kernels::Conv2dGeometry& g) {
  return "k=" + std::to_string(g.kernel) + " s=" + std::to_string(g.stride) +
         " pad=" + std::to_string(g.pad) + " in=" + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " out=" + std::to_string(g.out_h) + "x" +
         std::to_string(g.out_w);
}

constexpr OpKind kEveryActivation[] = {OpKind::kIdentity, OpKind::kRelu,     OpKind::kRelu6,
                                       OpKind::kLeakyRelu, OpKind::kSigmoid, OpKind::kHSigmoid,
                                       OpKind::kHSwish,    OpKind::kTanh,    OpKind::kMish};

TEST(DepthwiseKernel, F32RowSweepBitwiseEqualsPerPixelLoop) {
  constexpr std::int64_t kLanes = 2, kLane = 1, kCLo = 1, kCHi = 4;  // channels 0 and 4 untouched
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Rng rng(41);
  std::size_t geometries = 0;
  for (const auto& g : depthwise_geometries()) {
    const std::size_t in_n = static_cast<std::size_t>(kLanes * g.in_c * g.in_h * g.in_w);
    const std::size_t out_n = static_cast<std::size_t>(kLanes * g.out_c * g.out_h * g.out_w);
    std::vector<float> x = rng.normal_vector(in_n);
    // ±inf in channel 2 of the lane only: its outputs go inf or NaN, the
    // others stay finite.
    const std::size_t plane = static_cast<std::size_t>(g.in_h * g.in_w);
    const std::size_t inf_at = static_cast<std::size_t>(kLane * g.in_c + 2) * plane;
    x[inf_at] = kInf;
    x[inf_at + plane / 2] = -kInf;
    std::vector<float> w = rng.normal_vector(static_cast<std::size_t>(g.out_c * g.kernel * g.kernel));
    // -0.0 biases on odd channels: a pixel with no in-image tap keeps the sign.
    std::vector<float> bias = rng.normal_vector(static_cast<std::size_t>(g.out_c));
    for (std::size_t c = 1; c < bias.size(); c += 2) bias[c] = -0.0f;
    for (OpKind act : kEveryActivation) {
      const runtime_kernels::F32Policy p{bias.data(), act, 0.1};
      std::vector<float> want(out_n, 7.0f), got(out_n, 7.0f);
      EXPECT_EQ(depthwise_per_pixel(x.data(), w.data(), want.data(), g, kLane, kCLo, kCHi, p), 0u);
      EXPECT_EQ(runtime_kernels::depthwise(x.data(), w.data(), got.data(), g, kLane, kCLo, kCHi, p),
                0u);
      ASSERT_EQ(std::memcmp(got.data(), want.data(), out_n * sizeof(float)), 0)
          << describe(g) << " act=" << op_name(act);
    }
    ++geometries;
  }
  EXPECT_GT(geometries, 200u);
}

TEST(DepthwiseKernel, S8RowSweepBitwiseEqualsPerPixelLoop) {
  constexpr std::int64_t kLanes = 2, kLane = 1, kCLo = 1, kCHi = 4;
  struct Window {
    std::int32_t lo, hi;
  };
  Rng rng(43);
  const auto codes = [&](std::size_t n, std::int64_t lo) {  // uniform in [lo, 127]
    std::vector<std::int8_t> v(n);
    for (auto& c : v) c = static_cast<std::int8_t>(rng.uniform_int(lo, 127));
    return v;
  };
  std::uint64_t saturations = 0;
  for (const auto& g : depthwise_geometries()) {
    const std::size_t out_n = static_cast<std::size_t>(kLanes * g.out_c * g.out_h * g.out_w);
    const auto x = codes(static_cast<std::size_t>(kLanes * g.in_c * g.in_h * g.in_w), -128);
    const auto w = codes(static_cast<std::size_t>(g.out_c * g.kernel * g.kernel), -127);
    std::vector<std::int32_t> bias;
    std::vector<runtime_kernels::Requant> rq;
    for (std::int64_t c = 0; c < g.out_c; ++c) {
      bias.push_back(static_cast<std::int32_t>(rng.uniform(-5000.0, 5000.0)));
      rq.push_back(runtime_kernels::Requant::from_real(rng.uniform(0.001, 0.05)));
    }
    for (const Window win : {Window{-128, 127}, Window{0, 127}, Window{0, 60}}) {
      const runtime_kernels::S8Policy p{bias.data(), rq.data(), win.lo, win.hi};
      std::vector<std::int8_t> want(out_n, 99), got(out_n, 99);
      const std::uint64_t want_sat =
          depthwise_per_pixel(x.data(), w.data(), want.data(), g, kLane, kCLo, kCHi, p);
      EXPECT_EQ(runtime_kernels::depthwise(x.data(), w.data(), got.data(), g, kLane, kCLo, kCHi, p),
                want_sat)
          << describe(g) << " window [" << win.lo << ", " << win.hi << "]";
      ASSERT_EQ(got, want) << describe(g) << " window [" << win.lo << ", " << win.hi << "]";
      saturations += want_sat;
    }
  }
  EXPECT_GT(saturations, 0u);  // the saturation count is exercised, not vacuous
}

TEST(Activation, RowFormBitwiseEqualsApplyActivation) {
  using Lim = std::numeric_limits<float>;
  // Signed zeros, infinities, NaNs, denormals, the normal extremes, and each
  // clamp edge with its neighbours: Relu at 0, Relu6 at 0 and 6, HSigmoid
  // and HSwish at -3 and 3 (x/6 + 0.5 reaches 0 and 1).
  std::vector<float> v = {0.0f, -0.0f, Lim::infinity(), -Lim::infinity(), Lim::quiet_NaN(),
                          -Lim::quiet_NaN(), Lim::denorm_min(), -Lim::denorm_min(),
                          Lim::min() / 2.0f, -Lim::min() / 2.0f, Lim::min(), -Lim::min(),
                          Lim::max(), -Lim::max(), Lim::epsilon(), 88.7f, -88.7f, 1e-30f};
  for (float edge : {0.0f, 6.0f, -3.0f, 3.0f}) {
    for (float e : {edge, -edge}) {
      v.push_back(e);
      v.push_back(std::nextafter(e, Lim::infinity()));
      v.push_back(std::nextafter(e, -Lim::infinity()));
    }
  }
  Rng rng(47);
  for (float r : rng.normal_vector(61)) v.push_back(4.0f * r);  // a vector body and a tail
  std::uint64_t none = 0;
  for (OpKind act : kEveryActivation) {
    for (double alpha : {0.01, 0.1}) {
      const runtime_kernels::F32Policy::Channel e{act, alpha};
      for (std::size_t n : {v.size(), std::size_t{1}, std::size_t{7}}) {
        std::vector<float> y(n, 7.0f);
        e.row(v.data(), y.data(), static_cast<std::int64_t>(n), none);
        for (std::size_t i = 0; i < n; ++i) {
          const float want = runtime_kernels::apply_activation(v[i], act, alpha);
          ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]), std::bit_cast<std::uint32_t>(want))
              << op_name(act) << " alpha=" << alpha << " x=" << v[i] << " n=" << n;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(e(v[i], none)), std::bit_cast<std::uint32_t>(want));
        }
      }
    }
  }
  EXPECT_EQ(none, 0u);
}

}  // namespace
}  // namespace vedliot
