// Tests for the true-integer INT8 executor: agreement with the float
// reference (through the unified runtime::Session API), integer-domain
// invariants (through the executor directly, which exposes QTensor codes),
// and its preconditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "direct_conv.hpp"
#include "graph/zoo.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "util/cpu.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

/// Build, materialize, fold BN, fuse activations and calibrate — the full
/// pre-deployment pipeline the integer executor expects.
Graph deploy_ready(Graph g, std::uint64_t seed, const Shape& input_shape,
                   std::size_t calib_samples = 8) {
  Rng rng(seed);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> samples;
  Rng data_rng(seed + 1);
  for (std::size_t i = 0; i < calib_samples; ++i) {
    samples.emplace_back(input_shape,
                         data_rng.normal_vector(static_cast<std::size_t>(input_shape.numel())));
  }
  opt::calibrate_activations(g, samples, Calibration::kMinMax);
  return g;
}

/// Thread-count knob now lives in RunOptions::exec (ExecConfig).
runtime::RunOptions qs_threads(unsigned threads) {
  runtime::RunOptions o;
  o.exec.threads = threads;
  return o;
}

TEST(QTensor, QuantizeDequantizeRoundTrip) {
  Tensor t(Shape{4}, {0.5f, -0.25f, 1.0f, 0.0f});
  const QTensor q = quantize_fixed(t, 0.01);
  EXPECT_EQ(q.data[0], 50);
  EXPECT_EQ(q.data[1], -25);
  EXPECT_EQ(q.data[3], 0);
  const Tensor back = q.dequantize();
  EXPECT_LT(max_abs_diff(t, back), 0.01f);
}

TEST(QTensor, QuantizeSaturates) {
  Tensor t(Shape{2}, {100.0f, -100.0f});
  const QTensor q = quantize_fixed(t, 0.1);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -128);
}

TEST(Int8Executor, MatchesFloatOnMicroMlp) {
  const Shape in_shape{1, 16};
  Graph g = deploy_ready(zoo::micro_mlp("m", 1, 16, {24, 12}, 4), 11, in_shape, 32);
  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);
  EXPECT_EQ(fsession->backend(), "float-reference");
  EXPECT_EQ(qsession->backend(), "int8");

  Rng rng(99);
  int agree = 0;
  double worst = 0;
  for (int i = 0; i < 32; ++i) {
    Tensor x(in_shape, rng.normal_vector(16));
    const Tensor fy = fsession->run_single(x);
    const Tensor qy = qsession->run_single(x);
    worst = std::max(worst, static_cast<double>(max_abs_diff(fy, qy)));
    // argmax agreement
    std::size_t fa = 0, qa = 0;
    for (std::int64_t j = 1; j < fy.numel(); ++j) {
      if (fy.at(static_cast<std::size_t>(j)) > fy.at(fa)) fa = static_cast<std::size_t>(j);
      if (qy.at(static_cast<std::size_t>(j)) > qy.at(qa)) qa = static_cast<std::size_t>(j);
    }
    if (fa == qa) ++agree;
  }
  EXPECT_GE(agree, 29);      // >=90% top-1 agreement
  EXPECT_LT(worst, 0.30);    // softmax outputs reasonably close (PTQ saturation
                             // on samples outside the calibration range is expected)
}

TEST(Int8Executor, MatchesFloatOnMicroCnn) {
  const Shape in_shape{1, 1, 16, 16};
  Graph g = deploy_ready(zoo::micro_cnn("m", 1, 1, 16, 4), 21, in_shape);
  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);

  Rng rng(7);
  int agree = 0;
  for (int i = 0; i < 16; ++i) {
    Tensor x(in_shape, rng.normal_vector(256));
    const Tensor fy = fsession->run_single(x);
    const Tensor qy = qsession->run_single(x);
    std::size_t fa = 0, qa = 0;
    for (std::int64_t j = 1; j < fy.numel(); ++j) {
      if (fy.at(static_cast<std::size_t>(j)) > fy.at(fa)) fa = static_cast<std::size_t>(j);
      if (qy.at(static_cast<std::size_t>(j)) > qy.at(qa)) qa = static_cast<std::size_t>(j);
    }
    if (fa == qa) ++agree;
  }
  EXPECT_GE(agree, 14);
}

TEST(Int8Executor, OutputScaleIsCalibrated) {
  const Shape in_shape{1, 8};
  Graph g = deploy_ready(zoo::micro_mlp("m", 1, 8, {8}, 3), 31, in_shape);
  runtime::Session qexec(g, DType::kINT8);
  Rng rng(5);
  (void)qexec.run_single(Tensor(in_shape, rng.normal_vector(8)));
  const QTensor q = qexec.quantized(g.outputs().front());
  // softmax outputs in [0,1] -> scale must be <= ~1/127
  EXPECT_LE(q.scale, 1.0 / 127.0 + 1e-9);
  for (std::int8_t v : q.data) EXPECT_GE(v, 0);  // probabilities are non-negative
}

TEST(Int8Executor, FusedReluClampsNegative) {
  // Single conv with fused relu: a strongly negative accumulation must
  // land exactly at q=0.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 1, 1});
  AttrMap a;
  a.set_int("out_channels", 1);
  a.set_int("kernel", 1);
  a.set_int("stride", 1);
  a.set_int("pad", 0);
  a.set_int("groups", 1);
  a.set_int("bias", 0);
  a.set_str("fused_act", "Relu");
  const NodeId c = g.add(OpKind::kConv2d, "conv", {in}, a);
  g.node(c).weights = {Tensor(Shape{1, 1, 1, 1}, {-1.0f})};
  g.node(in).attrs.set_float("act_scale", 0.01);
  g.node(c).attrs.set_float("act_scale", 0.01);

  runtime::Session qexec(g, DType::kINT8);
  (void)qexec.run_single(Tensor(Shape{1, 1, 1, 1}, {1.0f}));
  const QTensor q = qexec.quantized(g.outputs().front());
  EXPECT_EQ(q.data[0], 0);  // relu(-1.0) == 0 in the integer domain
}

TEST(Int8Executor, BiasBeyondInt32WidensTheWeightScale) {
  // A 1x1 conv whose weight is tiny next to its bias: at the weight's own
  // scale (1e-9 / 127) the bias code would be 1.27e13, far outside int32.
  // The channel's weight scale widens until the bias fits beside the
  // accumulator's reach, so the output is the bias within one LSB.
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
  g.node(in).attrs.set_float("act_scale", 0.01);
  g.node(c).attrs.set_float("act_scale", 0.01);

  const Tensor x(Shape{1, 1, 2, 2}, {0.5f, -0.5f, 1.0f, 0.0f});
  const Tensor f32 = runtime::make_session(g)->run_single(x);
  runtime::Session qexec(g, DType::kINT8);
  (void)qexec.run_single(x);
  const QTensor q = qexec.quantized(g.outputs().front());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(f32.at(i), 1.0f);
    EXPECT_EQ(q.data[i], 100) << i;  // 1.0 at scale 0.01
  }
  EXPECT_EQ(qexec.saturations(), 0u);
  // The direct-loop reference quantizes the channel the same way.
  EXPECT_EQ(testutil::DirectConvInt8(g).run_single(x).data, q.data);
}

TEST(Int8Executor, UnfoldedBatchNormRejected) {
  Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);  // contains BN
  Rng rng(1);
  g.materialize_weights(rng);
  EXPECT_THROW((runtime::Session{g, DType::kINT8}), Unsupported);
}

TEST(Int8Executor, MissingCalibrationRejected) {
  Graph g = zoo::micro_mlp("m", 1, 8, {8}, 3);  // no BN, but no act_scale either
  Rng rng(1);
  g.materialize_weights(rng);
  EXPECT_THROW((runtime::Session{g, DType::kINT8}), Unsupported);
}

TEST(Int8Executor, SaturationCounterTracksClipping) {
  // Force saturation: tiny output scale cannot represent the accumulation.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4});
  AttrMap a;
  a.set_int("units", 2);
  a.set_int("bias", 0);
  const NodeId fc = g.add(OpKind::kDense, "fc", {in}, a);
  g.node(fc).weights = {Tensor(Shape{2, 4}, {1, 1, 1, 1, 1, 1, 1, 1})};
  g.node(in).attrs.set_float("act_scale", 0.05);
  g.node(fc).attrs.set_float("act_scale", 1e-4);  // absurdly small
  runtime::Session qexec(g, DType::kINT8);
  (void)qexec.run_single(Tensor(Shape{1, 4}, {5, 5, 5, 5}));
  EXPECT_GT(qexec.saturations(), 0u);
}

TEST(Int8Executor, AbortedRunAddsNoSaturations) {
  // A saturating Dense then a Relu: an observer that throws at the Dense
  // leaves the run's partial counts behind, and they must not reach the
  // next completed run's total.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4});
  AttrMap a;
  a.set_int("units", 2);
  a.set_int("bias", 0);
  const NodeId fc = g.add(OpKind::kDense, "fc", {in}, a);
  const NodeId relu = g.add(OpKind::kRelu, "relu", {fc});
  g.node(fc).weights = {Tensor(Shape{2, 4}, {1, 1, 1, 1, 1, 1, 1, 1})};
  g.node(in).attrs.set_float("act_scale", 0.05);
  g.node(fc).attrs.set_float("act_scale", 1e-4);  // absurdly small
  g.node(relu).attrs.set_float("act_scale", 1e-4);
  const Tensor x(Shape{1, 4}, {5, 5, 5, 5});
  runtime::Session qexec(g, DType::kINT8);
  (void)qexec.run_single(x);
  const std::uint64_t per_run = qexec.saturations();
  ASSERT_GT(per_run, 0u);

  struct Abort {};
  EXPECT_THROW((void)qexec.run({{"x", x}},
                               [&](NodeId id) {
                                 if (id == fc) throw Abort{};
                               }),
               Abort);
  EXPECT_EQ(qexec.saturations(), per_run);  // the aborted run adds nothing
  (void)qexec.run_single(x);
  EXPECT_EQ(qexec.saturations(), 2 * per_run);  // and the next adds one clean run's count
}

TEST(Int8Executor, DepthwiseConvSupported) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 4, 4});
  AttrMap a;
  a.set_int("out_channels", 2);
  a.set_int("kernel", 3);
  a.set_int("stride", 1);
  a.set_int("pad", 1);
  a.set_int("groups", 2);
  a.set_int("bias", 1);
  const NodeId c = g.add(OpKind::kConv2d, "dw", {in}, a);
  Rng rng(3);
  g.materialize_weights(rng);
  std::vector<Tensor> samples;
  Rng data_rng(4);
  for (int i = 0; i < 4; ++i) samples.emplace_back(Shape{1, 2, 4, 4}, data_rng.normal_vector(32));
  opt::calibrate_activations(g, samples);

  auto fsession = runtime::make_session(g);
  auto qsession = runtime::make_quantized_session(g);
  Tensor x(Shape{1, 2, 4, 4}, data_rng.normal_vector(32));
  const Tensor fy = fsession->run_single(x);
  const Tensor qy = qsession->run_single(x);
  EXPECT_LT(rmse(fy, qy), 0.25);
  (void)c;
}

TEST(Int8Executor, UnsupportedOpRejectedAtRun) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 2, 2});
  g.add(OpKind::kMish, "mish", {in});
  Rng rng(1);
  g.materialize_weights(rng);
  std::vector<Tensor> samples{Tensor(Shape{1, 2, 2, 2}, rng.normal_vector(8))};
  opt::calibrate_activations(g, samples);
  runtime::Session qexec(g, DType::kINT8);
  const Tensor x(Shape{1, 2, 2, 2}, rng.normal_vector(8));
  EXPECT_THROW((void)qexec.run_single(x), Unsupported);
}

// ---------------------------------------------------------------------------
// Fixed-point requantization and the int8 elementwise kernel
// ---------------------------------------------------------------------------

using runtime_kernels::Requant;

/// Distance of x from the nearest half-integer: how close round-to-nearest
/// is to a tie.
double tie_distance(double x) { return std::abs(x - std::floor(x) - 0.5); }

TEST(Requant, WithinOneOfRoundedProductAndEqualAwayFromTies) {
  // Accumulators: every int8 value, the int32 extremes and a seeded sample.
  std::vector<std::int64_t> values;
  for (std::int64_t v = -128; v <= 127; ++v) values.push_back(v);
  values.push_back(std::numeric_limits<std::int32_t>::min());
  values.push_back(std::numeric_limits<std::int32_t>::max());
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const double mag = std::ldexp(1.0, static_cast<int>(rng.uniform(0.0, 31.0)));
    values.push_back(static_cast<std::int64_t>(rng.uniform(-mag, mag)));
  }
  for (int e = -20; e <= 4; ++e) {
    for (double f : {1.0, 1.2345, 1.5, 1.9999999}) {
      const double real = std::ldexp(f, e);
      const Requant rq = Requant::from_real(real);
      ASSERT_GE(rq.multiplier, 1 << 30) << real;
      ASSERT_GE(rq.shift, 1) << real;
      ASSERT_LE(rq.shift, 62) << real;
      for (std::int64_t v : values) {
        std::uint64_t sat_got = 0, sat_want = 0;
        const std::int8_t got = runtime_kernels::saturate_clamped(rq.apply(v), -128, 127, sat_got);
        const double exact = static_cast<double>(v) * real;
        const std::int8_t want = runtime_kernels::requant_sat(exact, sat_want);
        ASSERT_LE(std::abs(got - want), 1) << "v=" << v << " real=" << real;
        if (tie_distance(exact) < 1e-6) continue;  // half up vs half to even
        ASSERT_EQ(got, want) << "v=" << v << " real=" << real;
        EXPECT_EQ(sat_got, sat_want) << "v=" << v << " real=" << real;
      }
    }
  }
  // Extreme ratios saturate without overflowing (UBSan would report it).
  std::uint64_t sat = 0;
  const Requant tiny = Requant::from_real(1e-6), huge = Requant::from_real(1e6);
  EXPECT_EQ(runtime_kernels::saturate_clamped(tiny.apply(2147483647), -128, 127, sat), 127);
  EXPECT_EQ(runtime_kernels::saturate_clamped(tiny.apply(-2147483647 - 1), -128, 127, sat), -128);
  EXPECT_EQ(runtime_kernels::saturate_clamped(tiny.apply(100000), -128, 127, sat), 0);
  EXPECT_EQ(runtime_kernels::saturate_clamped(huge.apply(1), -128, 127, sat), 127);
  EXPECT_EQ(runtime_kernels::saturate_clamped(huge.apply(-2147483647 - 1), -128, 127, sat), -128);
  EXPECT_EQ(runtime_kernels::saturate_clamped(huge.apply(0), -128, 127, sat), 0);
  EXPECT_EQ(sat, 4u);
}

/// The elementwise kernel's contract written out as a plain int64 loop:
/// a·m_a + b·m_b rounded half up at the shared shift, saturations counted
/// before the clamp window.
std::uint64_t eltwise_reference(const std::vector<std::int8_t>& a,
                                const std::vector<std::int8_t>* b, std::vector<std::int8_t>& y,
                                const runtime_kernels::EltwiseRequants& r, std::int32_t q_lo,
                                std::int32_t q_hi) {
  std::uint64_t saturations = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t v = std::int64_t{a[i]} * r.a.multiplier;
    if (b != nullptr) v += std::int64_t{(*b)[i]} * r.b.multiplier;
    v = (v + (std::int64_t{1} << (r.a.shift - 1))) >> r.a.shift;
    if (v < -128 || v > 127) ++saturations;
    y[i] = static_cast<std::int8_t>(std::clamp<std::int64_t>(v, q_lo, q_hi));
  }
  return saturations;
}

std::vector<std::int8_t> random_codes(std::size_t n, Rng& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(std::floor(rng.uniform(-128.0, 128.0)));
  if (n > 1) {  // the extremes, whose scaled values saturate
    v[0] = -128;
    v[n - 1] = 127;
  }
  return v;
}

/// A graph of one elementwise op on [1, n] inputs: Add (its fused
/// activation \p fused) when \p add, else the one-input op \p kind.
Graph eltwise_graph(std::int64_t n, bool add, OpKind kind, const std::string& fused,
                    double sa, double sb, double so) {
  Graph g("eltwise");
  const NodeId a = g.add_input("a", Shape{1, n});
  g.node(a).attrs.set_float("act_scale", sa);
  NodeId out;
  if (add) {
    const NodeId b = g.add_input("b", Shape{1, n});
    g.node(b).attrs.set_float("act_scale", sb);
    AttrMap attrs;
    if (!fused.empty()) attrs.set_str("fused_act", fused);
    out = g.add(OpKind::kAdd, "op", {a, b}, std::move(attrs));
  } else {
    out = g.add(kind, "op", {a});
  }
  g.node(out).attrs.set_float("act_scale", so);
  return g;
}

TEST(EltwiseS8, MatchesScalarReferenceAtEveryLengthWindowAndLevel) {
  // Input ratios 2.5 and 1.5 saturate a fair share of outputs; output scale
  // 0.1 puts Relu6's window at [0, 60].
  const double sa = 0.25, sb = 0.15, so = 0.1;
  const std::int32_t q6 = static_cast<std::int32_t>(std::nearbyint(6.0 / so));
  struct Window {
    OpKind one_input;
    const char* fused;
    std::int32_t lo, hi;
  };
  const Window windows[] = {{OpKind::kIdentity, "", -128, 127},
                            {OpKind::kRelu, "Relu", 0, 127},
                            {OpKind::kRelu6, "Relu6", 0, q6}};
  Rng rng(23);
  for (std::int64_t n = 0; n <= 67; ++n) {
    for (bool add : {false, true}) {
      const auto r = runtime_kernels::eltwise_requants(sa / so, add ? sb / so : 0.0);
      for (const Window& w : windows) {
        const std::string what = std::string(add ? "Add " : "rescale ") + w.fused + " n=" +
                                 std::to_string(n);
        const auto a = random_codes(static_cast<std::size_t>(n), rng);
        const auto b = random_codes(static_cast<std::size_t>(n), rng);
        std::vector<std::int8_t> want(a.size()), got(a.size(), 99);
        const std::uint64_t want_sat =
            eltwise_reference(a, add ? &b : nullptr, want, r, w.lo, w.hi);
        EXPECT_EQ(runtime_kernels::eltwise_s8(a.data(), add ? b.data() : nullptr, got.data(), n,
                                              r.a, r.b, w.lo, w.hi),
                  want_sat)
            << what;
        EXPECT_EQ(got, want) << what;
        if (n == 0) continue;

        // The executor's Add / Relu / Relu6 / Identity steps run the same
        // kernel at every dispatch level.
        const Graph g = eltwise_graph(n, add, w.one_input, w.fused, sa, sb, so);
        std::map<std::string, Tensor> feeds;
        Tensor fa(Shape{1, n}), fb(Shape{1, n});
        for (std::size_t i = 0; i < a.size(); ++i) {
          fa.at(i) = static_cast<float>(a[i] * sa);
          fb.at(i) = static_cast<float>(b[i] * sb);
        }
        feeds["a"] = fa;
        if (add) feeds["b"] = fb;
        for (auto level : {util::SimdLevel::kPortable, util::SimdLevel::kAuto}) {
          runtime::Session exec(g, DType::kINT8);
          exec.set_exec_config({.simd = level});
          const Tensor y = exec.run(feeds).outputs.at("op");
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(y.at(i), static_cast<float>(want[i] * so))
                << what << " at " << util::simd_level_name(level) << " i=" << i;
          }
          EXPECT_EQ(exec.saturations(), want_sat) << what << " at "
                                                  << util::simd_level_name(level);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel execution: integer kernels must be exactly deterministic
// ---------------------------------------------------------------------------

TEST(Int8Executor, ResNet50ParallelBitwiseIdenticalToSerial) {
  Graph g = deploy_ready(zoo::resnet50(1, 10, 32), 41, Shape{1, 3, 32, 32});
  Rng data_rng(42);
  Tensor x(Shape{1, 3, 32, 32}, data_rng.normal_vector(3 * 32 * 32));

  runtime::Session serial(g, DType::kINT8);
  (void)serial.run_single(x);
  const QTensor qs = serial.quantized(g.outputs().front());

  runtime::Session mt(g, DType::kINT8);
  mt.set_exec_config({.threads = 4});
  (void)mt.run_single(x);
  const QTensor qm = mt.quantized(g.outputs().front());

  EXPECT_EQ(qs.data, qm.data);  // int8 payloads: bitwise
  EXPECT_DOUBLE_EQ(qs.scale, qm.scale);
  // The saturation diagnostic is a per-chunk sum, also thread-invariant.
  EXPECT_EQ(serial.saturations(), mt.saturations());
}

TEST(Int8Executor, GemmConvBitwiseMatchesDirectConv) {
  // Unlike the float path, int8 GEMM accumulates in int32 along exactly the
  // (ic, kh, kw) order of the direct loop: integer addition is associative,
  // so the two paths must agree bit for bit.
  Graph g = deploy_ready(zoo::micro_cnn("q8", 1, 3, 16, 5), 43, Shape{1, 3, 16, 16});
  Rng data_rng(44);
  Tensor x(Shape{1, 3, 16, 16}, data_rng.normal_vector(3 * 16 * 16));

  runtime::Session gemm(g, DType::kINT8);
  testutil::DirectConvInt8 direct(g);

  (void)gemm.run_single(x);
  const QTensor a = gemm.quantized(g.outputs().front());
  const QTensor b = direct.run_single(x);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(gemm.saturations(), direct.saturations());
}

// ---------------------------------------------------------------------------
// Pinned outputs: the integer arithmetic of whole networks, frozen
// ---------------------------------------------------------------------------

/// deploy_ready with calibration at portable dispatch. Calibration runs the
/// f32 engine, whose SIMD bits differ from portable in the last ULP; it is
/// pinned to portable dispatch (VEDLIOT_SIMD, restored afterwards) so the
/// act_scales, and with them the pinned constants, are the same whether or
/// not the host or VEDLIOT_FORCE_PORTABLE enables SIMD.
Graph deploy_ready_portable(Graph g, std::uint64_t seed, const Shape& in_shape) {
  const char* ambient = std::getenv("VEDLIOT_SIMD");
  const std::string restore = ambient != nullptr ? ambient : "";
  ::setenv("VEDLIOT_SIMD", "portable", 1);
  g = deploy_ready(std::move(g), seed, in_shape);
  if (ambient != nullptr) {
    ::setenv("VEDLIOT_SIMD", restore.c_str(), 1);
  } else {
    ::unsetenv("VEDLIOT_SIMD");
  }
  return g;
}

/// CRC-32 of the dequantized output and the cumulative saturation count of
/// one single-thread run, asserted equal at the portable and the best SIMD
/// dispatch level (integer arithmetic is exact at every level, so one
/// constant serves both). The constants were recorded once; a change in any
/// of them means the engine's int8 arithmetic changed.
void expect_pinned_int8(Graph g, const Shape& in_shape, std::uint64_t seed,
                        std::uint32_t want_crc, std::uint64_t want_saturations) {
  g = deploy_ready_portable(std::move(g), seed, in_shape);
  Rng data_rng(seed + 100);
  const Tensor x(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));
  for (auto level : {util::SimdLevel::kPortable, util::SimdLevel::kAuto}) {
    runtime::RunOptions o;
    o.exec.simd = level;
    auto session = runtime::make_quantized_session(g, o);
    const runtime::RunResult r = session->run({{g.node(g.inputs().front()).name, x}});
    EXPECT_EQ(util::crc32(r.single().data()), want_crc)
        << g.name() << " at " << util::simd_level_name(level);
    EXPECT_EQ(session->saturations(), want_saturations)
        << g.name() << " at " << util::simd_level_name(level);
  }
}

TEST(PinnedOutputs, Int8NetworksBitExact) {
  expect_pinned_int8(zoo::resnet50(1, 10, 32), Shape{1, 3, 32, 32}, 51, 3103212386u, 66u);
  expect_pinned_int8(zoo::efficientnet_lite0(1, 10, 32), Shape{1, 3, 32, 32}, 53, 4198089509u,
                     8263u);
  expect_pinned_int8(zoo::micro_cnn("pin", 2, 3, 16, 5), Shape{2, 3, 16, 16}, 55, 2379389037u, 2u);
}

TEST(PinnedOutputs, Int8ResNet50LogitsBitExact) {
  // Under random weights the ResNet-50 softmax above saturates to one-hot,
  // so its CRC only sees a changed class; the int8 logit codes (the softmax
  // input of the same graph and input), read through the run observer, pin
  // every bit.
  const Shape in_shape{1, 3, 32, 32};
  const Graph g = deploy_ready_portable(zoo::resnet50(1, 10, 32), 51, in_shape);
  Rng data_rng(151);
  const Tensor x(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));
  const NodeId logits = g.node(g.outputs().front()).inputs.at(0);
  for (auto level : {util::SimdLevel::kPortable, util::SimdLevel::kAuto}) {
    runtime::Session exec(g, DType::kINT8);
    exec.set_exec_config({.simd = level});
    QTensor q;
    (void)exec.run({{g.node(g.inputs().front()).name, x}}, [&](NodeId id) {
      if (id == logits) q = exec.quantized(id);
    });
    ASSERT_EQ(q.data.size(), 10u);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(q.data.data());
    EXPECT_EQ(util::crc32({bytes, q.data.size()}), 1976411413u) << util::simd_level_name(level);
  }
}

TEST(QuantizedSession, ThreadsOptionPreservesOutputs) {
  Graph g = deploy_ready(zoo::micro_cnn("qs", 2, 3, 16, 4), 45, Shape{2, 3, 16, 16});
  Rng data_rng(46);
  Tensor x(Shape{2, 3, 16, 16}, data_rng.normal_vector(2 * 3 * 16 * 16));

  auto serial = runtime::make_quantized_session(g, qs_threads(1));
  auto mt = runtime::make_quantized_session(g, qs_threads(4));
  const Tensor ys = serial->run_single(x);
  const Tensor ym = mt->run_single(x);
  ASSERT_EQ(ys.shape(), ym.shape());
  for (std::int64_t i = 0; i < ys.numel(); ++i) {
    EXPECT_EQ(ys.at(static_cast<std::size_t>(i)), ym.at(static_cast<std::size_t>(i)));
  }
}

}  // namespace
}  // namespace vedliot
