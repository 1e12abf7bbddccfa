// Tests for the static-analysis subsystem: the strict IR verifier (one
// corrupt-graph case per defect class, asserting the exact check id), the
// dataflow framework (liveness cross-checked against the memory planner,
// use facts) and PassManager integration
// (per-pass attribution, structural diffs, strict rejection).

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/dataflow.hpp"
#include "analysis/verifier.hpp"
#include "graph/package.hpp"
#include "graph/serialize.hpp"
#include "graph/zoo.hpp"
#include "hw/accel.hpp"
#include "opt/fusion.hpp"
#include "opt/prune.hpp"
#include "opt/quantize.hpp"
#include "runtime/memory_planner.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

using analysis::Report;
using analysis::Severity;
using analysis::VerifyOptions;
using analysis::verify_graph;

Graph materialized(Graph g, std::uint64_t seed = 5) {
  Rng rng(seed);
  g.materialize_weights(rng);
  return g;
}

Graph calibrated(Graph g) {
  Rng rng(11);
  std::vector<Tensor> samples;
  const Shape& in = g.node(g.inputs().front()).out_shape;
  samples.emplace_back(in, rng.normal_vector(static_cast<std::size_t>(in.numel())));
  opt::calibrate_activations(g, samples);
  return g;
}

// ---------------------------------------------------------------------------
// Verifier: clean graphs
// ---------------------------------------------------------------------------

TEST(Verifier, CleanZooModelsHaveNoFindingsOfErrorSeverity) {
  for (Graph g : {zoo::resnet50(), zoo::mobilenet_v3_large(), zoo::efficientnet_lite0(),
                  zoo::yolov4(), zoo::gesture_net(), zoo::face_net(), zoo::object_det_net(),
                  zoo::speech_net(), zoo::motor_net(), zoo::arc_net(), zoo::pedestrian_net()}) {
    const Report rep = verify_graph(g);
    EXPECT_TRUE(rep.ok()) << g.name() << ":\n" << rep.to_table();
    EXPECT_EQ(rep.warnings(), 0u) << g.name() << ":\n" << rep.to_table();
  }
}

TEST(Verifier, MaterializedGraphStaysClean) {
  const Report rep = verify_graph(materialized(zoo::micro_cnn("m", 1, 1, 16, 4)));
  EXPECT_TRUE(rep.ok()) << rep.to_table();
}

// ---------------------------------------------------------------------------
// Verifier: one corrupt graph per defect class, exact check id
// ---------------------------------------------------------------------------

TEST(Verifier, BadArityReportsIrArity) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  Node& relu = g.node(g.find("relu0"));
  relu.inputs.push_back(relu.inputs.front());
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("ir.arity")) << rep.to_table();
}

TEST(Verifier, DanglingInputReportsIrInputDead) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).dead = true;
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("ir.input.dead")) << rep.to_table();
}

TEST(Verifier, MissingRequiredAttrReportsIrAttrMissing) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.erase("units");
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("ir.attr.missing")) << rep.to_table();
}

TEST(Verifier, WrongAttrTypeReportsIrAttrType) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("logits")).attrs.set_float("units", 4.5);
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("ir.attr.type")) << rep.to_table();
}

TEST(Verifier, OutOfDomainAttrReportsIrAttrValue) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.set_int("units", -3);
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("ir.attr.value")) << rep.to_table();
}

TEST(Verifier, UnknownAttrIsAWarningNotAnError) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.set_int("favourite_prime", 7);
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.has("ir.attr.unknown")) << rep.to_table();
}

TEST(Verifier, StaleShapeReportsIrShapeStale) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  // Widen fc0 without re-running inference: stored shapes go stale.
  g.node(g.find("fc0")).attrs.set_int("units", 32);
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("ir.shape.stale")) << rep.to_table();
}

TEST(Verifier, UnusedGraphInputIsWarned) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.add_input("orphan", Shape{1, 3});
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("ir.input.unused")) << rep.to_table();
}

TEST(Verifier, WrongWeightShapeReportsWeightShape) {
  Graph g = materialized(zoo::micro_mlp("m", 1, 8, {16}, 4));
  g.node(g.find("fc0")).weights[0] = Tensor(Shape{3, 3});
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("weight.shape")) << rep.to_table();
}

TEST(Verifier, WeightsOnWeightFreeOpReportWeightUnexpected) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("relu0")).weights.emplace_back(Shape{4});
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("weight.unexpected")) << rep.to_table();
}

TEST(Verifier, BiasAttrTensorMismatchReportsWeightBias) {
  Graph g = materialized(zoo::micro_mlp("m", 1, 8, {16}, 4));
  g.node(g.find("fc0")).attrs.set_int("bias", 0);  // tensor still present
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("weight.bias")) << rep.to_table();
}

TEST(Verifier, NonFiniteWeightsReportWeightNonfinite) {
  Graph g = materialized(zoo::micro_mlp("m", 1, 8, {16}, 4));
  g.node(g.find("fc0")).weights[0].at(0) = std::numeric_limits<float>::quiet_NaN();
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("weight.nonfinite")) << rep.to_table();
}

TEST(Verifier, Int8NodeMissingActScaleReportsQuantMissing) {
  Graph g = calibrated(materialized(zoo::micro_mlp("m", 1, 8, {16}, 4)));
  g.node(g.find("fc0")).attrs.erase("act_scale");
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("quant.act_scale.missing")) << rep.to_table();
}

TEST(Verifier, NonPositiveActScaleReportsQuantValue) {
  Graph g = calibrated(materialized(zoo::micro_mlp("m", 1, 8, {16}, 4)));
  g.node(g.find("fc0")).attrs.set_float("act_scale", -1.0);
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("quant.act_scale.value")) << rep.to_table();
}

TEST(Verifier, DanglingWeightDtypeIsWarned) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("relu0")).weight_dtype = DType::kINT8;
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("quant.weight_dtype.dangling")) << rep.to_table();
}

TEST(Verifier, InvalidFusedActStringReportsFusionInvalid) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.set_str("fused_act", "Gelu6");
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has("fusion.fused_act.invalid")) << rep.to_table();
}

TEST(Verifier, FusedActOnNonFusableOpReportsMisplaced) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("prob")).attrs.set_str("fused_act", "Relu");
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("fusion.fused_act.misplaced")) << rep.to_table();
}

TEST(Verifier, AddExecutesFusedReluAndRelu6Only) {
  // The Add contract takes the clamps the int8 executor runs; any other
  // fused activation on an Add is misplaced.
  for (const char* act : {"Relu", "Relu6", "Sigmoid", "LeakyRelu"}) {
    Graph g("add");
    const NodeId x = g.add_input("x", Shape{1, 8});
    const NodeId relu = g.add(OpKind::kRelu, "relu", {x});
    AttrMap a;
    a.set_str("fused_act", act);
    g.add(OpKind::kAdd, "residual", {x, relu}, std::move(a));
    const Report rep = verify_graph(g);
    const bool clamp = std::string(act) == "Relu" || std::string(act) == "Relu6";
    EXPECT_EQ(rep.has("fusion.fused_act.misplaced"), !clamp) << act << "\n" << rep.to_table();
    EXPECT_FALSE(rep.has("ir.attr.unknown")) << act << "\n" << rep.to_table();
    EXPECT_EQ(rep.ok(), clamp) << act << "\n" << rep.to_table();
  }
}

TEST(Verifier, FusedBnWithoutBiasReportsFusionBias) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  Node& fc = g.node(g.find("fc0"));
  fc.attrs.set_int("fused_bn", 1);
  fc.attrs.set_int("bias", 0);
  g.touch();
  const Report rep = verify_graph(g);
  EXPECT_TRUE(rep.has("fusion.fused_bn.bias")) << rep.to_table();
}

TEST(Verifier, CheckGroupsAreIndependentlyToggleable) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.set_str("fused_act", "Gelu6");
  g.touch();
  const Report fusion_only = verify_graph(g, analysis::parse_check_groups("fusion"));
  EXPECT_TRUE(fusion_only.has("fusion.fused_act.invalid"));
  const Report ir_only = verify_graph(g, analysis::parse_check_groups("ir"));
  EXPECT_FALSE(ir_only.has("fusion.fused_act.invalid"));
  EXPECT_THROW(analysis::parse_check_groups("ir,bogus"), InvalidArgument);
}

TEST(Verifier, VerifyOrThrowEmbedsFindingsTable) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  g.node(g.find("fc0")).attrs.erase("units");
  g.touch();
  try {
    analysis::verify_or_throw(g);
    FAIL() << "expected GraphError";
  } catch (const GraphError& e) {
    EXPECT_NE(std::string(e.what()).find("ir.attr.missing"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Verifier-backed loading
// ---------------------------------------------------------------------------

TEST(Verifier, CorruptTextGraphIsRejectedWithFindings) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  // A defect that shape inference cannot see: only the load-path verifier
  // stands between this file and the runtime.
  g.node(g.find("fc0")).attrs.set_str("fused_act", "Gelu6");
  g.touch();
  const std::string text = to_text(g);
  try {
    from_text(text);
    FAIL() << "expected GraphError";
  } catch (const GraphError& e) {
    EXPECT_NE(std::string(e.what()).find("fusion.fused_act.invalid"), std::string::npos)
        << e.what();
  }
}

TEST(Verifier, PackageWithWrongWeightShapesIsRejected) {
  Graph g = materialized(zoo::micro_mlp("m", 1, 8, {16}, 4));
  g.node(g.find("fc0")).weights[0] = Tensor(Shape{2, 2});
  g.touch();
  const auto blob = pack_model(g);
  try {
    unpack_model(blob);
    FAIL() << "expected GraphError";
  } catch (const GraphError& e) {
    EXPECT_NE(std::string(e.what()).find("weight.shape"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Dataflow framework
// ---------------------------------------------------------------------------

TEST(Dataflow, LivenessMatchesMemoryPlanner) {
  const Graph g = zoo::gesture_net();
  const auto order = g.topo_order();
  const auto df = analysis::Dataflow::compute_with_order(g, order);
  const MemoryPlan plan = plan_memory_with_order(g, order, DType::kFP32, /*alignment=*/1);

  ASSERT_EQ(plan.buffers.size(), df.intervals().size());
  for (const BufferPlan& b : plan.buffers) {
    const analysis::LiveInterval& iv = df.interval(b.node);
    EXPECT_EQ(b.first_use, iv.def_step);
    EXPECT_EQ(b.last_use, iv.last_use);
    EXPECT_EQ(b.size, iv.bytes);
  }
  // The liveness peak is the information-theoretic floor of any packing.
  EXPECT_GE(plan.arena_bytes, df.peak_live_bytes());
  EXPECT_LE(plan.arena_bytes, plan.naive_bytes);
}

TEST(Dataflow, UseDefChainsMatchGraphStructure) {
  const Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);
  const auto df = analysis::Dataflow::compute(g);
  for (NodeId id : g.topo_order()) {
    EXPECT_EQ(df.consumers(id), g.consumers(id));
  }
}

TEST(Dataflow, GraphOutputsLivePastTheFinalStep) {
  const Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  const auto df = analysis::Dataflow::compute(g);
  const auto outs = g.outputs();
  for (NodeId id : outs) {
    EXPECT_EQ(df.interval(id).last_use, df.order().size());
    EXPECT_TRUE(df.interval(id).is_output);
  }
}

TEST(Dataflow, RejectsBrokenOrdersLikeThePlanner) {
  const Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  auto order = g.topo_order();
  std::reverse(order.begin(), order.end());
  EXPECT_THROW(analysis::Dataflow::compute_with_order(g, order), Error);
  auto dup = g.topo_order();
  dup.back() = dup.front();
  EXPECT_THROW(analysis::Dataflow::compute_with_order(g, dup), Error);
}

// ---------------------------------------------------------------------------
// PassManager integration
// ---------------------------------------------------------------------------

/// A deliberately buggy pass: tags a Dense node with a bogus fused_act.
class VandalPass : public opt::Pass {
 public:
  std::string name() const override { return "vandal"; }
  opt::PassResult run(Graph& g) override {
    opt::PassResult r;
    r.pass_name = name();
    for (NodeId id : g.topo_order()) {
      Node& n = g.node(id);
      if (n.kind == OpKind::kDense) {
        n.attrs.set_str("fused_act", "NotAnOp");
        g.touch();
        ++r.nodes_changed;
        break;
      }
    }
    return r;
  }
};

TEST(PassManager, StrictModeAttributesFindingsToTheOffendingPass) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  opt::PassManager pm;
  pm.add(std::make_unique<opt::EliminateIdentityPass>());
  pm.add(std::make_unique<VandalPass>());
  try {
    pm.run(g);
    FAIL() << "expected PassError";
  } catch (const opt::PassError& e) {
    EXPECT_EQ(e.pass_name(), "vandal");
    EXPECT_TRUE(e.findings().has("fusion.fused_act.invalid")) << e.what();
  }
}

TEST(PassManager, NonStrictModeCollectsFindingsPerPass) {
  Graph g = zoo::micro_mlp("m", 1, 8, {16}, 4);
  opt::PassManager pm;
  pm.add(std::make_unique<VandalPass>());
  opt::PassOptions opts;
  opts.strict = false;
  const auto results = pm.run(g, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].findings.ok());
  EXPECT_TRUE(results[0].findings.has("fusion.fused_act.invalid"));
}

TEST(PassManager, StructuralDiffCountsKilledAndRewiredNodes) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4));
  opt::PassManager pm;
  pm.add(std::make_unique<opt::FuseBatchNormPass>());
  const auto results = pm.run(g);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].nodes_killed, results[0].nodes_changed);  // one BN dies per fold
  EXPECT_GT(results[0].nodes_rewired, 0);                        // consumers rewired past BN
  EXPECT_EQ(results[0].nodes_added, 0);
  EXPECT_TRUE(results[0].findings.ok());
}

TEST(PassManager, FullOptPipelineOnResNet50IsVerifierClean) {
  Graph g = materialized(zoo::resnet50(), 3);
  opt::PassManager pm;
  pm.add(std::make_unique<opt::FuseBatchNormPass>());
  pm.add(std::make_unique<opt::FuseActivationPass>());
  pm.add(std::make_unique<opt::QuantizeWeightsPass>(DType::kINT8));
  pm.add(std::make_unique<opt::MagnitudePrunePass>(0.5));
  pm.run(g);  // strict: throws on any error finding
  EXPECT_TRUE(verify_graph(g).ok());
}

TEST(PassManager, FullOptPipelineOnMobileNetV3IsVerifierClean) {
  Graph g = materialized(zoo::mobilenet_v3_large(), 4);
  opt::PassManager pm;
  pm.add(std::make_unique<opt::FuseBatchNormPass>());
  pm.add(std::make_unique<opt::FuseActivationPass>());
  pm.add(std::make_unique<opt::QuantizeWeightsPass>(DType::kINT8));
  pm.add(std::make_unique<opt::MagnitudePrunePass>(0.5));
  pm.run(g);
  EXPECT_TRUE(verify_graph(g).ok());
}

// ---------------------------------------------------------------------------
// Regression tests for latent bugs the verifier surfaced
// ---------------------------------------------------------------------------

// FuseBatchNormPass used to set fused_bn=1 on analytic (weight-free) graphs
// without forcing bias=1, so materialization built a conv with no bias tensor
// to absorb the folded shift.
TEST(Regression, AnalyticBatchNormFusionForcesBias) {
  Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);  // analytic: no weights yet
  opt::FuseBatchNormPass pass;
  pass.run(g);
  const NodeId conv = g.find("conv_0");
  EXPECT_EQ(g.node(conv).attrs.get_int_or("bias", 1), 1);
  Graph m = materialized(std::move(g));
  EXPECT_EQ(m.node(conv).weights.size(), 2u);  // weight + bias
  EXPECT_TRUE(verify_graph(m).ok()) << verify_graph(m).to_table();
}

// from_text used to rebuild Input nodes from name+shape only, silently
// dropping their attrs — so a calibrated graph came back from a package
// round-trip with act_scale missing on the input (and the int8 executor
// refused the otherwise-valid model).
TEST(Regression, RoundTripPreservesInputNodeAttrs) {
  Graph g = calibrated(materialized(zoo::micro_mlp("m", 1, 8, {16}, 4)));
  const NodeId in = g.inputs().front();
  ASSERT_TRUE(g.node(in).attrs.has("act_scale"));
  const Graph back = unpack_model(pack_model(g));  // load path runs the verifier
  EXPECT_TRUE(back.node(back.inputs().front()).attrs.has("act_scale"));
  EXPECT_TRUE(verify_graph(back).ok()) << verify_graph(back).to_table();
}

// apply_channel_rounding used to leave stale weights on consumers whose
// input-channel count changed (e.g. the dense head after its producer conv
// was widened).
TEST(Regression, ChannelRoundingDropsStaleConsumerWeights) {
  Graph g = materialized(zoo::micro_cnn("m", 1, 1, 16, 4, /*width=*/10));
  const Graph rounded = hw::apply_channel_rounding(g, /*multiple=*/8);
  const Report rep = verify_graph(rounded);
  EXPECT_FALSE(rep.has("weight.shape")) << rep.to_table();
  EXPECT_TRUE(rep.ok()) << rep.to_table();
}

}  // namespace
}  // namespace vedliot
