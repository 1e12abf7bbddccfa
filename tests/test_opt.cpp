// Tests for the optimizing toolchain: fusion, pruning, clustering, Huffman,
// deep compression, quantization passes and calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "opt/compress.hpp"
#include "opt/fusion.hpp"
#include "opt/huffman.hpp"
#include "opt/pass.hpp"
#include "opt/prune.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

namespace vedliot::opt {
namespace {

Graph materialized_micro_cnn(std::uint64_t seed = 42) {
  Graph g = zoo::micro_cnn("m", 1, 1, 16, 4);
  Rng rng(seed);
  g.materialize_weights(rng);
  return g;
}

Tensor test_image(std::uint64_t seed = 99) {
  Rng rng(seed);
  return Tensor(Shape{1, 1, 16, 16}, rng.normal_vector(256));
}

TEST(Fusion, BatchNormFoldPreservesOutputs) {
  Graph g = materialized_micro_cnn();
  const Tensor input = test_image();
  const Tensor before = runtime::Session(g).run_single(input);

  FuseBatchNormPass pass;
  const auto r = pass.run(g);
  EXPECT_EQ(r.nodes_changed, 3);  // three conv-bn pairs in micro_cnn
  g.validate();

  const Tensor after = runtime::Session(g).run_single(input);
  EXPECT_LT(max_abs_diff(before, after), 1e-3f);
}

TEST(Fusion, BatchNormFoldRemovesNodes) {
  Graph g = materialized_micro_cnn();
  const std::size_t before = g.size();
  FuseBatchNormPass pass;
  const auto r = pass.run(g);
  EXPECT_EQ(g.size(), before - static_cast<std::size_t>(r.nodes_changed));
  for (NodeId id : g.topo_order()) EXPECT_NE(g.node(id).kind, OpKind::kBatchNorm);
}

TEST(Fusion, ActivationFusePreservesOutputs) {
  Graph g = materialized_micro_cnn();
  const Tensor input = test_image();
  const Tensor before = runtime::Session(g).run_single(input);

  PassManager pm;
  pm.add(std::make_unique<FuseBatchNormPass>());
  pm.add(std::make_unique<FuseActivationPass>());
  pm.run(g);

  const Tensor after = runtime::Session(g).run_single(input);
  EXPECT_LT(max_abs_diff(before, after), 1e-3f);
  int relus = 0;
  for (NodeId id : g.topo_order()) {
    if (g.node(id).kind == OpKind::kRelu) ++relus;
  }
  EXPECT_EQ(relus, 0);
}

TEST(Fusion, SkipsSharedProducers) {
  // A conv feeding both an activation and another consumer must not fuse.
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 4, 4});
  AttrMap a;
  a.set_int("out_channels", 2);
  a.set_int("kernel", 1);
  a.set_int("stride", 1);
  a.set_int("pad", 0);
  a.set_int("groups", 1);
  a.set_int("bias", 1);
  const NodeId c = g.add(OpKind::kConv2d, "conv", {in}, a);
  const NodeId r = g.add(OpKind::kRelu, "relu", {c});
  g.add(OpKind::kAdd, "residual", {r, c});  // second consumer of conv
  FuseActivationPass pass;
  const auto res = pass.run(g);
  EXPECT_EQ(res.nodes_changed, 0);
}

TEST(Fusion, FusesReluAndRelu6IntoSingleConsumerAdd) {
  // A residual Add followed by an activation: only the clamps the int8
  // executor runs fuse, and only when the activation is the Add's one
  // consumer.
  struct Case {
    OpKind act;
    bool second_consumer;
    bool fuses;
  };
  for (const Case c : {Case{OpKind::kRelu, false, true}, Case{OpKind::kRelu6, false, true},
                       Case{OpKind::kSigmoid, false, false},
                       Case{OpKind::kLeakyRelu, false, false},
                       Case{OpKind::kRelu, true, false}}) {
    Graph g("t");
    const NodeId x = g.add_input("x", Shape{1, 2, 4, 4});
    const NodeId y = g.add(OpKind::kIdentity, "y", {x});
    const NodeId sum = g.add(OpKind::kAdd, "residual", {x, y});
    g.add(c.act, "act", {sum});
    if (c.second_consumer) g.add(OpKind::kIdentity, "tap", {sum});
    const std::string what = std::string(op_name(c.act)) + (c.second_consumer ? " shared" : "");

    const PassResult r = FuseActivationPass().run(g);
    EXPECT_EQ(r.nodes_changed, c.fuses ? 1 : 0) << what;
    EXPECT_EQ(g.node(sum).attrs.get_str_or("fused_act", ""),
              c.fuses ? std::string(op_name(c.act)) : "")
        << what;
    EXPECT_EQ(g.size(), c.fuses ? 3u : (c.second_consumer ? 5u : 4u)) << what;
  }
}

TEST(Fusion, LeakyAlphaCarriedThrough) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 1, 2, 2});
  AttrMap a;
  a.set_int("out_channels", 1);
  a.set_int("kernel", 1);
  a.set_int("stride", 1);
  a.set_int("pad", 0);
  a.set_int("groups", 1);
  a.set_int("bias", 0);
  const NodeId c = g.add(OpKind::kConv2d, "conv", {in}, a);
  AttrMap la;
  la.set_float("alpha", 0.2);
  g.add(OpKind::kLeakyRelu, "leaky", {c}, la);
  g.node(c).weights = {Tensor(Shape{1, 1, 1, 1}, {1.0f})};

  FuseActivationPass pass;
  pass.run(g);
  const Tensor out = runtime::Session(g).run_single(Tensor(Shape{1, 1, 2, 2}, {-1, 1, -2, 2}));
  EXPECT_FLOAT_EQ(out.at(0), -0.2f);
  EXPECT_FLOAT_EQ(out.at(2), -0.4f);
}

TEST(PassManager, RunsInOrderAndValidates) {
  Graph g = materialized_micro_cnn();
  PassManager pm;
  pm.add(std::make_unique<FuseBatchNormPass>());
  pm.add(std::make_unique<FuseActivationPass>());
  pm.add(std::make_unique<EliminateIdentityPass>());
  const auto results = pm.run(g);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].pass_name, "fuse-batchnorm");
  EXPECT_EQ(results[2].pass_name, "eliminate-identity");
}

TEST(Prune, AchievesRequestedSparsity) {
  Graph g = materialized_micro_cnn();
  MagnitudePrunePass pass(0.7);
  pass.run(g);
  EXPECT_NEAR(graph_sparsity(g), 0.7, 0.05);
}

TEST(Prune, InvalidSparsityRejected) {
  EXPECT_THROW(MagnitudePrunePass(1.0), Error);
  EXPECT_THROW(MagnitudePrunePass(-0.1), Error);
}

TEST(Prune, KeepsLargestWeights) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4});
  AttrMap a;
  a.set_int("units", 1);
  a.set_int("bias", 0);
  const NodeId fc = g.add(OpKind::kDense, "fc", {in}, a);
  g.node(fc).weights = {Tensor(Shape{1, 4}, {0.1f, -5.0f, 0.2f, 3.0f})};
  MagnitudePrunePass pass(0.5);
  pass.run(g);
  const auto& w = g.node(fc).weights[0];
  EXPECT_EQ(w.at(0), 0.0f);
  EXPECT_EQ(w.at(1), -5.0f);
  EXPECT_EQ(w.at(2), 0.0f);
  EXPECT_EQ(w.at(3), 3.0f);
}

TEST(Prune, ChannelPruneReducesEffectiveMacs) {
  Graph g = materialized_micro_cnn();
  const auto before = effective_macs(g);
  ChannelPrunePass pass(0.5);
  pass.run(g);
  const auto after = effective_macs(g);
  EXPECT_LT(after, before * 3 / 4);
  EXPECT_GT(after, 0);
}

TEST(Prune, ChannelPruneSparesOutputHeads) {
  Graph g = materialized_micro_cnn();
  ChannelPrunePass pass(0.5);
  pass.run(g);
  const Node& head = g.node(g.find("logits"));
  EXPECT_EQ(head.attrs.get_int_or("pruned_out_channels", 0), 0);
}

TEST(Huffman, RoundTripSkewedDistribution) {
  std::map<std::uint32_t, std::uint64_t> freqs{{0, 1000}, {1, 200}, {2, 50}, {3, 5}};
  HuffmanCoder coder(freqs);
  std::vector<std::uint32_t> symbols;
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) symbols.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
  std::size_t bits = 0;
  const auto bytes = coder.encode(symbols, &bits);
  const auto decoded = coder.decode(bytes, symbols.size());
  EXPECT_EQ(decoded, symbols);
  EXPECT_LE(bits, symbols.size() * 3);
}

TEST(Huffman, SkewGivesShorterCodes) {
  std::map<std::uint32_t, std::uint64_t> freqs{{0, 10000}, {1, 1}, {2, 1}, {3, 1}};
  HuffmanCoder coder(freqs);
  EXPECT_EQ(coder.table().at(0).length, 1);
  EXPECT_LT(coder.encoded_bits(freqs), 2 * (10000 + 3));
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::map<std::uint32_t, std::uint64_t> freqs{{7, 100}};
  HuffmanCoder coder(freqs);
  const std::vector<std::uint32_t> symbols(10, 7);
  const auto bytes = coder.encode(symbols);
  EXPECT_EQ(coder.decode(bytes, 10), symbols);
}

TEST(Huffman, UnknownSymbolThrows) {
  HuffmanCoder coder({{0, 1}, {1, 1}});
  EXPECT_THROW((void)coder.encode({5}), NotFound);
}

TEST(Huffman, KraftInequalityHolds) {
  std::map<std::uint32_t, std::uint64_t> freqs;
  Rng rng(3);
  for (std::uint32_t s = 0; s < 40; ++s) {
    freqs[s] = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  }
  HuffmanCoder coder(freqs);
  double kraft = 0;
  for (const auto& [sym, code] : coder.table()) kraft += std::pow(2.0, -code.length);
  EXPECT_LE(kraft, 1.0 + 1e-9);
}

class HuffmanAlphabetSweep : public ::testing::TestWithParam<int> {};

TEST_P(HuffmanAlphabetSweep, LosslessRoundTrip) {
  const int alphabet = GetParam();
  Rng rng(static_cast<std::uint64_t>(alphabet));
  std::vector<std::uint32_t> symbols;
  std::map<std::uint32_t, std::uint64_t> freqs;
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<std::uint32_t>(rng.uniform_int(0, alphabet - 1));
    symbols.push_back(s);
    ++freqs[s];
  }
  HuffmanCoder coder(freqs);
  EXPECT_EQ(coder.decode(coder.encode(symbols), symbols.size()), symbols);
}

INSTANTIATE_TEST_SUITE_P(Alphabets, HuffmanAlphabetSweep, ::testing::Values(2, 3, 5, 16, 33, 256));

TEST(Cluster, CodebookBoundsDistinctValues) {
  Rng rng(5);
  Tensor w(Shape{8, 4, 3, 3}, rng.normal_vector(8 * 4 * 9));
  cluster_weights(w, 4);
  std::set<float> distinct;
  for (float v : w.data()) {
    if (v != 0.0f) distinct.insert(v);
  }
  EXPECT_LE(distinct.size(), 16u);
}

TEST(Cluster, PreservesZeros) {
  Tensor w(Shape{1, 1, 2, 2}, {0.0f, 1.0f, 0.0f, -1.0f});
  cluster_weights(w, 2);
  EXPECT_EQ(w.at(0), 0.0f);
  EXPECT_EQ(w.at(2), 0.0f);
}

TEST(Cluster, ReducesQuantizationErrorVsSingleCentroid) {
  Rng rng(7);
  Tensor w(Shape{16, 8, 3, 3}, rng.normal_vector(16 * 8 * 9));
  Tensor w8 = w, w1 = w;
  cluster_weights(w8, 8);
  cluster_weights(w1, 1);
  EXPECT_LT(rmse(w8, w), rmse(w1, w));
}

TEST(DeepCompress, AchievesLargeRatioOnDenseHeavyNet) {
  // Deep Compression's 49x was on LeNet/AlexNet-class nets dominated by
  // dense layers; reproduce that regime with an MLP.
  Graph g = zoo::micro_mlp("lenet-ish", 1, 784, {300, 100}, 10);
  Rng rng(11);
  g.materialize_weights(rng);
  const auto report = deep_compress(g);
  EXPECT_GT(report.ratio(), 25.0);
  EXPECT_LT(report.ratio(), 120.0);
  EXPECT_GT(report.after_prune_bits, report.compressed_bits);  // coding helps further
}

TEST(DeepCompress, ConvNetsCompressLess) {
  Graph mlp = zoo::micro_mlp("mlp", 1, 784, {300, 100}, 10);
  Graph cnn = zoo::micro_cnn("cnn", 1, 1, 28, 10);
  Rng rng(13);
  mlp.materialize_weights(rng);
  cnn.materialize_weights(rng);
  const auto rm = deep_compress(mlp);
  const auto rc = deep_compress(cnn);
  EXPECT_GT(rm.ratio(), rc.ratio());
  EXPECT_GT(rc.ratio(), 4.0);
}

TEST(DeepCompress, PerLayerAccountingConsistent) {
  Graph g = zoo::micro_mlp("m", 1, 64, {32}, 4);
  Rng rng(17);
  g.materialize_weights(rng);
  const auto report = deep_compress(g);
  double total = 0;
  for (const auto& l : report.layers) {
    total += l.compressed_bits();
    EXPECT_GE(l.nonzeros, 0);
    EXPECT_LE(l.nonzeros, l.params);
    EXPECT_GT(l.ratio(), 1.0) << l.layer;
  }
  EXPECT_DOUBLE_EQ(total, report.compressed_bits);
}

TEST(DeepCompress, RequiresMaterializedWeights) {
  Graph g = zoo::micro_mlp("m", 1, 8, {4}, 2);
  EXPECT_THROW((void)deep_compress(g), Error);
}

TEST(QuantizePass, Int8ErrorSmallOnModelOutputs) {
  Graph g = materialized_micro_cnn();
  const Tensor input = test_image();
  const Tensor before = runtime::Session(g).run_single(input);

  QuantizeWeightsPass pass(DType::kINT8);
  const auto r = pass.run(g);
  EXPECT_GT(r.nodes_changed, 0);

  const Tensor after = runtime::Session(g).run_single(input);
  EXPECT_LT(max_abs_diff(before, after), 0.05f);
}

TEST(QuantizePass, Int4WorseThanInt8) {
  const Tensor input = test_image();
  Graph g8 = materialized_micro_cnn();
  Graph g4 = materialized_micro_cnn();
  const Tensor ref = runtime::Session(materialized_micro_cnn()).run_single(input);
  QuantizeWeightsPass(DType::kINT8).run(g8);
  QuantizeWeightsPass(DType::kINT4).run(g4);
  const auto e8 = rmse(runtime::Session(g8).run_single(input), ref);
  const auto e4 = rmse(runtime::Session(g4).run_single(input), ref);
  EXPECT_LT(e8, e4);
}

TEST(QuantizePass, TagsWeightDtype) {
  Graph g = materialized_micro_cnn();
  QuantizeWeightsPass(DType::kINT8).run(g);
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::kConv2d || n.kind == OpKind::kDense) {
      EXPECT_EQ(n.weight_dtype, DType::kINT8);
    }
  }
}

TEST(QuantizePass, RejectsFloatTarget) {
  EXPECT_THROW(QuantizeWeightsPass(DType::kFP16), Error);
}

TEST(Fp16Pass, NegligibleOutputChange) {
  Graph g = materialized_micro_cnn();
  const Tensor input = test_image();
  const Tensor before = runtime::Session(g).run_single(input);
  Fp16CastPass pass;
  pass.run(g);
  const Tensor after = runtime::Session(g).run_single(input);
  EXPECT_LT(max_abs_diff(before, after), 1e-2f);
}

TEST(Calibration, RecordsActScalesOnAllNodes) {
  Graph g = materialized_micro_cnn();
  std::vector<Tensor> samples;
  for (int i = 0; i < 4; ++i) samples.push_back(test_image(static_cast<std::uint64_t>(100 + i)));
  const auto ranges = calibrate_activations(g, samples);
  EXPECT_EQ(ranges.size(), g.size());
  for (NodeId id : g.topo_order()) {
    EXPECT_TRUE(g.node(id).attrs.has("act_scale")) << g.node(id).name;
  }
}

TEST(Calibration, SoftmaxScaleIsSmall) {
  Graph g = materialized_micro_cnn();
  std::vector<Tensor> samples{test_image()};
  const auto ranges = calibrate_activations(g, samples);
  EXPECT_LE(ranges.at("prob").scale, 1.0 / 127.0 + 1e-9);
}

TEST(Calibration, EmptySamplesRejected) {
  Graph g = materialized_micro_cnn();
  EXPECT_THROW((void)calibrate_activations(g, {}), Error);
}

}  // namespace
}  // namespace vedliot::opt
// appended: common-subexpression elimination
namespace vedliot::opt {
namespace {

TEST(Cse, MergesIdenticalBranches) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4, 8, 8});
  AttrMap p;
  p.set_int("kernel", 2);
  p.set_int("stride", 2);
  p.set_int("pad", 0);
  const NodeId a = g.add(OpKind::kMaxPool, "pool_a", {in}, p);
  AttrMap p2 = p;
  const NodeId b = g.add(OpKind::kMaxPool, "pool_b", {in}, p2);  // duplicate
  const NodeId ra = g.add(OpKind::kRelu, "ra", {a});
  const NodeId rb = g.add(OpKind::kSigmoid, "rb", {b});
  g.add(OpKind::kAdd, "sum", {ra, rb});

  CsePass pass;
  const auto r = pass.run(g);
  EXPECT_EQ(r.nodes_changed, 1);
  EXPECT_TRUE(g.node(b).dead);
  EXPECT_EQ(g.node(rb).inputs.front(), a);
  g.validate();
}

TEST(Cse, PreservesExecutorOutputs) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 4, 4});
  const NodeId r1 = g.add(OpKind::kRelu, "r1", {in});
  const NodeId r2 = g.add(OpKind::kRelu, "r2", {in});  // duplicate of r1
  g.add(OpKind::kAdd, "sum", {r1, r2});
  Rng rng(1);
  g.materialize_weights(rng);
  Rng data(2);
  Tensor x(Shape{1, 2, 4, 4}, data.normal_vector(32));
  const Tensor before = runtime::Session(g).run_single(x);
  CsePass pass;
  pass.run(g);
  const Tensor after = runtime::Session(g).run_single(x);
  EXPECT_FLOAT_EQ(max_abs_diff(before, after), 0.0f);
  EXPECT_EQ(g.size(), 3u);  // input, one relu, add
}

TEST(Cse, DifferentAttrsNotMerged) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4, 8, 8});
  AttrMap k2;
  k2.set_int("kernel", 2);
  k2.set_int("stride", 2);
  k2.set_int("pad", 0);
  AttrMap k4;
  k4.set_int("kernel", 4);
  k4.set_int("stride", 4);
  k4.set_int("pad", 0);
  const NodeId a = g.add(OpKind::kMaxPool, "a", {in}, k2);
  const NodeId b = g.add(OpKind::kMaxPool, "b", {in}, k4);
  g.add(OpKind::kGlobalAvgPool, "ga", {a});
  g.add(OpKind::kGlobalAvgPool, "gb", {b});
  CsePass pass;
  EXPECT_EQ(pass.run(g).nodes_changed, 0);
}

TEST(Cse, ParametricNodesNeverMerged) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4});
  AttrMap fc;
  fc.set_int("units", 4);
  fc.set_int("bias", 0);
  const NodeId a = g.add(OpKind::kDense, "a", {in}, fc);
  AttrMap fc2 = fc;
  const NodeId b = g.add(OpKind::kDense, "b", {in}, fc2);
  g.add(OpKind::kAdd, "sum", {a, b});
  CsePass pass;
  EXPECT_EQ(pass.run(g).nodes_changed, 0);  // distinct weights
}

TEST(Cse, GraphOutputsNeverFolded) {
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 4, 4, 4});
  g.add(OpKind::kRelu, "out_a", {in});
  g.add(OpKind::kRelu, "out_b", {in});  // duplicate but both are outputs
  CsePass pass;
  EXPECT_EQ(pass.run(g).nodes_changed, 0);
  EXPECT_EQ(g.outputs().size(), 2u);
}

TEST(Cse, CascadingMergesThroughChains) {
  // relu->sigmoid chains duplicated: merging the relus makes the sigmoids
  // identical too; a single pass folds both levels (topo order processing).
  Graph g("t");
  const NodeId in = g.add_input("x", Shape{1, 2, 4, 4});
  const NodeId r1 = g.add(OpKind::kRelu, "r1", {in});
  const NodeId r2 = g.add(OpKind::kRelu, "r2", {in});
  const NodeId s1 = g.add(OpKind::kSigmoid, "s1", {r1});
  const NodeId s2 = g.add(OpKind::kSigmoid, "s2", {r2});
  g.add(OpKind::kAdd, "sum", {s1, s2});
  CsePass pass;
  const auto r = pass.run(g);
  EXPECT_EQ(r.nodes_changed, 2);
  EXPECT_EQ(g.size(), 4u);
}

}  // namespace
}  // namespace vedliot::opt
