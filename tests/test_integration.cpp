// Cross-module integration tests: the scenarios the paper's architecture
// diagram (Fig. 1) implies — optimize a model, deploy it, monitor it,
// attest the node, and run firmware on the simulated SoC, all in one story.

#include <gtest/gtest.h>

#include <memory>

#include "analysis/wasm_verifier.hpp"
#include "core/designflow.hpp"
#include "graph/cost.hpp"
#include "graph/serialize.hpp"
#include "graph/zoo.hpp"
#include "hw/accel.hpp"
#include "kenning/flow.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "safety/monitors.hpp"
#include "safety/robustness.hpp"
#include "security/attestation.hpp"
#include "security/enclave.hpp"
#include "security/kvstore.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace vedliot {
namespace {

TEST(Integration, OptimizeDeployMonitorPipeline) {
  // 1. Build + materialize the gesture model.
  Graph g = zoo::micro_cnn("gesture-mini", 1, 1, 16, 5);
  Rng rng(1);
  g.materialize_weights(rng);

  // 2. The robustness service takes its golden copy BEFORE optimization.
  safety::RobustnessService service(g, {1, 0.05});

  // 3. Optimize via the Kenning flow and deploy to host + simulated target.
  kenning::Flow flow(kenning::ModelWrapper("gesture-mini", g.clone()));
  flow.optimize(std::make_unique<opt::FuseBatchNormPass>())
      .optimize(std::make_unique<opt::FuseActivationPass>())
      .optimize(std::make_unique<opt::QuantizeWeightsPass>(DType::kINT8));
  flow.deploy_to(std::make_unique<kenning::HostRuntime>());

  std::vector<kenning::Sample> dataset;
  for (int i = 0; i < 8; ++i) {
    Rng data_rng(static_cast<std::uint64_t>(100 + i));
    kenning::Sample s;
    s.input = Tensor(Shape{1, 1, 16, 16}, data_rng.normal_vector(256));
    s.label = 0;
    dataset.push_back(std::move(s));
  }
  const auto reports = flow.run(dataset);
  ASSERT_EQ(reports.size(), 1u);

  // 4. The optimized deployment still passes the robustness service: fused
  // BN + INT8 weights stay within the service tolerance on softmax outputs.
  runtime::Session optimized(flow.model().graph());
  std::size_t faults = 0;
  for (const auto& s : dataset) {
    if (service.submit(s.input, optimized.run_single(s.input)) ==
        safety::CheckResult::kCheckedFaulty) {
      ++faults;
    }
  }
  EXPECT_EQ(faults, 0u);
}

TEST(Integration, SerializeShipAndReEstimate) {
  // Export the model, "ship" it to another node, re-import and verify the
  // hardware estimate is identical — the toolchain interchange guarantee.
  Graph g = zoo::mobilenet_v3_large();
  const std::string wire = to_text(g);
  Graph shipped = from_text(wire);
  const auto& dev = hw::find_device("XavierNX");
  const auto a = hw::estimate(dev, g, DType::kINT8);
  const auto b = hw::estimate(dev, shipped, DType::kINT8);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(Integration, AttestedEnclaveRunsSecureInference) {
  // A KV workload inside the enclave, attested end-to-end: static bytecode
  // verification produces the admission ticket the enclave demands, a device
  // quote covers the enclave measurement, the authority verifies it, and
  // attest_and_admit combines both before the results are trusted.
  security::Key root{};
  root[7] = 0xAB;
  security::AttestationAuthority authority(root);

  const auto module = security::build_kv_module(64);
  const auto verdict = analysis::verify_module(module);
  ASSERT_TRUE(verdict.ok()) << verdict.report.to_table();
  const auto admission = analysis::make_admission(module, verdict);

  security::Enclave enclave(security::EnclaveConfig{}, module, root, admission);
  security::DeviceAgent device("edge-node-3", authority.provision("edge-node-3"));

  const auto quote = device.quote(enclave.measurement(), 424242);
  ASSERT_TRUE(authority.verify(quote, 424242));
  ASSERT_TRUE(security::attest_and_admit(authority, quote, 424242, admission));

  EXPECT_EQ(enclave.ecall("kv_put", {7, 1000}), 1);
  EXPECT_EQ(enclave.ecall("kv_get", {7}), 1000);
  EXPECT_GT(enclave.ledger().ecalls, 0u);
}

TEST(Integration, DesignFlowOutputMatchesAccelerators) {
  // The design flow's selected estimate must agree with directly asking the
  // off-the-shelf accelerator wrapper for the same device.
  Graph g = zoo::speech_net();
  core::DesignSpec spec;
  spec.application = "kws";
  spec.latency_budget_s = 0.02;
  spec.power_budget_w = 15.0;
  spec.rate_hz = 20.0;
  const auto report = core::run_design_flow(g, spec);

  hw::OffTheShelfAccelerator acc(hw::find_device(report.selected_device));
  const auto direct = acc.estimate_graph(g, report.estimate.dtype);
  EXPECT_DOUBLE_EQ(direct.latency_s, report.estimate.latency_s);
}

TEST(Integration, SimulatedFirmwareComputesSameDotProductAsExecutor) {
  // The Renode-analogue promise: the "same software" path. Compute a dot
  // product three ways — executor Dense, native loop, simulated RV32IM with
  // the MAC CFU — and require identical integer results.
  const std::vector<std::int32_t> x{3, -1, 4, 1, -5, 9, 2, -6};
  const std::vector<std::int32_t> w{2, 7, 1, -8, 2, 8, -1, 8};

  // (a) executor: 1x8 dense with bias 0
  Graph g("dot");
  const NodeId in = g.add_input("x", Shape{1, 8});
  AttrMap attrs;
  attrs.set_int("units", 1);
  attrs.set_int("bias", 0);
  const NodeId fc = g.add(OpKind::kDense, "fc", {in}, attrs);
  std::vector<float> wf(w.begin(), w.end());
  g.node(fc).weights = {Tensor(Shape{1, 8}, wf)};
  std::vector<float> xf(x.begin(), x.end());
  runtime::Session exec(g);
  const auto y = exec.run({{"x", Tensor(Shape{1, 8}, xf)}}).outputs;
  const auto exec_result = static_cast<std::int32_t>(y.begin()->second.at(0));

  // (b) native
  std::int32_t native = 0;
  for (std::size_t i = 0; i < x.size(); ++i) native += x[i] * w[i];

  // (c) simulated SoC with CFU
  sim::Machine m;
  m.attach_cfu(std::make_shared<sim::MacCfu>());
  sim::Assembler a(sim::kRamBase);
  const std::uint32_t data = sim::kRamBase + 0x2000;
  a.li(sim::t0, static_cast<std::int32_t>(data));
  for (std::size_t i = 0; i < x.size(); ++i) {
    a.li(sim::t1, x[i]);
    a.sw(sim::t1, sim::t0, static_cast<std::int32_t>(4 * i));
    a.li(sim::t1, w[i]);
    a.sw(sim::t1, sim::t0, static_cast<std::int32_t>(32 + 4 * i));
  }
  a.cfu(1, 0, sim::a0, sim::x0, sim::x0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    a.lw(sim::a1, sim::t0, static_cast<std::int32_t>(4 * i));
    a.lw(sim::a2, sim::t0, static_cast<std::int32_t>(32 + 4 * i));
    a.cfu(0, 0, sim::a0, sim::a1, sim::a2);
  }
  a.cfu(2, 0, sim::a0, sim::x0, sim::x0);
  a.ecall();
  m.load_program(a);
  ASSERT_EQ(m.run(), sim::HaltReason::kEcall);
  const auto sim_result = static_cast<std::int32_t>(m.cpu().reg(sim::a0));

  EXPECT_EQ(native, exec_result);
  EXPECT_EQ(native, sim_result);
}

TEST(Integration, ImageMonitorGatesExecutorInput) {
  // Input monitoring in front of the model: the noisy frame is dropped
  // before inference, the clean frame passes through.
  Graph g = zoo::micro_cnn("m", 1, 1, 24, 4);
  Rng rng(3);
  g.materialize_weights(rng);
  runtime::Session exec(g);
  safety::ImageMonitor monitor;

  Rng data_rng(4);
  Tensor clean(Shape{1, 1, 24, 24});
  for (float& v : clean.data()) v = static_cast<float>(0.5 + data_rng.normal(0.0, 0.02));
  Tensor noisy(Shape{1, 1, 24, 24});
  for (float& v : noisy.data()) v = static_cast<float>(0.5 + data_rng.normal(0.0, 0.6));

  std::size_t inferences = 0;
  for (const Tensor* frame : {&clean, &noisy}) {
    const auto verdict = monitor.check(*frame);
    if (safety::correction_for(verdict) != safety::CorrectionAction::kDrop) {
      (void)exec.run_single(*frame);
      ++inferences;
    }
  }
  EXPECT_EQ(inferences, 1u);
}

TEST(Integration, CoDesignFeedbackLoopRaisesUtilizationAtEqualLatency) {
  // Full co-design loop (Sec. II-B class 4): search, apply the channel-
  // rounding feedback to the model, search again. The rounded model tiles
  // the PE array (near-)perfectly, so the extra channels come at little
  // latency cost — the hardware's cycles now do useful work (wider layers)
  // instead of idling on ragged tiles.
  // A deliberately misaligned net (17-channel width): the kind of model the
  // co-design loop sends feedback about.
  Graph g = zoo::micro_cnn("odd-width", 1, 3, 32, 10, 17);
  hw::FabricBudget budget;
  budget.max_macs = 512;
  const auto before = hw::codesign_search(g, budget);
  ASSERT_FALSE(before.empty());
  Graph rounded = hw::apply_channel_rounding(g, 16);
  const auto after = hw::codesign_search(rounded, budget);
  ASSERT_FALSE(after.empty());

  auto best_point = [](const std::vector<hw::DesignPoint>& pts) {
    const hw::DesignPoint* best = &pts.front();
    for (const auto& p : pts) {
      if (p.latency_s < best->latency_s) best = &p;
    }
    return *best;
  };
  const auto b = best_point(before);
  const auto a = best_point(after);
  // On the hardware geometry the first search chose, the rounded model
  // must tile strictly better — that is the feedback's purpose.
  EXPECT_GT(hw::array_tiling_efficiency(rounded, b.pe_rows, b.pe_cols),
            hw::array_tiling_efficiency(g, b.pe_rows, b.pe_cols));
  // And the re-run search must not pay more latency than the MAC growth
  // the wider channels added.
  const double mac_growth = static_cast<double>(graph_cost(rounded).macs) /
                            static_cast<double>(graph_cost(g).macs);
  EXPECT_LE(a.latency_s, b.latency_s * mac_growth * 1.05);
}

}  // namespace
}  // namespace vedliot
// appended: model packaging + attestation + distributed-planning integration
#include "graph/package.hpp"
#include "platform/distributed.hpp"

namespace vedliot {
namespace {

TEST(Integration, ModelVersionAttestation) {
  // Field update story: the authority seals a model to a device; the device
  // later attests WHICH model it runs by quoting the package measurement.
  security::Key root{};
  root[9] = 0x3C;
  security::AttestationAuthority authority(root);
  const auto device_key = authority.provision("cabinet-7");

  Graph model = zoo::arc_net();
  Rng rng(4);
  model.materialize_weights(rng);
  const SealedModel bundle = seal_model(model, device_key, /*version=*/5);

  // Device side: unseal, then quote the model measurement.
  Graph deployed = unseal_model(bundle, device_key);
  security::DeviceAgent agent("cabinet-7", device_key);
  const auto quote = agent.quote(bundle.model_measurement, 777);

  // Verifier: the quote must verify AND match the expected model version.
  EXPECT_TRUE(authority.verify(quote, 777));
  EXPECT_TRUE(security::digest_equal(quote.measurement,
                                     security::sha256(pack_model(deployed))));

  // A stale model (different weights) would fail the version check.
  Graph stale = zoo::arc_net();
  Rng rng2(5);
  stale.materialize_weights(rng2);
  EXPECT_FALSE(security::digest_equal(quote.measurement,
                                      security::sha256(pack_model(stale))));
}

TEST(Integration, PackagedModelPlansIdentically) {
  // Shipping a model as a package must not change any platform decision.
  Graph g = zoo::pedestrian_net();
  Graph shipped = unpack_model(pack_model(g));

  platform::Chassis chassis(platform::recs_box());
  chassis.install("come0", platform::find_module("COMe-XavierAGX"));
  chassis.install("come1", platform::find_module("COMe-XavierAGX"));
  platform::Fabric fabric =
      platform::star_fabric({"come0", "come1"}, 10.0, {1.0, 10.0});
  const std::vector<std::string> slots{"come0", "come1"};

  const auto a = platform::plan_distributed_inference(g, chassis, fabric, slots, 2, DType::kINT8);
  const auto b =
      platform::plan_distributed_inference(shipped, chassis, fabric, slots, 2, DType::kINT8);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
  EXPECT_DOUBLE_EQ(a.pipeline_interval_s, b.pipeline_interval_s);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].first, b.stages[i].first);
    EXPECT_EQ(a.stages[i].last, b.stages[i].last);
  }
}

}  // namespace
}  // namespace vedliot
