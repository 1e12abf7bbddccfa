// Toolchain tour (Sec. III end to end): every stage of the optimizing
// toolchain on one small model, finishing with a sealed deployment bundle.
//
//   1. Build + "train" (materialize) a classifier.
//   2. Fold BatchNorm, fuse activations.
//   3. Prune (structured + unstructured) and measure the accuracy proxy.
//   4. Deep-compress for storage; report the ratio.
//   5. Calibrate activations, run the TRUE INTEGER int8 executor and
//      compare against the float reference.
//   6. Pack the model and seal it to a provisioned device key.
//
// Build & run:  ./build/examples/toolchain_tour

#include <cstdio>

#include "graph/cost.hpp"
#include "graph/package.hpp"
#include "graph/zoo.hpp"
#include "opt/compress.hpp"
#include "opt/fusion.hpp"
#include "opt/prune.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "security/attestation.hpp"
#include "util/rng.hpp"

using namespace vedliot;

int main() {
  std::printf("VEDLIoT toolchain tour\n======================\n\n");

  // 1. Model.
  Graph model = zoo::micro_cnn("edge-classifier", 1, 1, 24, 6);
  Rng rng(2022);
  model.materialize_weights(rng);
  const auto cost0 = graph_cost(model);
  std::printf("1. model: %lld params, %.1f MMACs, %zu nodes\n",
              static_cast<long long>(cost0.params), static_cast<double>(cost0.macs) / 1e6,
              model.size());

  Rng data_rng(7);
  const Shape in_shape{1, 1, 24, 24};
  Tensor probe(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));
  // The graph mutates between stages, so each measurement opens a fresh
  // session on its current state.
  const auto run_float = [](const Graph& g, const Tensor& x) {
    return runtime::make_session(g)->run_single(x);
  };
  const Tensor reference = run_float(model, probe);

  // 2. Fusion.
  opt::PassManager pm;
  pm.add(std::make_unique<opt::FuseBatchNormPass>());
  pm.add(std::make_unique<opt::FuseActivationPass>());
  for (const auto& r : pm.run(model)) std::printf("2. %s: %s\n", r.pass_name.c_str(), r.detail.c_str());
  std::printf("   nodes after fusion: %zu, output drift %.2e\n", model.size(),
              max_abs_diff(reference, run_float(model, probe)));

  // 3. Pruning.
  opt::MagnitudePrunePass prune(0.6);
  prune.run(model);
  std::printf("3. 60%% magnitude pruning -> sparsity %.1f%%, output drift %.3f\n",
              opt::graph_sparsity(model) * 100,
              max_abs_diff(reference, run_float(model, probe)));

  // 4. Storage compression (on a copy; deployment keeps dense weights).
  Graph storage = model.clone();
  const auto comp = opt::deep_compress(storage);
  std::printf("4. deep compression for storage: %.1fx (%.0f kb -> %.0f kb)\n", comp.ratio(),
              comp.original_bits / 8e3, comp.compressed_bits / 8e3);

  // 5. Integer deployment path.
  std::vector<Tensor> calib;
  for (int i = 0; i < 16; ++i) {
    calib.emplace_back(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));
  }
  opt::calibrate_activations(model, calib, Calibration::kMinMax);
  auto qsession = runtime::make_quantized_session(model);
  const runtime::RunResult qr =
      qsession->run({{model.node(model.inputs().front()).name, probe}});
  std::printf("5. int8 integer executor: output drift vs float %.3f (saturations: %llu)\n",
              max_abs_diff(run_float(model, probe), qr.single()),
              static_cast<unsigned long long>(qsession->saturations()));

  // 6. Deployment bundle.
  security::Key root{};
  root[0] = 0x42;
  security::AttestationAuthority authority(root);
  const auto device_key = authority.provision("factory-gateway-1");
  const SealedModel bundle = seal_model(model, device_key, /*version=*/3);
  std::printf("6. sealed deployment bundle: %zu bytes, measurement %s...\n",
              bundle.ciphertext.size(),
              security::to_hex(std::span<const std::uint8_t>(bundle.model_measurement.data(), 8))
                  .c_str());

  // The target device unseals and serves identical results.
  Graph deployed = unseal_model(bundle, device_key);
  const float diff = max_abs_diff(run_float(model, probe), run_float(deployed, probe));
  std::printf("   device-side unseal: outputs identical to shipped model: %s\n",
              diff == 0.0f ? "yes" : "NO");
  return 0;
}
