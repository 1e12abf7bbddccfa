// Quickstart: the complete VEDLIoT design flow (Fig. 1) in one program.
//
//   1. Pick a model from the zoo (MobileNetV3-Large).
//   2. Run the optimizing toolchain (fusion + INT8 quantization).
//   3. Let the design flow select an accelerator on a uRECS node that
//      meets the latency / power / rate budgets.
//   4. Print the full report, including every rejected candidate and why.
//   5. Serve one frame through a traced runtime::Session and (optionally)
//      write the Chrome trace:  ./build/examples/quickstart trace.json
//
// Build & run:  ./build/examples/quickstart [trace.json]

#include <cstdio>
#include <iostream>

#include "core/designflow.hpp"
#include "graph/cost.hpp"
#include "graph/zoo.hpp"
#include "obs/export.hpp"
#include "runtime/session.hpp"
#include "util/rng.hpp"

using namespace vedliot;

int main(int argc, char** argv) {
  std::printf("VEDLIoT quickstart: deploy MobileNetV3-Large to a uRECS edge node\n\n");

  // 1. Model.
  Graph model = zoo::mobilenet_v3_large();
  const auto cost = graph_cost(model);
  std::printf("model: %s — %.1f M params, %.0f MMACs per inference\n", model.name().c_str(),
              static_cast<double>(cost.params) / 1e6, static_cast<double>(cost.macs) / 1e6);

  // Materialize weights so the quantization pass has something to quantize
  // (deterministic seed: every run of this example is identical).
  Rng rng(1);
  model.materialize_weights(rng);

  // 2 + 3. Application requirements -> one design-flow call.
  core::DesignSpec spec;
  spec.application = "quickstart-classifier";
  spec.latency_budget_s = 0.050;  // 50 ms per frame
  spec.rate_hz = 10.0;            // sustained 10 fps
  spec.power_budget_w = 15.0;     // the uRECS envelope
  spec.platform = "uRECS";
  spec.quantize_int8 = true;
  spec.require_attestation = true;
  spec.enable_robustness_monitor = true;

  try {
    const core::FlowReport report = core::run_design_flow(model, spec);
    // 4. Everything the flow decided, as Markdown.
    std::cout << report.to_markdown() << "\n";
    std::printf("==> deploy to %s (%s): %.1f ms/inference, %.2f W duty-cycled\n",
                report.selected_module.c_str(), report.selected_device.c_str(),
                report.estimate.latency_s * 1e3, report.duty_cycled_power_w);
  } catch (const core::DesignFlowError& e) {
    std::printf("design flow failed: %s\n", e.what());
    return 1;
  }

  // 5. Observability: serve one frame through a traced Session. A smaller
  // classifier keeps the reference interpreter quick here; the span/metric
  // taxonomy is identical for any zoo model.
  Graph served = zoo::micro_cnn("quickstart-served", 1, 1, 24, 6);
  served.materialize_weights(rng);
  const Shape in_shape{1, 1, 24, 24};
  Rng data_rng(3);
  Tensor frame(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  runtime::RunOptions run_opts;
  run_opts.trace = &tracer;
  run_opts.metrics = &metrics;
  auto session = runtime::make_session(served, run_opts);
  (void)session->run({{served.node(served.inputs().front()).name, frame}});

  std::printf("\ntraced serve on %s (%s backend): %zu nodes -> %zu spans\n",
              served.name().c_str(), session->backend().c_str(), session->nodes_executed(),
              tracer.spans().size());
  std::printf("%s\n", obs::metrics_table(metrics).c_str());
  if (argc > 1) {
    obs::write_chrome_trace(argv[1], tracer.spans());
    std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n", argv[1]);
  }
  return 0;
}
