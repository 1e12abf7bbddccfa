#include "runtime/session.hpp"

namespace vedliot::runtime {

const Tensor& RunResult::single() const {
  VEDLIOT_CHECK(outputs.size() == 1, "RunResult::single requires exactly one output");
  return outputs.begin()->second;
}

Session::Session(const Graph& graph, DType dtype, const RunOptions& options)
    : exec_(graph, dtype) {
  exec_.instrument(options.trace, options.metrics);
  exec_.set_exec_config(options.exec);
}

RunResult Session::run(const std::map<std::string, Tensor>& feeds) {
  RunResult result;
  result.outputs = exec_.run(feeds);
  result.nodes_executed = exec_.nodes_executed();
  result.saturations = exec_.saturations();
  return result;
}

Tensor Session::run_single(const Tensor& input) {
  const auto inputs = graph().inputs();
  VEDLIOT_CHECK(inputs.size() == 1, "run_single requires exactly one graph input");
  RunResult result = run({{graph().node(inputs.front()).name, input}});
  VEDLIOT_CHECK(result.outputs.size() == 1, "run_single requires exactly one graph output");
  return std::move(result.outputs.begin()->second);
}

std::vector<Tensor> Session::run_batch(std::span<const Tensor> inputs) {
  const auto graph_inputs = graph().inputs();
  VEDLIOT_CHECK(graph_inputs.size() == 1, "run_batch requires exactly one graph input");
  VEDLIOT_CHECK(!inputs.empty(), "run_batch needs at least one input");
  RunResult result = run({{graph().node(graph_inputs.front()).name, stack_batch(inputs)}});
  VEDLIOT_CHECK(result.outputs.size() == 1, "run_batch requires exactly one graph output");
  return split_batch(result.outputs.begin()->second);
}

std::string Session::backend() const {
  return exec_.dtype() == DType::kINT8 ? "int8" : "float-reference";
}

std::unique_ptr<Session> make_session(const Graph& graph, const RunOptions& options) {
  return std::make_unique<Session>(graph, DType::kFP32, options);
}

std::unique_ptr<Session> make_quantized_session(const Graph& graph,
                                                const RunOptions& options) {
  return std::make_unique<Session>(graph, DType::kINT8, options);
}

}  // namespace vedliot::runtime
