#include "runtime/session.hpp"

#include "runtime/executor.hpp"

namespace vedliot::runtime {

namespace {

void check_batch(const std::map<std::string, Tensor>& feeds, std::int64_t max_batch) {
  if (max_batch <= 0) return;
  for (const auto& [name, t] : feeds) {
    if (t.shape().rank() >= 1 && t.shape().dim(0) > max_batch) {
      throw ExecError("feed '" + name + "' batch " + std::to_string(t.shape().dim(0)) +
                      " exceeds session max_batch " + std::to_string(max_batch));
    }
  }
}

/// The one session: the engine compiled for the session's dtype.
class EngineSession final : public Session {
 public:
  EngineSession(const Graph& graph, const RunOptions& options, DType dtype)
      : exec_(graph, dtype) {
    exec_.instrument(options.trace, options.metrics);
    exec_.set_keep_activations(false);
    set_exec_config(options.exec);
  }

  RunResult run(const std::map<std::string, Tensor>& feeds) override {
    check_batch(feeds, exec_config_.max_batch);
    RunResult result;
    result.outputs = exec_.run(feeds);
    result.nodes_executed = exec_.nodes_executed();
    result.saturations = exec_.saturations();
    return result;
  }

  const Graph& graph() const override { return exec_.graph(); }
  std::string backend() const override {
    return exec_.dtype() == DType::kINT8 ? "int8" : "float-reference";
  }
  void set_exec_config(const ExecConfig& exec) override {
    exec_config_ = exec;
    exec_.set_threads(exec.threads);
    exec_.set_simd(exec.simd);
  }
  const ExecConfig& exec_config() const override { return exec_config_; }

 private:
  Executor exec_;
  ExecConfig exec_config_;
};

}  // namespace

const Tensor& RunResult::single() const {
  VEDLIOT_CHECK(outputs.size() == 1, "RunResult::single requires exactly one output");
  return outputs.begin()->second;
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

void Session::set_max_batch(std::int64_t max_batch) {
  ExecConfig exec = exec_config();
  exec.max_batch = max_batch;
  set_exec_config(exec);
}

std::unique_ptr<Session> make_session(const Graph& graph, const RunOptions& options) {
  return std::make_unique<EngineSession>(graph, options, DType::kFP32);
}

std::unique_ptr<Session> make_quantized_session(const Graph& graph,
                                                const RunOptions& options) {
  return std::make_unique<EngineSession>(graph, options, DType::kINT8);
}

}  // namespace vedliot::runtime
