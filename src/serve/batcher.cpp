#include "serve/batcher.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vedliot::serve {

std::vector<std::int64_t> bucket_widths(std::int64_t max_batch) {
  std::vector<std::int64_t> widths;
  for (std::int64_t w = 1;; w *= 2) {
    widths.push_back(w);
    if (w >= max_batch) break;
  }
  return widths;
}

std::int64_t widest_bucket(std::span<const std::int64_t> widths, std::int64_t cap) {
  std::int64_t widest = 0;
  for (const std::int64_t w : widths) {
    if (cap > 0 && w > cap) break;
    widest = w;
  }
  return std::max<std::int64_t>(widest, 1);
}

DynamicBatcher::DynamicBatcher(const Graph& graph, Config config)
    : widths_(serve::bucket_widths(config.max_batch)) {
  VEDLIOT_CHECK(config.max_batch >= 1, "batcher max_batch must be >= 1");
  VEDLIOT_CHECK(graph.inputs().size() == 1 && graph.outputs().size() == 1,
                "the batcher needs a single-input single-output graph");
  graph_ = std::make_unique<Graph>(rebatched(graph, widths_.back()));
  session_ = config.quantized ? runtime::make_quantized_session(*graph_)
                              : runtime::make_session(*graph_);
  set_exec_config(config.exec);
}

void DynamicBatcher::set_exec_config(const runtime::ExecConfig& exec) {
  runtime::ExecConfig capped = exec;
  capped.max_batch = widest_bucket(widths_, exec.max_batch);
  session_->set_exec_config(capped);
}

std::vector<Tensor> DynamicBatcher::run(std::span<const Tensor> inputs) {
  std::vector<std::int64_t> widths;
  widths.reserve(inputs.size());
  for (const Tensor& t : inputs) widths.push_back(t.shape().dim(0));
  return split_batch(session_->run_single(stack_batch(inputs)), widths);
}

}  // namespace vedliot::serve
