#pragma once
/// \file qexecutor.hpp
/// \brief The integer-domain view of the one engine (executor.hpp).
///
/// QuantizedExecutor is an Executor compiled for DType::kINT8 whose
/// run_single returns the graph output as raw int8 values and scale instead
/// of dequantized floats — the introspection (QTensor scales, saturation
/// accounting, requantization count) runtime::Session does not expose.
/// Application code runs int8 through runtime::make_quantized_session.

#include "runtime/executor.hpp"

namespace vedliot {

class QuantizedExecutor : public Executor {
 public:
  explicit QuantizedExecutor(const Graph& graph) : Executor(graph, DType::kINT8) {}

  /// Run a single-input single-output graph on a float input (quantized at
  /// the input node's calibrated scale); returns the quantized output.
  QTensor run_single(const Tensor& input) {
    const auto ins = graph().inputs();
    const auto outs = graph().outputs();
    VEDLIOT_CHECK(ins.size() == 1, "run_single requires exactly one graph input");
    VEDLIOT_CHECK(outs.size() == 1, "run_single requires exactly one graph output");
    execute({{graph().node(ins.front()).name, input}});
    return quantized(outs.front());
  }
};

}  // namespace vedliot
