#pragma once
/// \file exec_single.hpp
/// \brief Test-local single-shot convenience over Executor::run.
///
/// Application code runs inference through runtime::Session; the suites
/// that still construct an Executor directly do so to poke engine-level
/// features (int8 codes, packed panels, fault-injected weights) and feed it
/// the same way the Session wrapper does.

#include <utility>

#include "graph/graph.hpp"
#include "runtime/executor.hpp"

namespace vedliot::testutil {

/// Run a single-input single-output graph through an existing Executor.
inline Tensor exec_single(Executor& exec, const Graph& g, const Tensor& input) {
  auto outs = exec.run({{g.node(g.inputs().front()).name, input}});
  return std::move(outs.begin()->second);
}

/// Same, with a throwaway Executor (one-shot reference runs).
inline Tensor exec_single(const Graph& g, const Tensor& input) {
  Executor exec(g);
  return exec_single(exec, g, input);
}

/// Run a single-input single-output graph through an int8 Executor and
/// return the output's int8 codes and scale.
inline QTensor qexec_single(Executor& exec, const Graph& g, const Tensor& input) {
  (void)exec.run({{g.node(g.inputs().front()).name, input}});
  return exec.quantized(g.outputs().front());
}

}  // namespace vedliot::testutil
