#pragma once
/// \file dataflow.hpp
/// \brief Dataflow analyses over the graph IR.
///
/// One computation derives, over an execution order:
///  - the live consumers of each node (its uses),
///  - liveness intervals (def step, last-use step),
///  - per-node/per-edge byte volumes and the peak live-set size.
///
/// The activation memory planner builds its buffers from these intervals
/// and the verifier's memory checks report them, so the two never disagree
/// about lifetimes. Results are immutable snapshots of the graph as it was;
/// the fusion passes ask Graph::consumers directly.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "tensor/dtype.hpp"

namespace vedliot::analysis {

/// Liveness of one value over the execution order.
struct LiveInterval {
  NodeId node = -1;
  std::size_t def_step = 0;   ///< step index producing the value
  std::size_t last_use = 0;   ///< last step reading it; == order size for graph outputs
  bool is_output = false;     ///< graph output: lives past the final step
  std::int64_t bytes = 0;     ///< value size at the analysis dtype
};

class Dataflow {
 public:
  /// Analyze \p g over its canonical topological order.
  static Dataflow compute(const Graph& g, DType act_dtype = DType::kFP32);

  /// Analyze over an explicit execution order. The order must cover exactly
  /// the live nodes, without duplicates, topologically; throws Error
  /// otherwise (same contract the memory planner enforces).
  static Dataflow compute_with_order(const Graph& g, std::span<const NodeId> order,
                                     DType act_dtype = DType::kFP32);

  const std::vector<NodeId>& order() const { return order_; }
  std::size_t step_of(NodeId id) const;

  /// Liveness interval of a node's output value.
  const LiveInterval& interval(NodeId id) const;
  const std::vector<LiveInterval>& intervals() const { return intervals_; }

  /// Use-def: live consumers of a node (the "uses" of its def).
  const std::vector<NodeId>& consumers(NodeId id) const;

  /// Bytes of one node's output value at the analysis dtype.
  std::int64_t value_bytes(NodeId id) const { return interval(id).bytes; }

  /// Sum of bytes flowing over all def->use edges (each edge counted once).
  std::int64_t total_edge_bytes() const { return total_edge_bytes_; }

  /// Peak of the live-set byte size over the execution order — the lower
  /// bound any activation arena packing can reach.
  std::int64_t peak_live_bytes() const { return peak_live_bytes_; }

 private:
  std::vector<NodeId> order_;
  std::map<NodeId, std::size_t> step_of_;
  std::vector<LiveInterval> intervals_;          // indexed by step
  std::map<NodeId, std::vector<NodeId>> consumers_;

  std::int64_t total_edge_bytes_ = 0;
  std::int64_t peak_live_bytes_ = 0;
};

}  // namespace vedliot::analysis
