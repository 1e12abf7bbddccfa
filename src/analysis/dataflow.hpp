#pragma once
/// \file dataflow.hpp
/// \brief Dataflow analyses over the graph IR.
///
/// One computation derives the facts every downstream client needs:
///  - use-def chains (producers/consumers per node, resolved once),
///  - liveness intervals over an execution order (def step, last-use step),
///  - reaching producers (the first non-trivial value source behind
///    Identity/Flatten chains),
///  - single-consumer facts (the fusion passes' legality question),
///  - per-node/per-edge byte volumes and the peak live-set size.
///
/// The verifier, the activation memory planner and the optimization passes
/// all consume these facts instead of re-deriving them ad hoc. Results are
/// immutable snapshots stamped with Graph::version(); DataflowCache
/// recomputes transparently when the graph has mutated since.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
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
  /// Def-use: the node's live input list (its defs), as stored in the IR.
  const std::vector<NodeId>& producers(NodeId id) const;

  /// True when exactly one live node consumes \p id (fusion legality).
  bool single_consumer(NodeId id) const { return consumers(id).size() == 1; }

  /// The value source feeding \p id's input \p input_index after skipping
  /// pass-through nodes (Identity, Flatten): the "reaching producer".
  NodeId reaching_producer(NodeId id, std::size_t input_index) const;

  /// Bytes of one node's output value at the analysis dtype.
  std::int64_t value_bytes(NodeId id) const { return interval(id).bytes; }

  /// Sum of bytes flowing over all def->use edges (each edge counted once).
  std::int64_t total_edge_bytes() const { return total_edge_bytes_; }

  /// Peak of the live-set byte size over the execution order — the lower
  /// bound any activation arena packing can reach.
  std::int64_t peak_live_bytes() const { return peak_live_bytes_; }

  /// Graph::version() at computation time; false once the graph mutated.
  std::uint64_t graph_version() const { return graph_version_; }
  bool valid_for(const Graph& g) const { return graph_version_ == g.version(); }

 private:
  std::vector<NodeId> order_;
  std::map<NodeId, std::size_t> step_of_;
  std::vector<LiveInterval> intervals_;          // indexed by step
  std::map<NodeId, std::vector<NodeId>> consumers_;
  std::map<NodeId, std::vector<NodeId>> producers_;
  std::set<NodeId> passthrough_;                 // Identity/Flatten nodes

  std::int64_t total_edge_bytes_ = 0;
  std::int64_t peak_live_bytes_ = 0;
  std::uint64_t graph_version_ = 0;
};

/// Single-entry cache keyed on (graph identity, Graph::version, dtype):
/// `get` recomputes only when the graph mutated since the last call.
class DataflowCache {
 public:
  const Dataflow& get(const Graph& g, DType act_dtype = DType::kFP32);
  std::size_t recomputations() const { return recomputations_; }

 private:
  const Graph* graph_ = nullptr;
  DType dtype_ = DType::kFP32;
  std::unique_ptr<Dataflow> cached_;
  std::size_t recomputations_ = 0;
};

}  // namespace vedliot::analysis
