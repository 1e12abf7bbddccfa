#include "analysis/dataflow.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace vedliot::analysis {

Dataflow Dataflow::compute(const Graph& g, DType act_dtype) {
  const auto order = g.topo_order();
  return compute_with_order(g, order, act_dtype);
}

Dataflow Dataflow::compute_with_order(const Graph& g, std::span<const NodeId> order,
                                      DType act_dtype) {
  VEDLIOT_CHECK(order.size() == g.size(), "order must cover exactly the live nodes");

  Dataflow df;
  df.order_.assign(order.begin(), order.end());
  for (std::size_t i = 0; i < df.order_.size(); ++i) {
    const auto [it, inserted] = df.step_of_.emplace(df.order_[i], i);
    VEDLIOT_CHECK(inserted, "duplicate node in execution order");
  }
  // Topological validity: every input scheduled before its consumer.
  for (NodeId id : df.order_) {
    for (NodeId in : g.node(id).inputs) {
      auto it = df.step_of_.find(in);
      VEDLIOT_CHECK(it != df.step_of_.end(), "node consumes a value outside the order");
      VEDLIOT_CHECK(it->second < df.step_of_.at(id), "order is not topological");
    }
  }

  // Uses in one sweep: each node's input list is a use of each producer.
  for (NodeId id : df.order_) df.consumers_[id];  // every live node has an (empty) entry
  for (NodeId id : df.order_) {
    for (NodeId in : g.node(id).inputs) df.consumers_[in].push_back(id);
  }

  const double elem_bytes = dtype_bytes(act_dtype);
  const auto outputs = g.outputs();

  // Liveness: a value is born at its producer's step and stays live through
  // its last consumer's step; graph outputs survive past the final step.
  df.intervals_.resize(df.order_.size());
  for (std::size_t step = 0; step < df.order_.size(); ++step) {
    const NodeId id = df.order_[step];
    LiveInterval& iv = df.intervals_[step];
    iv.node = id;
    iv.def_step = step;
    iv.last_use = step;
    for (NodeId c : df.consumers_.at(id)) iv.last_use = std::max(iv.last_use, df.step_of_.at(c));
    iv.is_output = std::find(outputs.begin(), outputs.end(), id) != outputs.end();
    if (iv.is_output) iv.last_use = df.order_.size();
    iv.bytes = static_cast<std::int64_t>(
        static_cast<double>(g.node(id).out_shape.numel()) * elem_bytes + 0.999);
  }

  for (const LiveInterval& iv : df.intervals_) {
    df.total_edge_bytes_ +=
        iv.bytes * static_cast<std::int64_t>(df.consumers_.at(iv.node).size());
  }

  // Peak live set: sweep steps, summing values whose interval covers the step.
  for (std::size_t step = 0; step < df.order_.size(); ++step) {
    std::int64_t live = 0;
    for (const LiveInterval& iv : df.intervals_) {
      if (iv.def_step <= step && step <= iv.last_use) live += iv.bytes;
    }
    df.peak_live_bytes_ = std::max(df.peak_live_bytes_, live);
  }

  return df;
}

std::size_t Dataflow::step_of(NodeId id) const {
  auto it = step_of_.find(id);
  VEDLIOT_CHECK(it != step_of_.end(), "node not covered by this dataflow analysis");
  return it->second;
}

const LiveInterval& Dataflow::interval(NodeId id) const { return intervals_[step_of(id)]; }

const std::vector<NodeId>& Dataflow::consumers(NodeId id) const {
  auto it = consumers_.find(id);
  VEDLIOT_CHECK(it != consumers_.end(), "node not covered by this dataflow analysis");
  return it->second;
}

}  // namespace vedliot::analysis
