#pragma once
/// \file memory_planner.hpp
/// \brief Liveness-based activation memory planner.
///
/// Implements the "in-depth study of how memory is utilized in current
/// accelerators" substrate (Sec. II-B): given a graph and an execution
/// order, compute per-tensor lifetimes and pack activation buffers into a
/// single arena with a greedy best-fit algorithm. Benchmarked against the
/// naive sum-of-all-tensors allocation in bench_runtime.

#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.hpp"
#include "tensor/dtype.hpp"

namespace vedliot {

/// One planned buffer within the arena.
struct BufferPlan {
  NodeId node = -1;
  std::int64_t offset = 0;   ///< byte offset within the arena
  std::int64_t size = 0;     ///< byte size
  std::size_t first_use = 0; ///< step index producing the tensor
  std::size_t last_use = 0;  ///< last step reading it
};

struct MemoryPlan {
  std::vector<BufferPlan> buffers;
  std::int64_t arena_bytes = 0;  ///< peak with reuse
  std::int64_t naive_bytes = 0;  ///< sum of all buffers (no reuse)

  double reuse_factor() const {
    return arena_bytes > 0 ? static_cast<double>(naive_bytes) / static_cast<double>(arena_bytes)
                           : 1.0;
  }
};

/// Plan activation memory for executing \p g in topological order at the
/// given activation dtype. Graph inputs are planned too (they must live in
/// the arena until their last consumer).
MemoryPlan plan_memory(const Graph& g, DType act_dtype, std::int64_t alignment = 64);

/// Plan against an explicit execution order (must be a valid topological
/// order over exactly the live nodes; checked).
MemoryPlan plan_memory_with_order(const Graph& g, std::span<const NodeId> order, DType act_dtype,
                                  std::int64_t alignment = 64);

/// Verify the invariant that no two lifetime-overlapping buffers overlap in
/// address range; returns true when the plan is consistent.
bool plan_is_valid(const MemoryPlan& plan);

}  // namespace vedliot
