#include "runtime/memory_planner.hpp"

#include <algorithm>

#include "analysis/dataflow.hpp"
#include "util/error.hpp"

namespace vedliot {

MemoryPlan plan_memory_with_order(const Graph& g, std::span<const NodeId> order, DType act_dtype,
                                  std::int64_t alignment) {
  VEDLIOT_CHECK(alignment > 0, "alignment must be positive");
  // Order validation (coverage, duplicates, topological soundness) and
  // lifetimes both come from the shared dataflow analysis: a buffer is born
  // at its producer step and dies after its last consumer step (graph
  // outputs live to the end).
  const auto df = analysis::Dataflow::compute_with_order(g, order, act_dtype);

  MemoryPlan plan;
  auto align_up = [&](std::int64_t v) { return (v + alignment - 1) / alignment * alignment; };

  // Greedy best-fit: place buffers in order of decreasing size at the lowest
  // offset where they don't collide with any already-placed, lifetime-
  // overlapping buffer.
  std::vector<BufferPlan> todo;
  for (const analysis::LiveInterval& iv : df.intervals()) {
    BufferPlan b;
    b.node = iv.node;
    b.size = align_up(iv.bytes);
    b.first_use = iv.def_step;
    b.last_use = iv.last_use;
    plan.naive_bytes += b.size;
    todo.push_back(b);
  }
  std::stable_sort(todo.begin(), todo.end(),
                   [](const BufferPlan& a, const BufferPlan& b) { return a.size > b.size; });

  auto lifetimes_overlap = [](const BufferPlan& a, const BufferPlan& b) {
    return a.first_use <= b.last_use && b.first_use <= a.last_use;
  };

  for (auto& b : todo) {
    std::vector<std::pair<std::int64_t, std::int64_t>> busy;
    for (const auto& placed : plan.buffers) {
      if (lifetimes_overlap(placed, b)) busy.emplace_back(placed.offset, placed.offset + placed.size);
    }
    std::sort(busy.begin(), busy.end());
    std::int64_t cursor = 0;
    for (const auto& [lo, hi] : busy) {
      if (cursor + b.size <= lo) break;  // fits in the gap before this interval
      cursor = std::max(cursor, hi);
    }
    b.offset = cursor;
    plan.arena_bytes = std::max(plan.arena_bytes, b.offset + b.size);
    plan.buffers.push_back(b);
  }

  std::sort(plan.buffers.begin(), plan.buffers.end(),
            [](const BufferPlan& a, const BufferPlan& b) { return a.first_use < b.first_use; });
  return plan;
}

MemoryPlan plan_memory(const Graph& g, DType act_dtype, std::int64_t alignment) {
  const auto order = g.topo_order();
  return plan_memory_with_order(g, order, act_dtype, alignment);
}

bool plan_is_valid(const MemoryPlan& plan) {
  for (std::size_t i = 0; i < plan.buffers.size(); ++i) {
    const auto& a = plan.buffers[i];
    if (a.offset < 0 || a.size <= 0) return false;
    if (a.offset + a.size > plan.arena_bytes) return false;
    for (std::size_t j = i + 1; j < plan.buffers.size(); ++j) {
      const auto& b = plan.buffers[j];
      const bool life_overlap = a.first_use <= b.last_use && b.first_use <= a.last_use;
      const bool addr_overlap = a.offset < b.offset + b.size && b.offset < a.offset + a.size;
      if (life_overlap && addr_overlap) return false;
    }
  }
  return true;
}

}  // namespace vedliot
