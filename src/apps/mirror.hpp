#pragma once
/// \file mirror.hpp
/// \brief Smart Mirror demonstrator (Sec. V-C / Fig. 5): camera + microphone
/// feed four neural networks (gesture, face, object, speech) that all run
/// on-site for privacy; the orchestrator places them on a uRECS node and
/// verifies real-time rates within the < 15 W power budget.

#include <string>
#include <vector>

#include "graph/zoo.hpp"
#include "platform/baseboard.hpp"
#include "platform/resource_manager.hpp"

namespace vedliot::apps {

/// One of the mirror's perception pipelines.
struct MirrorPipeline {
  std::string name;
  double rate_hz = 5.0;          ///< required inference rate
  double latency_budget_s = 0.2;
};

/// The default four pipelines of Fig. 5.
std::vector<MirrorPipeline> default_pipelines();

/// Result of planning the mirror onto a platform.
struct MirrorPlan {
  std::vector<platform::WorkloadPlacement> placements;
  double average_power_w = 0;
  bool realtime_ok = false;       ///< all pipelines placed within budgets
  bool within_power_budget = false;
  bool privacy_preserved = true;  ///< always true: no cloud offload exists
};

/// Build the Fig. 5 demonstrator: populate a uRECS chassis with the given
/// main module (by catalog name) and place the four networks.
/// Throws PlatformError when placement is impossible on that module.
MirrorPlan plan_smart_mirror(const std::string& main_module,
                             const std::vector<MirrorPipeline>& pipelines = default_pipelines());

/// The per-pipeline DL workload (from the zoo networks) at INT8.
platform::Workload mirror_workload(const MirrorPipeline& pipeline);

}  // namespace vedliot::apps
