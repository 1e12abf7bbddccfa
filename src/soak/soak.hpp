#pragma once
/// \file soak.hpp
/// \brief The plumbing every soak harness shares (chaos_soak.hpp,
/// fleet_soak.hpp, integrity_soak.hpp, ota_soak.hpp; bench/soak.cpp drives
/// all four): the event-mirror probe, the one check of a Fleet run's
/// contracts, the simulated RECS|Box the chaos and integrity soaks serve
/// from, and the record helper.
///
/// The chaos, fleet and integrity soaks all drive serve::Fleet, so each one
/// ends its run with check_fleet_run(); a soak's own checks (goodput
/// monotonicity, batched-vs-singleton CRCs, detection and heal) ride on top.
/// The OTA soak drives RolloutController and closes its SoakProbe itself.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "platform/faults.hpp"
#include "serve/fleet.hpp"

namespace vedliot::soak {

/// What every soak run shares: wire `trace` and `metrics` into the engine
/// under test; after the run, close() adds the event-mirror violations and
/// tags every violation of the run with \p identity (the simulator line
/// that reproduces it; empty = untagged).
struct SoakProbe {
  obs::Tracer trace;
  obs::MetricsRegistry metrics;

  void close(std::span<const serve::ServeEvent> events, std::string_view category,
             const std::string& identity, std::vector<std::string>& violations) const;
};

/// Every request a soak submitted, by the id Fleet::submit returned.
using Submitted = std::map<std::uint64_t, serve::Request>;

/// Submit \p r to \p fleet and record it, id set, in \p requests.
void submit(serve::Fleet& fleet, serve::Request r, Submitted& requests);

/// Accounting conservation: one terminal Response per offered request
/// (\p ids, as submit() returned them), and completed + deadline_missed +
/// shed + cancelled + failed == offered.
void check_conservation(const serve::FleetReport& report, const std::vector<std::uint64_t>& ids,
                        std::vector<std::string>& violations);

/// The contracts of one Fleet run, checked the same way by every soak that
/// drives the engine. \p cfg is the config the run was built from (its
/// tracer and registry must be set: they are the event mirror's far side),
/// \p faults the timeline scheduled on its simulator (empty without one).
/// Appends a violation for each broken contract:
///
///   * conservation (check_conservation);
///   * capacity-honest deadlines: every kOk response lands by its
///     deadline; with no fault scheduled no late delivery is excused,
///     retried or not; otherwise a late delivery is excused only by a
///     kRetry naming the request or by a scheduled fault within its
///     lifetime +- 0.25 s;
///   * bounds: max_queue_depth <= queue_capacity, max_replicas <=
///     max_replicas, and no kBatchExecuted carries more than max_batch lanes;
///   * power honesty: each replica's metered average draw stays within the
///     slot budget its chassis admitted it under and its module's envelope;
///   * the event mirror under "vedliot.fleet" (SoakProbe::close), which
///     then tags every violation in \p violations with cfg.sim's
///     describe() line — so call this after the soak's own checks.
void check_fleet_run(const serve::FleetConfig& cfg, const Submitted& requests,
                     const serve::FleetReport& report, const platform::FaultTimeline& faults,
                     std::vector<std::string>& violations);

/// The simulated RECS|Box a chassis-backed soak serves from: \p modules
/// modules installed in come0..come<n-1>, cycled from \p cfg.modules the
/// way the fleet places its replicas, on a star fabric whose hub
/// ("switch0") is the serving ingress; the simulator draws its transient
/// transfer errors (probability \p transient_prob) from cfg.seed ^ 0x51.
struct SoakWorld {
  std::vector<std::string> slots;  ///< come0..come<n-1>
  platform::PlatformSimulator sim;
};
SoakWorld recs_world(const serve::FleetConfig& cfg, std::size_t modules, double transient_prob);

/// `,"violations":[...]}`: the field that closes every soak record.
std::string violations_json(const std::vector<std::string>& violations);

/// \p g with its first parametric node's first weight tensor scaled by
/// \p factor: the same architecture with new weights, as an OTA update.
Graph retuned(const Graph& g, float factor);

}  // namespace vedliot::soak
