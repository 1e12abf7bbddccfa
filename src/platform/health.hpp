#pragma once
/// \file health.hpp
/// \brief Heartbeat-based slot health detection, shared between the
/// resilience controller and the serving front-end.
///
/// One HealthMonitor probes a fixed slot set against a PlatformSimulator
/// at a caller-driven cadence: a slot that misses `miss_threshold`
/// consecutive probes is declared down and stays down until either an
/// external restart is reported (mark_up — the resilience controller sees
/// module-restart fault events) or a probe finds it answering again
/// (auto-recovery, reported as a `recovered` beat — how the serving layer
/// closes a circuit breaker after a restart it cannot observe directly).

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vedliot::platform {

class PlatformSimulator;

struct HealthConfig {
  int miss_threshold = 3;  ///< consecutive missed probes -> declared down
};

/// One noteworthy probe outcome. Beats are only emitted for state-relevant
/// probes: each missed heartbeat (with the running miss count), the miss
/// that crosses the threshold (`declared_down`), and a previously-down
/// slot answering again (`recovered`).
struct HealthBeat {
  std::string slot;
  int misses = 0;
  bool declared_down = false;  ///< this miss crossed the threshold
  bool recovered = false;      ///< down slot answered again
};

class HealthMonitor {
 public:
  HealthMonitor(std::vector<std::string> slots, HealthConfig config);

  /// One probe round: query sim.alive for every monitored slot, in slot
  /// order. Healthy slots reset their miss counter silently; down slots
  /// are only probed for recovery.
  std::vector<HealthBeat> tick(const PlatformSimulator& sim);

  bool down(const std::string& slot) const { return down_.count(slot) > 0; }

  /// External recovery notification (e.g. a module-restart fault event):
  /// clears the down mark and the miss counter so probing resumes.
  void mark_up(const std::string& slot);

 private:
  std::vector<std::string> slots_;
  HealthConfig cfg_;
  std::map<std::string, int> misses_;
  std::set<std::string> down_;
};

}  // namespace vedliot::platform
