#pragma once
/// \file faults.hpp
/// \brief Deterministic platform-level fault injection (Sec. II-A + IV-B):
/// module crashes/restarts, link drops and bandwidth degradation, thermal
/// throttling, and seeded transient transfer errors, applied to a
/// Chassis + Fabric pair from a time-ordered event schedule.
///
/// This is the adversary side of the resilience story: safety's
/// FaultInjector corrupts *model weights*; PlatformSimulator breaks the
/// *platform under the model* over simulated time, so the
/// ResilienceController (resilience.hpp) has something to detect, retry
/// against, and recover from.
///
/// Two fault kinds are pure schedule markers whose effect is owned by the
/// engine consuming them (as serve::Fleet owns thermal stretches):
/// kMemoryFault means "flip `magnitude` weight bits in the model deployed
/// on `slot` now", and kOtaCorrupt means "the next staged OTA payload was
/// corrupted in transit". The simulator validates and sequences them; the
/// fleet applies the damage to the replica deployed on `slot`.

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "platform/baseboard.hpp"
#include "platform/fabric.hpp"
#include "util/rng.hpp"

namespace vedliot::platform {

enum class FaultKind {
  kModuleCrash,      ///< module in `slot` stops responding (hot-removed)
  kModuleRestart,    ///< previously crashed module in `slot` comes back
  kLinkDrop,         ///< link a<->b removed from the fabric
  kLinkRestore,      ///< previously dropped link a<->b reinstated
  kLinkDegrade,      ///< link a<->b degraded to `magnitude` of its bandwidth
  kThermalThrottle,  ///< module GOPS scaled by `magnitude` in (0, 1]
  kThermalRecover,   ///< throttle on `slot` cleared
  kMemoryFault,      ///< SEU: `magnitude` weight bits flip on `slot`'s model
  kOtaCorrupt,       ///< next OTA payload arrives corrupted in transit
  kLinkPartition,    ///< `slot` isolated: every link touching it removed
  kLinkHeal,         ///< previously partitioned `slot` reconnected
  kPacketDup,        ///< link a<->b duplicates packets with prob `magnitude`
  kPacketReorder,    ///< link a<->b reorders packets with prob `magnitude`
};

std::string_view fault_kind_name(FaultKind kind);

struct FaultEvent {
  double time_s = 0;
  FaultKind kind = FaultKind::kModuleCrash;
  std::string slot;        ///< module faults
  std::string a, b;        ///< link faults
  double magnitude = 1.0;  ///< degradation / throttle factor in (0, 1]

  /// "slot come1" or "link come0<->switch0" — the faulted entity.
  std::string subject() const;
};

/// A time-ordered fault schedule. Events can be scripted one by one or
/// drawn as a seeded random campaign; either way the sequence applied to a
/// PlatformSimulator is fully deterministic.
class FaultTimeline {
 public:
  /// Insert keeping the schedule sorted by time (stable for ties).
  void push(FaultEvent e);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Seeded random campaign over [0, duration): \p n_faults events drawn
  /// uniformly in time, alternating crash/restart, throttle/recover and
  /// link degrade/restore pairs over the given slots so the platform keeps
  /// oscillating between healthy and degraded states.
  static FaultTimeline random_campaign(const std::vector<std::string>& slots,
                                       std::size_t n_faults, double duration_s, Rng& rng);

  /// Seeded lossy-fabric campaign: the transport-layer adversary. Draws
  /// \p n_faults inject/heal pairs over [0, duration_s * 0.6) alternating
  /// node partitions (kLinkPartition/kLinkHeal on "switch0"<->slot stars),
  /// device crash/restart, packet duplication and packet reordering
  /// (kPacketDup/kPacketReorder set to `intensity`, cleared by the pair's
  /// second event). `intensity` in (0, 1) scales the dup/reorder
  /// probabilities. Every draw comes from \p rng, so the campaign is
  /// reproducible from the seed a PlatformSimulator::describe() line names.
  static FaultTimeline lossy_fabric_campaign(const std::vector<std::string>& slots,
                                             std::size_t n_faults, double duration_s,
                                             double intensity, Rng& rng);

 private:
  std::vector<FaultEvent> events_;
};

/// A chassis + fabric under fault injection. Owns private copies of both,
/// applies scheduled events as simulated time advances, and answers the
/// health / effective-capacity queries the resilience layer plans against.
class PlatformSimulator {
 public:
  struct Config {
    double transient_transfer_prob = 0.0;  ///< per transfer attempt
    std::uint64_t seed = 0x5EEDu;
  };

  PlatformSimulator(Chassis chassis, Fabric fabric);
  PlatformSimulator(Chassis chassis, Fabric fabric, Config config);

  void schedule(const FaultTimeline& timeline);
  /// Throws InvalidArgument when the event lies in the simulated past.
  void schedule(FaultEvent event);

  /// Apply every scheduled event with time <= t (in order) and move the
  /// clock to t. Returns the events that actually took effect; events that
  /// no longer apply (crash of an already-dead module, restore of a live
  /// link) are counted as skipped instead of throwing, so random campaigns
  /// cannot wedge the simulation.
  std::vector<FaultEvent> advance_to(double t);

  double now() const { return now_; }
  const Chassis& chassis() const { return chassis_; }
  const Fabric& fabric() const { return fabric_; }

  /// Health query: is the module in \p slot installed and responding?
  bool alive(const std::string& slot) const;
  /// The subset of \p slots currently alive, original order preserved.
  std::vector<std::string> alive_of(const std::vector<std::string>& slots) const;

  /// Effective capacity of a slot: 1.0 healthy, <1 thermally throttled.
  double gops_scale(const std::string& slot) const;
  /// All current throttles, keyed by slot (healthy slots omitted).
  std::map<std::string, double> gops_scales() const;

  /// One transfer attempt over the current fabric: returns false on a
  /// seeded transient error, throws NotFound when no route exists
  /// (partition). Deterministic given the construction seed and call order.
  bool try_transfer(const std::string& from, const std::string& to);

  /// One packet's fate over the route from -> to, folding in the per-link
  /// duplication / reordering state kPacketDup / kPacketReorder installed.
  struct ChannelDraw {
    bool intact = true;      ///< false: damaged in flight (CRC will fail)
    bool duplicated = false; ///< delivered twice (receiver must dedupe)
    bool reordered = false;  ///< delivered out of order vs its window peer
  };

  /// Draw the fate of one packet over the current fabric. Throws NotFound
  /// when no route exists (partitioned). Consumes rng draws only for the
  /// hazards that are actually armed (the transient probability, plus
  /// dup/reorder when a link on the route carries a non-zero setting), so
  /// a clean channel replays identically to try_transfer.
  ChannelDraw draw_channel(const std::string& from, const std::string& to);

  std::size_t faults_applied() const { return applied_; }
  std::size_t faults_skipped() const { return skipped_; }

  /// Current channel-fault state (tests + repro tooling).
  bool partitioned(const std::string& slot) const { return partitioned_.count(slot) > 0; }
  double dup_prob(const std::string& a, const std::string& b) const;
  double reorder_prob(const std::string& a, const std::string& b) const;

  /// Time of the earliest scheduled-but-not-yet-applied fault, if any.
  /// Discrete-event drivers (the serving layer) include it in their
  /// next-event computation so faults take effect at their scheduled time
  /// instead of at the driver's next natural wakeup.
  std::optional<double> next_fault_time() const;

  /// Seed behind the transient-transfer draws (and, by convention, the
  /// fault campaigns scheduled onto this simulator).
  std::uint64_t seed() const { return cfg_.seed; }

  /// One-line identity for failure messages — the seed and fault counters
  /// a CI log needs to reproduce a chaos-soak run:
  ///   "PlatformSimulator{seed=0x5eed, now=1.2340s, faults applied=3
  ///    skipped=0 pending=2, transient_prob=0.05}"
  std::string describe() const;

 private:
  bool apply(const FaultEvent& e);
  static std::string link_key(const std::string& a, const std::string& b);

  Chassis chassis_;
  Fabric fabric_;
  Config cfg_;
  Rng rng_;
  double now_ = 0;
  std::vector<FaultEvent> pending_;  ///< sorted by time; consumed from next_
  std::size_t next_ = 0;
  std::map<std::string, MicroserverModule> crashed_;
  std::map<std::string, double> throttle_;
  std::vector<Link> dropped_;
  std::map<std::string, std::vector<Link>> partitioned_;  ///< slot -> severed links
  std::map<std::string, double> dup_;      ///< "a|b" (sorted) -> probability
  std::map<std::string, double> reorder_;  ///< "a|b" (sorted) -> probability
  std::size_t applied_ = 0;
  std::size_t skipped_ = 0;
};

}  // namespace vedliot::platform
