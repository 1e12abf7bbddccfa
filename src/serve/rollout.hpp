#pragma once
/// \file rollout.hpp
/// \brief Fleet-wide OTA rollout: staged canary waves over a lossy fabric,
/// per-wave health gates, halt-and-rollback with token-bucketed pacing.
///
/// The RolloutController turns the single-node ModelStore OTA machinery
/// (safety/model_store.hpp) plus the chunked resumable transport
/// (safety/ota_transport.hpp) into a fleet capability. One controller
/// drives a swarm of simulated devices — each a slot on a
/// platform::PlatformSimulator with its own persistent ModelStore — through
/// the rollout state machine (DESIGN.md §14):
///
///   idle -> transferring -> staged -> canary/wave-N gate
///        -> committed            (every wave passed its health gate)
///        -> rolled-back          (a gate tripped: halt + paced rollback)
///
///  * transport: chunks stream hub -> device over the simulator's fabric;
///    seeded transient damage, duplication and reordering (kPacketDup /
///    kPacketReorder) are tolerated per OtaReceiver semantics; device
///    crashes and link partitions pause the transfer, which resumes from
///    the last good chunk when the platform heals (faults are first-class
///    wakeups, as in the PR 5 serve loop);
///  * waves: the first `canary_devices` devices form the canary wave;
///    each following wave grows by `wave_growth`. A wave's health gate
///    waits for every member to reach a terminal transfer state and for
///    heartbeats to be green, then demands (a) the ModelStore canary
///    verdict was kCommitted and (b) the device's serve CRC matches the
///    release manifest. A failure fraction above `failure_threshold`
///    halts the rollout;
///  * rollback-storm containment: a halt rolls every already-committed
///    device back — paced by a token bucket (`rollback_rate_per_s`,
///    `rollback_burst`) so a bad package cannot stampede the fabric with
///    simultaneous full-package restores;
///  * version skew: mid-rollout the fleet is split across versions. Every
///    control tick each live device answers a canary probe through the
///    version-aware ResponseCache; a cached answer only hits for devices
///    on the version that produced it, and every hit is CRC-rechecked
///    against the device's own serving CRC.
///
/// Every decision is a ServeEvent recorded through an EventLog
/// (event_log.hpp) under category "vedliot.serve", mirrored 1:1 into the
/// optional tracer and metrics registry; the OTA soak (ota_soak.hpp, driven
/// by bench/soak.cpp) checks that mirror on every run.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/faults.hpp"
#include "safety/model_store.hpp"
#include "safety/ota_transport.hpp"
#include "serve/cache.hpp"
#include "serve/event_log.hpp"

namespace vedliot::serve {

struct RolloutConfig {
  std::vector<std::string> devices;  ///< slots of the simulator's chassis
  std::string hub = "switch0";       ///< fabric node packages stream from
  std::string model_name = "model";  ///< ModelStore entry name on devices

  std::size_t canary_devices = 1;    ///< wave 0 size (>= 1)
  double wave_growth = 2.0;          ///< wave k size = ceil(prev * growth)
  double failure_threshold = 0.25;   ///< strictly-greater fraction halts

  double control_period_s = 5e-3;    ///< probe / gate / pacing tick

  double rollback_rate_per_s = 50.0; ///< token-bucket refill
  double rollback_burst = 2.0;       ///< token-bucket capacity

  std::size_t chunk_bytes = 2048;
  safety::OtaSender::Config sender;  ///< window / attempt cap / backoff

  std::uint64_t canary_seed = 0xCAA1Bull;  ///< serve-probe stimulus seed
  static constexpr std::size_t kCacheCapacity = 64;  ///< version-aware probe cache entries

  std::uint64_t seed = 0x5EEDu;

  obs::Tracer* trace = nullptr;            ///< 1:1 event mirror when set
  obs::MetricsRegistry* metrics = nullptr; ///< vedliot.serve.* when set
};

/// Terminal state of one device after the rollout.
struct DeviceOutcome {
  std::string slot;
  std::uint32_t version = 1;     ///< serving version at the end of the run
  std::uint32_t serve_crc = 0;   ///< CRC-32 of its canary output
  bool committed = false;        ///< reached the target version at some point
  bool rolled_back = false;
  bool transfer_failed = false;  ///< sender exhausted its attempt budget
  std::size_t resumes = 0;
};

struct RolloutReport {
  std::vector<ServeEvent> events;

  std::size_t devices_total = 0;
  std::size_t devices_committed = 0;   ///< on the target version at the end
  std::size_t devices_rejected = 0;    ///< ModelStore refused the package
  std::size_t devices_rolled_back = 0;
  std::size_t devices_failed = 0;      ///< transfer never completed
  std::vector<DeviceOutcome> outcomes; ///< per device, config order

  std::size_t waves_started = 0;
  std::size_t waves_passed = 0;
  bool halted = false;       ///< a health gate tripped
  bool converged = false;    ///< terminal state reached within the run
  double converged_at_s = 0;

  std::size_t chunks_sent = 0;      ///< wire messages (incl. retries)
  std::size_t chunks_accepted = 0;  ///< distinct chunks landed
  std::size_t chunk_retries = 0;
  std::size_t duplicates = 0;       ///< duplicated deliveries deduped
  std::size_t reorders = 0;         ///< out-of-order deliveries tolerated
  std::size_t resumes = 0;          ///< transfers resumed after interruption
  std::uint64_t bytes_sent = 0;
  std::size_t rollbacks_paced = 0;  ///< pacing waits the token bucket forced

  std::size_t skew_probes = 0;        ///< serve probes during the rollout
  std::size_t skew_cache_hits = 0;    ///< probes answered from the cache
  std::size_t skew_version_misses = 0;///< cache present-but-wrong-version
  std::size_t skew_mismatches = 0;    ///< CRC recheck failures (must be 0)
  std::size_t torn_serves = 0;        ///< devices caught serving an
                                      ///< unverifiable package (must be 0)

  /// (time, committed-device count) samples, one per change: the rollout
  /// progress curve the soak checks for monotonicity.
  std::vector<std::pair<double, std::size_t>> progress;
};

/// Drives one fleet-wide OTA rollout over a PlatformSimulator. One-shot:
/// configure, set_baseline + set_target, then run() once.
class RolloutController {
 public:
  RolloutController(platform::PlatformSimulator& sim, RolloutConfig config);
  ~RolloutController();

  /// Install version 1 of the model on every device (their golden
  /// baseline) and record its manifest serve CRC. Call before run().
  void set_baseline(const Graph& v1);

  /// The update to distribute plus the release manifest's expected serve
  /// CRC: the CRC-32 of the canary output the *intended* target graph
  /// produces. A package whose committed devices serve a different CRC is
  /// exactly a "bad package" — internally consistent, wrong content.
  void set_target(safety::OtaPackage update, std::uint32_t manifest_serve_crc);

  /// CRC-32 of the canary output \p g produces for \p canary_seed — the
  /// serve fingerprint devices and manifests pin versions with.
  static std::uint32_t serve_crc_of(const Graph& g, std::uint64_t canary_seed);

  /// Drive the rollout for at most \p duration_s of simulated time.
  RolloutReport run(double duration_s);

 private:
  enum class Phase {
    kIdle,          ///< not yet in an active wave
    kTransferring,  ///< chunks streaming
    kPaused,        ///< crashed / partitioned; receiver state retained
    kCommitted,     ///< store swapped to the target version
    kRejected,      ///< store refused the package
    kFailed,        ///< sender exhausted its attempt budget
    kRolledBack,    ///< reverted to the baseline after a halt
  };

  struct Device {
    std::string slot;
    /// Per-device persistent flash (by pointer: the store owns a mutex and
    /// is neither movable nor copyable, but devices live in a vector).
    std::unique_ptr<safety::ModelStore> store;
    std::uint32_t serving_version = 1;
    std::uint32_t serve_crc = 0;
    Phase phase = Phase::kIdle;
    double next_action_s = 0;  ///< only meaningful while kTransferring
    std::size_t wave = 0;
    std::unique_ptr<safety::OtaReceiver> receiver;  ///< the resume journal
    std::unique_ptr<safety::OtaSender> sender;
    std::size_t resumes = 0;
    bool ever_committed = false;  ///< reached the target before any rollback
  };

  bool reachable(const Device& d) const;
  void start_wave(double t);
  void start_transfer(double t, Device& d, std::size_t index);
  void step_transfer(double t, Device& d);
  void stage_and_push(double t, Device& d);
  void wake_paused(double t);
  void control_tick(double t);
  void probe_devices(double t);
  bool wave_settled() const;
  void gate_wave(double t);
  void begin_halt(double t, double fraction, const std::string& why);
  void pump_rollbacks(double t);
  void finish(double t, std::uint32_t final_version, const std::string& detail);
  void sample_progress(double t);
  std::uint32_t target_serve_crc(Device& d);

  platform::PlatformSimulator& sim_;
  RolloutConfig cfg_;
  Rng rng_;

  std::vector<Device> devices_;
  safety::OtaPackage target_;
  std::unique_ptr<safety::OtaChunker> chunker_;
  std::uint32_t manifest_crc_ = 0;   ///< expected serve CRC on the target
  std::uint32_t baseline_crc_ = 0;   ///< serve CRC of version 1
  std::optional<std::uint32_t> target_actual_crc_;  ///< first committed device's CRC
  bool baseline_set_ = false;
  bool target_set_ = false;

  std::size_t wave_index_ = 0;
  std::size_t wave_begin_ = 0;  ///< device index range of the active wave
  std::size_t wave_end_ = 0;
  std::size_t last_wave_size_ = 0;
  bool wave_active_ = false;

  bool halting_ = false;
  std::vector<std::size_t> rollback_queue_;  ///< device indices, FIFO
  double rollback_tokens_ = 0;
  double rollback_refill_t_ = 0;
  double rollback_ready_s_ = 0;  ///< next time the bucket can pay a token
  bool pacing_logged_ = false;

  ResponseCache cache_;
  double next_control_s_ = 0;
  bool done_ = false;

  EventLog log_;  ///< moved into report_.events when run() returns
  RolloutReport report_;
  bool ran_ = false;
};

}  // namespace vedliot::serve
