#pragma once
/// \file resilience.hpp
/// \brief Resilient distributed inference runtime (Sec. II-A "seamless
/// switching between heterogeneous components" + Sec. IV-B run-time fault
/// detection).
///
/// Drives a pipeline-parallel plan through a fault-injecting
/// PlatformSimulator timeline: heartbeat-based health detection with a
/// miss threshold, retry with exponential backoff + jitter for transient
/// fabric faults, automatic stage failover that replans onto surviving
/// slots (reusing plan_distributed_inference, with
/// ResourceManager::migrate as the capacity admission check), and
/// graceful degradation to a cheaper precision or fewer stages when the
/// surviving capacity cannot meet the latency budget. Every step is
/// recorded in a structured event log: fault injected -> detected after N
/// heartbeats -> recovery action -> recovered latency/throughput.

#include <deque>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "platform/distributed.hpp"
#include "platform/faults.hpp"
#include "platform/health.hpp"
#include "safety/robustness.hpp"
#include "util/rng.hpp"

namespace vedliot::platform {

enum class ResilienceEventKind {
  kFaultInjected,     ///< the simulator applied a platform fault
  kHeartbeatMiss,     ///< a pipeline slot failed to answer a heartbeat
  kFaultDetected,     ///< miss threshold reached / verdict / partition hit
  kTransientFault,    ///< one transfer attempt failed transiently
  kRetry,             ///< backing off before re-attempting a transfer
  kTransferTimeout,   ///< retry budget exhausted; frame dropped
  kFailover,          ///< stage(s) moved off a failed slot
  kDegradedPrecision, ///< replanned at a cheaper DType
  kDegradedStages,    ///< replanned with fewer pipeline stages
  kRecovered,         ///< new plan live; value = recovered throughput (fps)
  kUnrecoverable,     ///< no surviving slot can host the pipeline
};

/// The event's name in log lines and tracer instants ("fault-detected", ...).
std::string_view event_name(ResilienceEventKind kind);

/// One structured event: `subject` is the slot, link or stage it is about,
/// `value` kind-specific (misses, backoff s, fps, ...). obs::format_event
/// renders it as "[  0.0300s] fault-detected     slot come1  ...".
using ResilienceEvent = obs::Event<ResilienceEventKind>;

struct ResilienceConfig {
  double heartbeat_period_s = 10e-3;  ///< health-probe cadence
  int heartbeat_miss_threshold = 3;   ///< consecutive misses -> dead

  int max_transfer_attempts = 5;      ///< per stage boundary per frame;
                                      ///< clamped to kTransferAttemptCap
  double backoff_base_s = 1e-3;       ///< exponential backoff base
  double backoff_cap_s = 32e-3;       ///< backoff ceiling

  double latency_budget_s = 1.0;      ///< one-frame budget gating degradation
  /// Cheaper precisions to fall back through (tried in order) when the
  /// surviving capacity misses the latency budget at the current DType.
  std::vector<DType> precision_ladder;

  double redeploy_gbps = 1.0;         ///< management-net speed for shipping
                                      ///< stage weights to a new slot
  double restart_latency_s = 50e-3;   ///< per moved stage (load + warmup)

  std::uint64_t seed = 0x5EEDu;       ///< backoff jitter determinism

  /// Optional span sink: every structured event is mirrored as an instant
  /// span (category "vedliot.platform.resilience", through obs::EventLog),
  /// replans emit planner spans, and the whole run is wrapped in a
  /// "resilience.run" span (category "vedliot.platform.resilience.run"). The
  /// report's own event vector is unchanged, so determinism under a fixed
  /// seed is unaffected. Must outlive the controller when set.
  obs::Tracer* trace = nullptr;
};

struct ResilienceReport {
  std::vector<ResilienceEvent> events;

  DistributedPlan healthy_plan;  ///< the plan before any fault
  DistributedPlan final_plan;    ///< the plan live at the end of the run
  DType final_dtype = DType::kINT8;
  std::size_t final_stages = 0;
  bool pipeline_alive = true;    ///< false after kUnrecoverable

  std::vector<double> detection_latencies_s;  ///< inject -> detect
  std::vector<double> recovery_times_s;       ///< detect -> plan live again

  std::size_t frames_completed = 0;
  std::size_t frames_dropped = 0;
  std::size_t transfer_retries = 0;
  std::size_t failovers = 0;
  std::size_t degradations = 0;

  double mean_detection_latency_s() const;
  double mean_recovery_time_s() const;
  /// final vs healthy steady-state throughput (1.0 = fully recovered).
  double degraded_throughput_ratio() const;

  /// Machine-readable summary (one JSON object, events included) for log
  /// pipelines; round-trips through obs::json_parse.
  std::string to_json() const;
};

/// Orchestrates one distributed pipeline over a PlatformSimulator.
class ResilienceController {
 public:
  /// Hard cap on ResilienceConfig::max_transfer_attempts: the per-frame
  /// retry loop stays bounded even when a caller passes a huge budget, so
  /// a long soak against a permanently-failing link cannot wedge the run.
  static constexpr int kTransferAttemptCap = 64;

  ResilienceController(const Graph& g, PlatformSimulator& sim,
                       std::vector<std::string> slots, std::size_t num_stages,
                       DType dtype, ResilienceConfig config);

  /// External fault-detection source (Sec. IV-B): a checked-faulty verdict
  /// from the robustness service marks the deployed model on \p slot as
  /// corrupted at \p time_s of the coming run — the slot is quarantined and
  /// its stages fail over immediately, without waiting for heartbeats
  /// (the module still answers them; its *outputs* are wrong).
  void report_verdict(const std::string& slot, safety::CheckResult verdict, double time_s);

  /// Drive the pipeline for \p duration_s of simulated time: apply the
  /// simulator's fault schedule, detect, retry, fail over, degrade, and
  /// account per-frame progress. One-shot per controller.
  ResilienceReport run(double duration_s);

  /// The structured event log recorded so far (valid during and after
  /// run(); grows as the run progresses).
  std::span<const ResilienceEvent> events() const { return log_.events(); }

 private:
  struct PendingVerdict {
    double time_s = 0;
    std::string slot;
  };

  void note_injected(double t, const std::vector<FaultEvent>& applied);
  void heartbeat_tick(double t);
  void verdict_tick(double t);
  bool capacity_admits(const std::vector<std::string>& avail, DType dt) const;
  void recover(double t, const std::string& reason);
  void process_frames(double t);
  bool process_one_frame(double t);

  const Graph& graph_;
  PlatformSimulator& sim_;
  std::vector<std::string> slots_;       ///< slots the pipeline may use
  std::size_t preferred_stages_;
  DType preferred_dtype_;
  ResilienceConfig cfg_;
  Rng rng_;

  DistributedPlan plan_;
  DType dtype_;
  std::size_t stages_;
  bool plan_valid_ = false;

  HealthMonitor health_;                       ///< heartbeat miss detection
  std::map<std::string, double> undetected_;   ///< subject -> inject time
  std::set<std::string> quarantined_;          ///< corrupt-model slots
  std::deque<PendingVerdict> verdicts_;        ///< sorted by arrival time
  bool need_replan_ = false;
  std::string replan_reason_;

  double stall_until_ = 0;   ///< pipeline paused while redeploying
  double frame_credit_ = 0;  ///< fractional frames owed to the pipeline
  double detect_mark_ = -1;  ///< detection time backing the next recovery

  obs::EventLog<ResilienceEventKind> log_;  ///< copied into report_.events by run()
  ResilienceReport report_;
  bool ran_ = false;
};

}  // namespace vedliot::platform
