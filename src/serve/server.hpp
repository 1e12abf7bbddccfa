#pragma once
/// \file server.hpp
/// \brief Overload-safe serving front-end over a fault-injecting platform.
///
/// One Server drives a set of backend slots on a PlatformSimulator through
/// a seeded, fully deterministic discrete-event run:
///
///  * admission control — a bounded priority/EDF queue (queue.hpp); an
///    arrival is shed (never silently queued) when the queue is full, when
///    no backend is currently allowed, or when a conservative wait-bound
///    estimate from the hw cost model says its deadline is infeasible;
///  * deadline enforcement — queued tickets past their deadline are
///    cancelled; dispatch re-checks feasibility against the fastest
///    allowed backend before committing compute;
///  * failure handling — per-backend circuit breakers (breaker.hpp) fed
///    by transfer/completion failures and by heartbeat down/up beats from
///    platform::HealthMonitor; failed requests retry with full-jitter
///    exponential backoff, bounded by a per-client retry-token budget;
///  * brownout degradation — a hysteretic ladder (brownout.hpp) that steps
///    the deployment through cheaper configurations (int8, smaller batch,
///    smaller model) under sustained overload and back up when calm;
///  * integrity self-healing (integrity mode, set ServerConfig::store) —
///    the server serves from its own deployed clones of the variant graphs,
///    an incremental safety::WeightScrubber re-hashes a few weight tensors
///    per control tick against the golden digest table, and a scrub hit (or
///    a checked-faulty robustness verdict) quarantines the implicated
///    backend, re-materializes the corrupted tensors from the golden
///    package in the safety::ModelStore, rebuilds the serving session and
///    returns to service; OTA pushes (submit_ota) stage, verify and swap
///    through the store, with corruption during the post-swap probation
///    window rolling the update back instead of repairing.
///
/// Every decision is a structured ServeEvent recorded through an EventLog
/// (event_log.hpp) under category "vedliot.serve": mirrored 1:1 into the
/// optional obs::Tracer as instant spans and counted in the optional
/// obs::MetricsRegistry under `vedliot.serve.*`. The chaos and integrity
/// soaks (soak.hpp, integrity_soak.hpp, driven by bench/soak.cpp) check
/// that mirror on every run.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/faults.hpp"
#include "platform/health.hpp"
#include "runtime/session.hpp"
#include "safety/model_store.hpp"
#include "safety/robustness.hpp"
#include "safety/scrub.hpp"
#include "serve/breaker.hpp"
#include "serve/brownout.hpp"
#include "serve/event_log.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {

// ModelVariant and BrownoutStep (both pre-v2 residents of this header)
// now live with the ladder in brownout.hpp; Request moved to request.hpp
// as the versioned v2 wire struct.

struct ServerConfig {
  std::vector<std::string> backends;   ///< slots of the simulator's chassis
  std::vector<ModelVariant> variants;  ///< at least ladder.front().variant
  std::vector<BrownoutStep> ladder;    ///< healthy rung first

  QueueConfig queue;
  BreakerConfig breaker;
  BrownoutConfig brownout;             ///< max_level forced to ladder size - 1
  platform::HealthConfig health;

  double control_period_s = 10e-3;     ///< heartbeat / breaker / brownout tick
  std::string ingress = "switch0";     ///< fabric node requests enter/leave by

  double retry_tokens_per_request = 0.2;  ///< earned per offered request
  double retry_token_cap = 8.0;           ///< per-client bucket ceiling
  double backoff_base_s = 2e-3;
  double backoff_cap_s = 20e-3;
  /// Full-jitter backoff floor (Rng::backoff_s): 0 keeps the classic
  /// [0, ceiling) draw; a positive floor stops retries from landing ~0 s
  /// apart under loss. Default 0 preserves pre-floor event schedules.
  double backoff_floor_s = 0.0;

  std::uint64_t seed = 0x5EEDu;        ///< backoff jitter + execute inputs

  obs::Tracer* trace = nullptr;            ///< 1:1 event mirror when set
  obs::MetricsRegistry* metrics = nullptr; ///< vedliot.serve.* when set

  /// Optional output plausibility check (Sec. IV-B): in execute mode every
  /// completed response is submitted; a checked-faulty verdict marks the
  /// response quality-degraded (kQualityDegraded) but still delivered.
  /// Must outlive the server when set.
  safety::RobustnessService* robustness = nullptr;

  /// Run real tensors through runtime sessions on completion (variants
  /// need materialized / deployment-ready graphs). Off = analytic timing
  /// only, which is what the chaos soak uses. Per-rung execution resources
  /// (batch cap, intra-op threads) travel in each BrownoutStep's ExecConfig.
  bool execute = false;

  /// Integrity mode: when set, the server clones every variant graph at
  /// construction and serves from its own deployed copies (variant graphs
  /// need materialized weights). Golden packages are installed into the
  /// store under each variant's name on first use; a WeightScrubber per
  /// deployed copy re-hashes `scrub.tensors_per_tick` tensors every control
  /// tick, and detected corruption self-heals through the store (see
  /// file-level comment). Must outlive the server.
  safety::ModelStore* store = nullptr;
  safety::WeightScrubber::Config scrub;   ///< per-tick re-hash budget

  /// After an OTA commit, a scrub hit within this many full sweeps is
  /// attributed to the push itself (the freshly-written image is bad):
  /// roll back instead of repairing.
  std::size_t ota_probation_sweeps = 1;

  /// Per-client worst-case sandbox surcharge in seconds, derived from each
  /// tenant module's static fuel bound (security::tenant_cost_s over a
  /// verifier ModuleAdmission). Added to admission estimates and dispatch
  /// feasibility for that client's requests. +infinity — the verifier found
  /// no static bound (wasm.cost.unbounded) — sheds the tenant's requests at
  /// admission. Clients not in the map pay no surcharge.
  std::map<std::string, double> tenant_cost_s;
};

struct ServeReport {
  std::vector<ServeEvent> events;

  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t displaced = 0;
  std::size_t completed = 0;         ///< within deadline
  std::size_t deadline_missed = 0;   ///< delivered late
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t retries = 0;
  std::size_t quality_degraded = 0;

  std::size_t max_queue_depth = 0;
  int max_brownout_level = 0;
  int final_brownout_level = 0;

  // Integrity mode (0 unless ServerConfig::store is set).
  std::size_t memory_faults = 0;     ///< SEU events applied to deployed models
  std::size_t scrub_hits = 0;        ///< corrupted tensors localized
  std::size_t quarantines = 0;       ///< backends force-opened for reload
  std::size_t model_reloads = 0;     ///< golden repairs / full restores
  std::size_t ota_staged = 0;
  std::size_t ota_committed = 0;
  std::size_t ota_rejected = 0;
  std::size_t ota_rolled_back = 0;
  std::size_t integrity_checks = 0;  ///< robustness checks over deliveries
  std::size_t integrity_faults = 0;  ///< checked-faulty verdicts
  std::size_t dirty_at_end = 0;      ///< corrupt tensors left after the run

  /// In-deadline completions over offered load (0 when nothing offered).
  double goodput() const;
};

/// Serving front-end over one PlatformSimulator. One-shot: submit the
/// offered load, then run() once.
class Server {
 public:
  Server(platform::PlatformSimulator& sim, ServerConfig config);
  ~Server();

  /// Register one offered request (before run()). Returns the request id.
  /// The request must be wire version kServeApiVersion.
  std::uint64_t submit(Request r);

  /// Schedule an over-the-air update for \p variant's store entry at
  /// simulated time \p t (integrity mode only; call before run()). The
  /// update must keep the variant's architecture — only weights change.
  void submit_ota(double t, std::size_t variant, safety::OtaPackage update);

  /// Drive the serving loop for \p duration_s of simulated time.
  ServeReport run(double duration_s);

 private:
  struct InFlight {
    Ticket ticket;
    std::string slot;
    double started_s = 0;
    double finish_s = 0;
    double gops_scale = 1.0;  ///< capacity assumed when finish_s was set
  };

  struct PendingOta {
    double time_s = 0;
    std::size_t variant = 0;
    safety::OtaPackage update;
    bool corrupted = false;  ///< a kOtaCorrupt marker fell on this payload
  };

  void log_transition(double t, const std::string& slot, const BreakerTransition& tr);
  const BrownoutStep& rung() const { return cfg_.ladder[static_cast<std::size_t>(level_)]; }
  double service_time(const std::string& slot, std::int64_t batch) const;
  /// Static-fuel-bound surcharge for this client (0 when unconfigured,
  /// +inf for cost-unbounded tenants).
  double tenant_overhead(const std::string& client) const;
  /// Fastest/slowest healthy-rate service time over allowed backends; empty
  /// when every breaker is open.
  std::optional<std::pair<double, double>> service_bounds(std::int64_t batch) const;
  void admit(const Request& r);
  void control_tick(double t);
  void try_dispatch(double t);
  void finish(double t, InFlight f);
  void retry_or_fail(double t, Ticket ticket, const std::string& reason);
  void apply_brownout(double t, int delta);
  void execute_request(double t, const Ticket& ticket, const std::string& slot);

  // Integrity mode (all no-ops unless cfg_.store is set).
  void apply_memory_fault(double t, const platform::FaultEvent& e);
  void corrupt_next_ota();
  void process_ota(double t, PendingOta ota);
  void scrub_tick(double t);
  void quarantine(double t, const std::string& slot, const std::string& why);
  void recover(double t, std::size_t variant,
               std::span<const safety::WeightScrubber::Hit> hits, bool in_probation);
  void rebuild_session(std::size_t variant);

  platform::PlatformSimulator& sim_;
  ServerConfig cfg_;
  Rng rng_;

  AdmissionQueue queue_;
  BrownoutLadder ladder_;
  platform::HealthMonitor health_;
  std::map<std::string, CircuitBreaker> breakers_;
  std::map<std::string, InFlight> in_flight_;      ///< by slot
  int level_ = 0;

  std::vector<Request> arrivals_;                   ///< sorted by arrival
  std::size_t next_arrival_ = 0;
  std::map<std::uint64_t, Request> requests_;       ///< by id
  std::map<std::uint64_t, int> attempts_;           ///< dispatch attempts by id
  std::map<std::string, double> retry_tokens_;      ///< by client
  std::uint64_t next_id_ = 1;

  /// Per-variant base service time by backend slot, at the variant graph's
  /// native batch (scaled linearly by request batch / gops_scale at use).
  mutable std::vector<std::map<std::string, double>> base_latency_;

  std::vector<std::unique_ptr<runtime::Session>> sessions_;  ///< execute mode

  // Integrity mode state (empty when cfg_.store is null).
  std::vector<std::unique_ptr<Graph>> deployed_;  ///< served clones, by variant
  std::vector<std::unique_ptr<safety::WeightScrubber>> scrubbers_;
  std::vector<std::size_t> probation_;   ///< post-OTA probation ticks left
  std::string suspect_slot_;             ///< backend hit by the last SEU
  std::vector<PendingOta> otas_;         ///< sorted by time
  std::size_t next_ota_ = 0;
  Rng fault_rng_;                        ///< SEU bit picks + payload damage

  EventLog log_;  ///< moved into report_.events when run() returns
  ServeReport report_;
  bool ran_ = false;
};

}  // namespace vedliot::serve
