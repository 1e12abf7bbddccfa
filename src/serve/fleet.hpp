#pragma once
/// \file fleet.hpp
/// \brief The serving engine: consistent-hash routing, continuous dynamic
/// batching and queue-depth autoscaling over power-budgeted RECS slots,
/// with per-replica fault, retry and integrity policies.
///
/// One Fleet drives a seeded, fully deterministic discrete-event run:
///
///  * routing — each client key routes through a consistent-hash ring
///    (ring.hpp) to one replica, so a client's requests share a queue and
///    an autoscaling step remaps only ~1/N of clients;
///  * placement — every replica occupies a real chassis slot through
///    platform::FleetPlacement, so replicas exist only under the per-slot
///    and per-chassis power budgets, and every batch is metered to its slot;
///  * dynamic batching — an idle replica opens a short batch window, then
///    coalesces queued requests (EDF order) into one batch, costed as the
///    smallest power-of-two bucket that fits (batcher.hpp); the next batch
///    launches the instant the replica frees — continuous batching without
///    a central scheduler;
///  * deadlines — dispatch cancels every member whose deadline the batch's
///    own latency would bust, so work is never served late unless a thermal
///    throttle stretches the batch in flight;
///  * brownout — a hysteretic ladder (brownout.hpp) shrinks `max_batch`
///    and may switch to a cheaper model variant under sustained pressure;
///    in execute mode the shrink travels through Session::set_exec_config,
///    so the runtime enforces it, not fleet bookkeeping;
///  * autoscaling — a control tick adds (kScaleUp) or drains (kScaleDown)
///    replicas on mean queue depth per replica, between configured bounds;
///  * idempotency cache — a repeated idempotency key may be answered from
///    an LRU response cache (cache.hpp) without a queue slot or batch lane.
///
/// What the caller attaches switches the fault policies on; with nothing
/// attached the engine logs no fault event and draws no random number.
///
///  * FleetConfig::sim (a platform::PlatformSimulator) is the chassis the
///    replicas run in: a replica's slot is the one its crashes, throttles,
///    partitions and transient transfer errors hit. Each replica's breaker
///    (breaker.hpp) is fed by its batches' transfer legs and HealthMonitor
///    heartbeats; open takes it out of the ring (its clients and queued
///    tickets remap as for a drain), half-open puts it back for probes, and
///    an empty ring sheds. A failed batch retries each member under its
///    client's retry-token budget with jittered backoff, or ends it kFailed.
///    The replica set is fixed, so an idle replica takes a batch off the
///    deepest peer queue, and busy replicas hold a degraded brownout rung.
///  * FleetConfig::store (a safety::ModelStore) turns on integrity mode:
///    each replica serves its own deployed copy, so an SEU (kMemoryFault)
///    on a slot corrupts only that replica's weights. A per-replica
///    WeightScrubber re-hashes a few tensors per control tick; a hit (or a
///    checked-faulty robustness verdict) quarantines the replica (breaker
///    forced open), repairs the tensors from the golden package (restores
///    when repair fails) and rebuilds its batcher. OTA pushes (submit_ota)
///    stage, verify and swap through the store; corruption inside the
///    post-commit probation window rolls the update back fleet-wide.
///
/// Every decision is a ServeEvent recorded through an EventLog under
/// category "vedliot.fleet": mirrored 1:1 into the optional obs::Tracer
/// and counted under `vedliot.fleet.*`. The soaks (fleet_soak.hpp,
/// soak.hpp, integrity_soak.hpp) check that mirror and accounting
/// conservation (one terminal Response per offered request).

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
#include "platform/health.hpp"
#include "platform/placement.hpp"
#include "safety/model_store.hpp"
#include "safety/robustness.hpp"
#include "safety/scrub.hpp"
#include "serve/batcher.hpp"
#include "serve/breaker.hpp"
#include "serve/brownout.hpp"
#include "serve/cache.hpp"
#include "serve/event_log.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/ring.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {

struct FleetConfig {
  /// The healthy model: single-input single-output, materialized weights
  /// when executed or protected. Must outlive the fleet.
  const Graph* graph = nullptr;

  /// The models brownout rungs name (a rung's `variant` indexes this list).
  /// variants[0] is the healthy model and must name `graph`; empty = one
  /// variant, `graph` costed at fp32. Execute and integrity mode serve one
  /// variant. Graphs must outlive the fleet.
  std::vector<ModelVariant> variants;

  /// Run real tensors through each replica's batcher on dispatch
  /// (CRC-stamped responses). Off = analytic timing only (the big sweeps).
  bool execute = false;

  std::int64_t max_batch = 8;  ///< widest batch bucket (healthy cap)

  /// Brownout rungs: which variant serves and the batch cap
  /// (exec.max_batch). Empty = a default halving ladder max_batch,
  /// max_batch/2, ..., 1 over variant 0.
  std::vector<BrownoutStep> ladder;
  BrownoutConfig brownout;

  std::size_t initial_replicas = 2;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 16;

  /// Autoscaling watermarks on mean queue depth per active replica,
  /// sampled each control tick.
  static constexpr double kScaleUpDepth = 8.0;
  static constexpr double kScaleDownDepth = 1.0;
  static_assert(kScaleDownDepth < kScaleUpDepth, "scale-down watermark must sit below scale-up");

  std::size_t queue_capacity = 64;  ///< per replica (hard bound)
  double batch_window_s = 2e-3;     ///< idle-replica coalescing window
  double control_period_s = 10e-3;  ///< autoscale, brownout, health and scrub tick

  static constexpr std::size_t kCacheCapacity = 128;  ///< idempotency cache entries
  static constexpr std::size_t kRingVnodes = 64;

  /// Module kinds cycled across placements, first fit into RECS|Box chassis
  /// opened on demand (the simulator's chassis when `sim` is set).
  std::vector<std::string> modules = {"COMe-XavierAGX", "COMe-D1577"};

  std::uint64_t seed = 0x5EEDu;  ///< execute-mode inputs + retry backoff jitter

  obs::Tracer* trace = nullptr;             ///< 1:1 mirror when set
  obs::MetricsRegistry* metrics = nullptr;  ///< vedliot.fleet.* when set

  /// Fault source: the simulated chassis the replicas run in (see file
  /// comment). Its chassis must hold, in each replica's placement slot, the
  /// module placed there, and the replica set is fixed (min == initial ==
  /// max). Must outlive the fleet.
  platform::PlatformSimulator* sim = nullptr;
  BreakerConfig breaker;                  ///< per-replica breaker (with `sim`)
  double retry_tokens_per_request = 0.2;  ///< earned per offered request (with `sim`)

  /// Per-client worst-case sandbox surcharge in seconds, from each tenant
  /// module's static fuel bound (security::tenant_cost_s over a verifier
  /// ModuleAdmission). It counts in dispatch feasibility and in the batch's
  /// finish time; +infinity (wasm.cost.unbounded) sheds the tenant's
  /// requests at admission. Clients not in the map pay nothing.
  std::map<std::string, double> tenant_cost_s;

  /// Output plausibility check (Sec. IV-B): in execute mode every delivered
  /// response is submitted; a checked-faulty verdict marks it
  /// kQualityDegraded but still delivers it. Must outlive the fleet.
  safety::RobustnessService* robustness = nullptr;

  /// Integrity mode (needs `sim`; see file comment). The golden package is
  /// installed under variants[0]'s name on first use. Must outlive the
  /// fleet.
  safety::ModelStore* store = nullptr;
  safety::WeightScrubber::Config scrub;  ///< per-replica re-hash budget per tick
  /// After an OTA commit, a scrub hit within this many full sweeps is
  /// attributed to the push itself: roll back instead of repairing.
  std::size_t ota_probation_sweeps = 1;
};

struct FleetReport {
  std::vector<ServeEvent> events;

  /// Terminal outcome for every offered request, in request-id order.
  /// Conservation: size() == offered and completed + deadline_missed +
  /// shed + cancelled + failed == offered (the soaks assert both).
  std::vector<Response> responses;

  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;             ///< refused or displaced (terminal kShed)
  std::size_t displaced = 0;
  std::size_t cache_hits = 0;
  std::size_t completed = 0;        ///< within deadline
  std::size_t deadline_missed = 0;  ///< delivered late (thermal stretch only)
  std::size_t cancelled = 0;
  std::size_t failed = 0;           ///< gave up after failed batches
  std::size_t retries = 0;          ///< re-queued members of failed batches

  std::size_t batches = 0;       ///< kBatchExecuted count
  std::size_t lanes = 0;         ///< real lanes executed
  std::size_t padded_lanes = 0;  ///< lanes billed beyond `lanes` (bucket cost)

  std::size_t max_queue_depth = 0;  ///< max depth of any one replica queue
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t max_replicas = 0;
  std::size_t final_replicas = 0;
  int max_brownout_level = 0;
  int final_brownout_level = 0;

  double busy_s = 0;    ///< summed replica busy time
  double energy_j = 0;  ///< summed metered energy

  std::vector<platform::FleetPlacement::SlotPower> power;  ///< per replica

  std::size_t quality_degraded = 0;  ///< checked-faulty deliveries

  // Integrity mode (0 unless FleetConfig::store is set).
  std::size_t memory_faults = 0;     ///< SEU events applied to deployed copies
  std::size_t scrub_hits = 0;        ///< corrupted tensors localized
  std::size_t quarantines = 0;       ///< replicas force-opened for reload
  std::size_t model_reloads = 0;     ///< golden repairs / full restores
  std::size_t ota_staged = 0;
  std::size_t ota_committed = 0;
  std::size_t ota_rejected = 0;
  std::size_t ota_rolled_back = 0;
  std::size_t integrity_checks = 0;  ///< robustness checks over deliveries
  std::size_t integrity_faults = 0;  ///< checked-faulty verdicts
  std::size_t dirty_at_end = 0;      ///< corrupt tensors left after the run

  /// In-deadline completions (cache hits included) over offered load.
  double goodput() const;

  /// Deterministic JSON summary; bitwise-identical for identical
  /// configs, which the fleet soak checks by string compare.
  std::string to_json() const;
};

/// The tensor the execute path feeds for \p r: synthesized from the
/// payload handle (falling back to the request id) at the graph input's
/// lane shape widened to the request's batch. Shared with the soak
/// harness so its batch-vs-singleton equality check reproduces the exact
/// fleet inputs.
Tensor synthesize_input(const Graph& graph, std::uint64_t seed, const Request& r);

/// One-shot fleet run: submit the offered load, then run() once.
class Fleet {
 public:
  explicit Fleet(FleetConfig config);
  ~Fleet();

  /// Register one offered request (before run()). Returns the request id.
  /// Throws Error unless the request is wire version kServeApiVersion with
  /// a client key, a deadline after its arrival, batch >= 1 and an id not
  /// submitted before.
  std::uint64_t submit(Request r);

  /// Schedule an over-the-air update of the served model at simulated time
  /// \p t (integrity mode; before run()). The update must keep the model's
  /// architecture — only weights change.
  void submit_ota(double t, safety::OtaPackage update);

  /// Drive the event loop: arrivals within \p duration_s of simulated
  /// time, then drain — every offered request reaches a terminal state
  /// before run() returns (conservation holds unconditionally).
  FleetReport run(double duration_s);

  /// Live batch cap as the brownout rung allows it (largest bucket width
  /// not above the rung cap). Exposed for tests.
  std::int64_t effective_max_batch() const;

  /// Replicas in the routing ring, in ring order (for tests).
  std::vector<std::string> replicas() const { return ring_.members(); }

 private:
  struct Replica {
    std::string name;
    std::string slot;        ///< chassis slot its placement holds
    std::string served_by;   ///< "replica3/box0/come1"
    std::string tag;         ///< " on <slot>" in dispatch events with a simulator
    std::size_t kind = 0;    ///< module kind: index into perf_
    std::unique_ptr<AdmissionQueue> queue;
    std::unique_ptr<DynamicBatcher> batcher;  ///< execute mode only
    double busy_until_s = 0;
    std::optional<double> window_close_s;  ///< open batch window (or wakeup)
    bool retired = false;
    CircuitBreaker breaker;  ///< fed only with a simulator attached
    std::unique_ptr<Graph> deployed;  ///< integrity mode: its own served copy
    std::unique_ptr<safety::WeightScrubber> scrubber;
    std::size_t probation = 0;  ///< post-OTA probation ticks left
  };

  struct PendingBatch {
    double finish_s = 0;
    std::size_t replica = 0;
    double gops_scale = 1.0;          ///< slot capacity finish_s assumes
    std::vector<Response> responses;  ///< terminal kOk/kLate, in EDF order
    std::vector<Tensor> inputs, outputs;  ///< kept for the robustness check
  };

  struct PendingOta {
    double time_s = 0;
    safety::OtaPackage update;
    bool corrupted = false;  ///< a kOtaCorrupt marker fell on this payload
  };

  /// Analytic cost of one bucket on one module kind for one variant.
  struct Cost {
    double latency_s = 0;
    double power_w = 0;
  };

  std::size_t index_of(const std::string& name) const;
  std::size_t add_replica();
  void drain_replica(double t, std::size_t idx);
  void rebuild_batcher(Replica& rep);
  void admit(double t, const Request& r);
  bool make_room(double t, Replica& rep, int priority, const std::string& subject);
  void end_request(double t, std::uint64_t id, ResponseStatus status);
  void finish_response(double t, Response r);
  void try_dispatch(double t, std::size_t idx);
  void launch(double t, std::size_t idx, std::vector<Ticket> group);
  void schedule(PendingBatch batch);
  void finish_batch(double t, PendingBatch batch);
  void control_tick(double t);
  void apply_brownout(double t, int delta);
  const runtime::ExecConfig& rung_exec() const;
  double surcharge_s(const Request& r) const;
  std::string variant_tag() const;

  // Fault policies (reached only with cfg_.sim set).
  std::optional<std::size_t> replica_at(const std::string& slot) const;
  /// One transfer attempt: empty on success, else why it failed.
  std::string transfer(const std::string& from, const std::string& to);
  void fail_batch(double t, std::size_t idx, ServeEventKind kind, const std::string& detail,
                  const std::vector<std::uint64_t>& members);
  void retry_or_fail(double t, std::uint64_t id, std::size_t idx, const std::string& reason);
  void wake(double t, std::size_t idx, double at);
  void on_transition(double t, std::size_t idx, const BreakerTransition& tr);
  void fault_tick(double t);
  void apply_fault(double t, const platform::FaultEvent& e);
  void stretch(double t, const std::string& slot);
  void steal(double t, Replica& thief);

  // Integrity mode (reached only with cfg_.store set).
  void check_delivery(double t, std::size_t idx, const Response& resp, const Tensor& input,
                      const Tensor& output);
  void log_hits(double t, const Replica& rep, const std::vector<safety::WeightScrubber::Hit>& hits,
                const char* how);
  void recover(double t, std::size_t idx, const std::vector<safety::WeightScrubber::Hit>& hits,
               bool in_probation);
  void redeploy();
  void process_ota(double t, PendingOta ota);

  FleetConfig cfg_;
  platform::FleetPlacement placement_;
  HashRing ring_;
  ResponseCache cache_;
  BrownoutLadder ladder_;
  Rng rng_;        ///< retry backoff jitter
  Rng fault_rng_;  ///< SEU bit picks + OTA payload damage

  std::vector<Replica> fleet_;  ///< retired replicas stay (names unique)
  std::size_t active_ = 0;
  std::size_t next_replica_ = 0;

  std::vector<std::int64_t> widths_;   ///< bucket widths 1, 2, 4, ..., W
  std::vector<std::string> kinds_;     ///< distinct module kinds of cfg_.modules
  std::vector<double> kind_weight_;    ///< ring weight per kind
  /// Analytic cost per variant, per module kind, per bucket, precomputed
  /// from hw::estimate over rebatched clones.
  std::vector<std::vector<std::vector<Cost>>> perf_;

  std::vector<Request> arrivals_;              ///< sorted by arrival at run()
  std::map<std::uint64_t, Request> requests_;  ///< by id
  std::vector<PendingBatch> in_flight_;        ///< sorted by finish time
  std::map<std::uint64_t, Response> responses_;  ///< terminal, by id
  std::uint64_t next_id_ = 1;
  double busy_mark_s_ = 0;  ///< report_.busy_s at the last control tick

  // Fault-policy state (empty without a simulator).
  std::optional<platform::HealthMonitor> health_;
  std::map<std::string, double> retry_tokens_;  ///< by client
  std::map<std::uint64_t, int> attempts_;       ///< failed attempts by request id
  std::vector<PendingOta> otas_;                ///< sorted by time
  std::size_t next_ota_ = 0;

  EventLog log_;  ///< moved into report_.events when run() returns
  FleetReport report_;
  bool ran_ = false;
};

}  // namespace vedliot::serve
