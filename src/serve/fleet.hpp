#pragma once
/// \file fleet.hpp
/// \brief Fleet-scale serving: consistent-hash routing, continuous dynamic
/// batching and queue-depth autoscaling over power-budgeted RECS slots.
///
/// Where Server (server.hpp) hardens ONE serving process against faults,
/// Fleet scales MANY serving replicas against load. One Fleet drives a
/// seeded, fully deterministic discrete-event run:
///
///  * routing — each client key routes through a consistent-hash ring
///    (ring.hpp) to one replica, so a client's requests share a queue and
///    an autoscaling step remaps only ~1/N of clients;
///  * placement — every replica occupies a real chassis slot through
///    platform::FleetPlacement; Chassis::install is the sole admission
///    gate, so replicas can only exist under the per-slot and per-chassis
///    power budgets, and every executed batch is metered against its slot;
///  * dynamic batching — an idle replica opens a short batch window, then
///    coalesces queued requests (EDF order) into the smallest power-of-two
///    bucket that fits (batcher.hpp); while a batch runs, arrivals queue
///    up and the next batch launches the instant the replica frees —
///    continuous batching without a central scheduler;
///  * brownout — a hysteretic ladder (brownout.hpp) shrinks `max_batch`
///    live under sustained queue pressure; in execute mode the shrink
///    travels through Session::set_exec_config on every bucket session, so
///    it is enforced by the runtime, not by fleet bookkeeping;
///  * autoscaling — a control tick compares mean queue depth per replica
///    against watermarks and adds (kScaleUp) or drains (kScaleDown)
///    replicas between configured bounds;
///  * idempotency cache — requests carrying an idempotency key may be
///    answered from an LRU response cache (cache.hpp) without costing a
///    queue slot or a batch lane (retry storms collapse to one execution).
///
/// Every decision is a structured ServeEvent recorded through an EventLog
/// (event_log.hpp) under category "vedliot.fleet": mirrored 1:1 into the
/// optional obs::Tracer as instant spans and counted under `vedliot.fleet.*`.
/// The fleet soak (fleet_soak.hpp, driven by bench/soak.cpp) checks that
/// mirror, plus accounting conservation (every offered request gets exactly
/// one terminal Response) and per-slot power honesty.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "platform/placement.hpp"
#include "serve/batcher.hpp"
#include "serve/brownout.hpp"
#include "serve/cache.hpp"
#include "serve/event_log.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/ring.hpp"
#include "util/rng.hpp"

namespace vedliot::serve {

struct FleetConfig {
  /// Deployment model: single-input single-output, materialized weights
  /// (deployment-ready when `quantized`). Must outlive the fleet.
  const Graph* graph = nullptr;
  DType dtype = DType::kFP32;  ///< cost-model precision
  bool quantized = false;      ///< execute via make_quantized_session

  /// Run real tensors through bucket sessions on dispatch (CRC-stamped
  /// responses). Off = analytic timing only (the big sweeps).
  bool execute = false;

  std::int64_t max_batch = 8;  ///< widest batch bucket (healthy cap)

  /// Brownout rungs over `max_batch` (variant index is ignored — the fleet
  /// serves one model; the knob is exec.max_batch). Empty = a default
  /// halving ladder max_batch, max_batch/2, ..., 1.
  std::vector<BrownoutStep> ladder;
  BrownoutConfig brownout;  ///< max_level forced to ladder size - 1

  std::size_t initial_replicas = 2;
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 16;

  /// Autoscaling watermarks on mean queue depth per active replica,
  /// sampled each control tick.
  double scale_up_depth = 8.0;
  double scale_down_depth = 1.0;

  std::size_t queue_capacity = 64;  ///< per replica (hard bound)
  double batch_window_s = 2e-3;     ///< idle-replica coalescing window
  double control_period_s = 10e-3;  ///< autoscale + brownout tick

  std::size_t cache_capacity = 128;  ///< idempotency cache entries
  std::size_t ring_vnodes = 64;

  /// Chassis model replicas are placed into (first fit, opened on demand)
  /// and the module kinds cycled across placements.
  platform::BaseboardSpec board = platform::recs_box();
  std::vector<std::string> modules = {"COMe-XavierAGX", "COMe-D1577"};

  std::uint64_t seed = 0x5EEDu;  ///< execute-mode input synthesis

  obs::Tracer* trace = nullptr;             ///< 1:1 mirror when set
  obs::MetricsRegistry* metrics = nullptr;  ///< vedliot.fleet.* when set
};

struct FleetReport {
  std::vector<ServeEvent> events;

  /// Terminal outcome for every offered request, in request-id order.
  /// Conservation: size() == offered and the status counts below sum to
  /// offered (fleet_soak asserts both).
  std::vector<Response> responses;

  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t shed = 0;
  std::size_t displaced = 0;
  std::size_t cache_hits = 0;
  std::size_t completed = 0;        ///< within deadline
  std::size_t deadline_missed = 0;  ///< delivered late (structurally avoided)
  std::size_t cancelled = 0;

  std::size_t batches = 0;       ///< kBatchExecuted count
  std::size_t lanes = 0;         ///< real lanes executed
  std::size_t padded_lanes = 0;  ///< zero lanes added to fill buckets

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
  /// The request must be wire version kServeApiVersion.
  std::uint64_t submit(Request r);

  /// Drive the event loop: arrivals within \p duration_s of simulated
  /// time, then drain — every admitted request reaches a terminal state
  /// before run() returns (conservation holds unconditionally).
  FleetReport run(double duration_s);

  /// Live batch cap as the brownout rung allows it (largest bucket width
  /// not above the rung cap). Exposed for tests.
  std::int64_t effective_max_batch() const;

  /// Active replica names in ring order (for tests).
  std::vector<std::string> replicas() const { return ring_.members(); }

  /// The batcher serving \p replica (execute mode; throws NotFound
  /// otherwise) — lets tests watch a brownout shrink through the bucket
  /// sessions' own Session API.
  DynamicBatcher& batcher(const std::string& replica) const;

 private:
  struct Replica {
    std::string name;
    std::unique_ptr<AdmissionQueue> queue;
    std::unique_ptr<DynamicBatcher> batcher;  ///< execute mode only
    double busy_until_s = 0;
    std::optional<double> window_close_s;  ///< open batch window
    bool retired = false;
  };

  struct PendingBatch {
    double finish_s = 0;
    std::size_t replica = 0;
    std::vector<Response> responses;  ///< terminal kOk/kLate, in EDF order
  };

  Replica& replica_of(const std::string& name);
  std::size_t add_replica(double t);
  void drain_replica(double t, std::size_t idx);
  void admit(double t, const Request& r);
  void finish_response(double t, Response r);
  void try_dispatch(double t, std::size_t idx);
  void launch(double t, std::size_t idx, std::vector<Ticket> group);
  void control_tick(double t);
  void apply_brownout(double t, int delta);
  const runtime::ExecConfig& rung_exec() const;
  double latency_s(const Replica& rep, std::int64_t width) const;
  double power_w(const Replica& rep, std::int64_t width) const;
  std::int64_t bucket_width(std::int64_t lanes) const;

  FleetConfig cfg_;
  platform::FleetPlacement placement_;
  HashRing ring_;
  ResponseCache cache_;
  BrownoutLadder ladder_;
  Rng rng_;

  std::vector<Replica> fleet_;  ///< retired replicas stay (names unique)
  std::size_t active_ = 0;
  std::size_t next_replica_ = 0;

  std::vector<std::int64_t> widths_;  ///< bucket widths 1, 2, 4, ..., W
  /// Analytic (latency_s, power_w) per module kind per bucket width,
  /// precomputed from hw::estimate over rebatched clones.
  std::map<std::string, std::map<std::int64_t, std::pair<double, double>>> perf_;
  /// Routing weight per module kind: analytic full-batch throughput,
  /// normalized so the fastest module is 1.0. Slower modules own
  /// proportionally shorter ring arcs.
  std::map<std::string, double> module_weight_;

  std::vector<Request> arrivals_;              ///< sorted by arrival at run()
  std::map<std::uint64_t, Request> requests_;  ///< by id
  std::vector<PendingBatch> in_flight_;        ///< sorted by finish time
  std::map<std::uint64_t, Response> responses_;  ///< terminal, by id
  std::uint64_t next_id_ = 1;

  EventLog log_;  ///< moved into report_.events when run() returns
  FleetReport report_;
  bool ran_ = false;
};

}  // namespace vedliot::serve
