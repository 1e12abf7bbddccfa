#include "soak/fleet_soak.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "graph/zoo.hpp"
#include "obs/json.hpp"
#include "soak/soak.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot::soak {

using namespace serve;

namespace {

/// Independent stream seeds (same scheme as chaos_soak.cpp): the traffic must be
/// identical across fleet sizes for the monotonicity check, and weight
/// materialization must not perturb it.
constexpr std::uint64_t kLoadStream = 0xA11CEull;
constexpr std::uint64_t kWeightStream = 0x3E16Dull;

/// Execute-mode invariant 2: a sample of batched outputs, re-run as
/// singleton sessions over the same synthesized inputs, must match
/// CRC-for-CRC — lane independence makes batching invisible bitwise.
void check_batched_equality(const FleetSoakConfig& cfg, const Graph& model,
                            const FleetReport& report, const Submitted& requests,
                            std::vector<std::string>& violations) {
  std::map<std::int64_t, std::unique_ptr<Graph>> ref_graphs;
  std::map<std::int64_t, std::unique_ptr<runtime::Session>> ref_sessions;
  std::size_t checked = 0;
  for (const Response& r : report.responses) {
    if (checked >= FleetSoakConfig::kEqualitySamples) break;
    if (r.status != ResponseStatus::kOk || r.cache_hit || r.served_by.empty()) continue;
    const Request& req = requests.at(r.request_id);
    auto& session = ref_sessions[req.batch];
    if (!session) {
      ref_graphs[req.batch] = std::make_unique<Graph>(rebatched(model, req.batch));
      session = runtime::make_session(*ref_graphs[req.batch], {});
    }
    const Tensor input = synthesize_input(model, cfg.seed, req);
    const Tensor output = session->run_single(input);
    const std::uint32_t crc = util::crc32(output.data());
    if (crc != r.output_crc32) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "batched-vs-singleton mismatch on request %llu: batched crc %08x != "
                    "singleton crc %08x",
                    static_cast<unsigned long long>(r.request_id), r.output_crc32, crc);
      violations.push_back(buf);
      return;
    }
    ++checked;
  }
}

}  // namespace

std::string FleetSoakResult::to_json() const {
  std::string out = "{\"record\":\"soak-fleet\"";
  out += ",\"seed\":" + obs::json_number(static_cast<double>(config.seed));
  out += ",\"pattern\":\"" + std::string(traffic_pattern_name(config.pattern)) + "\"";
  out += ",\"fleet_size\":" + obs::json_number(static_cast<double>(config.fleet_size));
  out += ",\"autoscale\":" + std::string(config.autoscale ? "true" : "false");
  out += ",\"execute\":" + std::string(config.execute ? "true" : "false");
  out += ",\"base_hz\":" + obs::json_number(config.base_hz);
  out += ",\"duration_s\":" + obs::json_number(config.duration_s);
  out += ",\"max_batch\":" + obs::json_number(static_cast<double>(FleetSoakConfig::kMaxBatch));
  out += ",\"report\":" + report.to_json();
  return out + violations_json(violations);
}

FleetSoakResult run_fleet_soak(const FleetSoakConfig& cfg) {
  VEDLIOT_CHECK(cfg.duration_s > 0, "fleet soak duration must be positive");
  VEDLIOT_CHECK(cfg.fleet_size >= 1, "fleet soak needs at least one replica");
  VEDLIOT_CHECK(cfg.base_hz > 0, "offered rate must be positive");

  // Model: the analytic sweeps cost ResNet-50 through the roofline model
  // only; execute mode runs a micro CNN for real so the soak stays fast.
  Graph model = cfg.execute ? zoo::micro_cnn("fleet-exec", 1, 3, 16, 10, 8)
                            : zoo::resnet50(1, 100, 64);
  if (cfg.execute) {
    Rng weight_rng(cfg.seed ^ kWeightStream);
    model.materialize_weights(weight_rng);
  }

  TrafficConfig traffic;
  traffic.pattern = cfg.pattern;
  traffic.duration_s = cfg.duration_s;
  traffic.base_hz = cfg.base_hz;
  traffic.deadline_s = FleetSoakConfig::kDeadlineS;
  traffic.seed = cfg.seed ^ kLoadStream;

  SoakProbe probe;
  FleetConfig fleet_cfg;
  fleet_cfg.graph = &model;
  fleet_cfg.execute = cfg.execute;
  fleet_cfg.max_batch = FleetSoakConfig::kMaxBatch;
  fleet_cfg.queue_capacity = FleetSoakConfig::kQueueCapacity;
  fleet_cfg.max_replicas = cfg.fleet_size;
  fleet_cfg.min_replicas = cfg.autoscale ? 1 : cfg.fleet_size;
  fleet_cfg.initial_replicas =
      cfg.autoscale ? std::max<std::size_t>(1, cfg.fleet_size / 2) : cfg.fleet_size;
  fleet_cfg.seed = cfg.seed;
  fleet_cfg.trace = &probe.trace;
  fleet_cfg.metrics = &probe.metrics;

  Fleet fleet(fleet_cfg);
  Submitted requests;
  for (const Request& r : generate_traffic(traffic)) submit(fleet, r, requests);

  FleetSoakResult result;
  result.config = cfg;
  result.report = fleet.run(cfg.duration_s);
  if (cfg.execute) {
    check_batched_equality(cfg, model, result.report, requests, result.violations);
  }
  check_fleet_run(fleet_cfg, requests, result.report, {}, result.violations);
  return result;
}

}  // namespace vedliot::soak
