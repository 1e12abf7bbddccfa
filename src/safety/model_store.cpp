#include "safety/model_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>

#include "runtime/session.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace vedliot::safety {

namespace {

/// Deterministic canary inputs for a single-input graph: the golden
/// stimulus both the publisher and the device derive from canary_seed.
std::vector<Tensor> canary_inputs_for(const Graph& g, std::uint64_t seed, std::size_t count) {
  const auto inputs = g.inputs();
  VEDLIOT_CHECK(inputs.size() == 1, "canary runs need a single-input graph");
  const Shape& shape = g.node(inputs.front()).out_shape;
  Rng rng(seed);
  std::vector<Tensor> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(shape, rng.normal_vector(static_cast<std::size_t>(shape.numel())));
  }
  return out;
}

std::vector<float> run_canary(const Graph& g, std::uint64_t seed, std::size_t count) {
  const auto session = runtime::make_session(g, {});
  std::vector<float> out;
  for (const Tensor& x : canary_inputs_for(g, seed, count)) {
    const Tensor y = session->run_single(x);
    out.insert(out.end(), y.data().begin(), y.data().end());
  }
  return out;
}

}  // namespace

std::string_view ota_outcome_name(OtaOutcome o) {
  switch (o) {
    case OtaOutcome::kCommitted: return "committed";
    case OtaOutcome::kRejected: return "rejected";
    case OtaOutcome::kRolledBack: return "rolled-back";
  }
  throw InvalidArgument("unknown ota outcome");
}

OtaPackage make_ota_package(const Graph& g, std::uint64_t canary_seed,
                            std::size_t canary_inputs) {
  VEDLIOT_CHECK(g.weights_materialized(), "an OTA package ships materialized weights");
  OtaPackage pkg;
  pkg.package = pack_model(g);
  pkg.canary_seed = canary_seed;
  pkg.canary_inputs = canary_inputs;
  pkg.canary_output = run_canary(g, canary_seed, canary_inputs);
  return pkg;
}

ModelStore::ModelStore() : ModelStore(Config{}) {}

ModelStore::ModelStore(Config config) : cfg_(config) {
  VEDLIOT_CHECK(cfg_.canary_tolerance > 0, "canary tolerance must be positive");
}

const ModelStore::Slot& ModelStore::slot(const std::string& name) const {
  const auto it = slots_.find(name);
  if (it == slots_.end()) throw NotFound("model store has no entry '" + name + "'");
  return it->second;
}

std::uint32_t ModelStore::install(const std::string& name, const Graph& g) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (slots_.count(name)) throw InvalidArgument("model '" + name + "' already installed");
  VEDLIOT_CHECK(g.weights_materialized(), "the golden model needs materialized weights");
  Slot s;
  s.current.version = 1;
  s.current.package = pack_model(g);
  slots_.emplace(name, std::move(s));
  return 1;
}

bool ModelStore::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.count(name) > 0;
}

const ModelStore::Version& ModelStore::current(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slot(name).current;
}

std::uint32_t ModelStore::version(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slot(name).current.version;
}

bool ModelStore::can_rollback(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slot(name).previous.has_value();
}

Graph ModelStore::materialize(const std::string& name) const {
  // Snapshot the package bytes under the lock, unpack (digest checks, IR
  // verification, tensor materialization) outside it.
  std::vector<std::uint8_t> package;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    package = slot(name).current.package;
  }
  return unpack_model(package);
}

std::size_t ModelStore::repair(const std::string& name, Graph& live,
                               std::span<const WeightScrubber::Hit> hits) const {
  if (hits.empty()) return 0;
  const Graph golden = materialize(name);
  std::size_t repaired = 0;
  for (const WeightScrubber::Hit& h : hits) {
    const Node& gold = golden.node(h.node);
    VEDLIOT_CHECK(h.tensor < gold.weights.size(),
                  "repair hit names tensor " + std::to_string(h.tensor) +
                      " beyond golden node '" + gold.name + "'");
    Tensor& deployed = live.node(h.node).weights.at(h.tensor);
    const Tensor& truth = gold.weights[h.tensor];
    VEDLIOT_CHECK(deployed.shape() == truth.shape(),
                  "deployed tensor shape diverged from golden on node '" + gold.name + "'");
    std::copy(truth.data().begin(), truth.data().end(), deployed.data().begin());
    // Verify the rewrite actually took: storage that will not hold the
    // golden bits is a hard fault, not something to scrub around.
    VEDLIOT_CHECK(util::crc32(deployed.data()) == h.expected,
                  "repaired tensor still mismatches golden digest on node '" + gold.name + "'");
    ++repaired;
  }
  live.touch();
  return repaired;
}

std::size_t ModelStore::restore(const std::string& name, Graph& live) const {
  const Graph golden = materialize(name);
  std::size_t rewritten = 0;
  for (NodeId id : golden.topo_order()) {
    const Node& gold = golden.node(id);
    if (gold.weights.empty()) continue;
    Node& dep = live.node(id);
    VEDLIOT_CHECK(dep.weights.size() == gold.weights.size(),
                  "deployed weight count diverged from golden on node '" + gold.name + "'");
    for (std::size_t t = 0; t < gold.weights.size(); ++t) {
      VEDLIOT_CHECK(dep.weights[t].shape() == gold.weights[t].shape(),
                    "deployed tensor shape diverged from golden on node '" + gold.name + "'");
      std::copy(gold.weights[t].data().begin(), gold.weights[t].data().end(),
                dep.weights[t].data().begin());
      ++rewritten;
    }
    dep.weight_dtype = gold.weight_dtype;
  }
  live.touch();
  return rewritten;
}

ModelStore::OtaReport ModelStore::push(const std::string& name, const OtaPackage& update) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) throw NotFound("model store has no entry '" + name + "'");
  Slot& s = it->second;

  OtaReport report;
  report.from_version = s.current.version;
  report.to_version = s.next_version;

  // Stage: digest table + IR verifier both run inside unpack_model; any
  // corruption in transit surfaces as a GraphError with the check id.
  Graph staged("staged");
  try {
    staged = unpack_model(update.package);
  } catch (const Error& e) {
    report.outcome = OtaOutcome::kRejected;
    report.to_version = report.from_version;  // nothing swapped
    report.detail = std::string("staging failed: ") + e.what();
    return report;
  }

  // Canary: re-run the publisher's golden inputs and demand the declared
  // outputs. A payload that passes its digests but computes differently
  // (stale declaration, wrong model, non-finite outputs) is rejected here.
  const std::vector<float> observed =
      run_canary(staged, update.canary_seed, update.canary_inputs);
  if (observed.size() != update.canary_output.size()) {
    report.outcome = OtaOutcome::kRejected;
    report.to_version = report.from_version;
    report.detail = "canary output count " + std::to_string(observed.size()) +
                    " != declared " + std::to_string(update.canary_output.size());
    return report;
  }
  double worst = 0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double diff = std::abs(static_cast<double>(observed[i]) - update.canary_output[i]);
    if (!std::isfinite(diff)) {
      worst = std::numeric_limits<double>::infinity();
      break;
    }
    worst = std::max(worst, diff);
  }
  if (!(worst <= cfg_.canary_tolerance)) {
    report.outcome = OtaOutcome::kRejected;
    report.to_version = report.from_version;
    report.detail = "canary divergence " + std::to_string(worst) + " exceeds tolerance " +
                    std::to_string(cfg_.canary_tolerance);
    return report;
  }

  // Atomic swap: previous retained for rollback.
  s.previous = std::exchange(s.current, Version{s.next_version++, update.package});
  report.outcome = OtaOutcome::kCommitted;
  report.to_version = s.current.version;
  report.detail = "canary max divergence " + std::to_string(worst);
  return report;
}

ModelStore::OtaReport ModelStore::rollback(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) throw NotFound("model store has no entry '" + name + "'");
  Slot& s = it->second;
  OtaReport report;
  report.from_version = s.current.version;
  if (!s.previous) {
    report.outcome = OtaOutcome::kRejected;
    report.to_version = s.current.version;
    report.detail = "no previous version retained";
    return report;
  }
  s.current = std::move(*s.previous);
  s.previous.reset();
  report.outcome = OtaOutcome::kRolledBack;
  report.to_version = s.current.version;
  report.detail = "restored version " + std::to_string(s.current.version);
  return report;
}

}  // namespace vedliot::safety
