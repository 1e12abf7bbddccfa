#include "kenning/flow.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "graph/cost.hpp"
#include "obs/trace.hpp"
#include "runtime/memory_planner.hpp"
#include "runtime/session.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace vedliot::kenning {

ModelWrapper::ModelWrapper(std::string name, Graph graph)
    : name_(std::move(name)), graph_(std::move(graph)) {}

std::size_t ModelWrapper::postprocess(const Tensor& out) const {
  if (post_) return post_(out);
  // Default: argmax over the flattened output.
  std::size_t best = 0;
  float best_v = out.numel() > 0 ? out.at(0) : 0.0f;
  for (std::int64_t i = 1; i < out.numel(); ++i) {
    if (out.at(static_cast<std::size_t>(i)) > best_v) {
      best_v = out.at(static_cast<std::size_t>(i));
      best = static_cast<std::size_t>(i);
    }
  }
  return best;
}

std::string MeasurementReport::to_markdown() const {
  std::ostringstream os;
  os << "## Deployment report: " << model << " on " << target << "\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| samples | " << samples << " |\n";
  os << "| mean latency | " << fmt_fixed(mean_latency_ms, 3) << " ms |\n";
  os << "| median latency | " << fmt_fixed(median_latency_ms, 3) << " ms |\n";
  os << "| p90 latency | " << fmt_fixed(p90_latency_ms, 3) << " ms |\n";
  os << "| activation arena | " << fmt_fixed(arena_mib, 2) << " MiB |\n";
  os << "| weights | " << fmt_fixed(weight_mib, 2) << " MiB |\n";
  if (estimated_power_w > 0) {
    os << "| est. power | " << fmt_fixed(estimated_power_w, 2) << " W |\n";
    os << "| est. energy / inference | " << fmt_fixed(estimated_energy_mj, 3) << " mJ |\n";
  }
  if (!hotspots_ms.empty()) {
    os << "| hottest ops | ";
    for (std::size_t i = 0; i < hotspots_ms.size(); ++i) {
      if (i) os << ", ";
      os << hotspots_ms[i].first << " (" << fmt_fixed(hotspots_ms[i].second, 1) << " ms)";
    }
    os << " |\n";
  }
  if (quality) {
    os << "| accuracy | " << fmt_percent(quality->accuracy()) << " |\n";
    os << "| macro F1 | " << fmt_fixed(quality->macro_f1(), 3) << " |\n";
    os << "\n### Confusion matrix\n\n```\n" << quality->to_string() << "```\n";
  }
  return os.str();
}

namespace {

std::size_t num_classes_of(const Graph& g) {
  const auto outs = g.outputs();
  const Shape& s = g.node(outs.front()).out_shape;
  return static_cast<std::size_t>(s.dim(s.rank() - 1));
}

void fill_quality(MeasurementReport& report, ModelWrapper& model,
                  const std::vector<Sample>& dataset, const std::vector<std::size_t>& preds) {
  const std::size_t classes = std::max<std::size_t>(num_classes_of(model.graph()), 2);
  ConfusionMatrix cm(classes);
  for (std::size_t i = 0; i < dataset.size(); ++i) cm.add(dataset[i].label, preds[i]);
  report.quality = cm;
}

}  // namespace

MeasurementReport HostRuntime::benchmark(ModelWrapper& model, const std::vector<Sample>& dataset) {
  MeasurementReport report;
  report.model = model.name();
  report.target = name();
  report.samples = dataset.size();

  // A traced session: each run's child spans of session.run carry the op
  // class as their category, so per-op time is read off the tracer.
  obs::Tracer tracer;
  const auto session = runtime::make_session(model.graph(), {.trace = &tracer});
  std::map<std::string, double> op_ms;
  std::vector<double> latencies;
  std::vector<std::size_t> preds;
  latencies.reserve(dataset.size());
  for (const auto& sample : dataset) {
    const Tensor input = model.preprocess(sample.input);
    const auto t0 = std::chrono::steady_clock::now();
    const Tensor out = session->run_single(input);
    const auto t1 = std::chrono::steady_clock::now();
    latencies.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    preds.push_back(model.postprocess(out));
    for (const obs::Span& span : tracer.spans()) {
      if (span.depth == 1) op_ms[span.category] += span.duration_us() / 1e3;
    }
    tracer.clear();
  }
  if (!latencies.empty()) {
    report.mean_latency_ms = stats::mean(latencies);
    report.median_latency_ms = stats::median(latencies);
    report.p90_latency_ms = stats::percentile(latencies, 90.0);
  }
  const MemoryPlan plan = plan_memory(model.graph(), DType::kFP32);
  report.arena_mib = static_cast<double>(plan.arena_bytes) / (1024.0 * 1024.0);
  report.weight_mib = weight_bytes(model.graph(), DType::kFP32) / (1024.0 * 1024.0);
  report.hotspots_ms.assign(op_ms.begin(), op_ms.end());
  std::sort(report.hotspots_ms.begin(), report.hotspots_ms.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (report.hotspots_ms.size() > 3) report.hotspots_ms.resize(3);
  if (!dataset.empty()) fill_quality(report, model, dataset, preds);
  return report;
}

SimulatedTarget::SimulatedTarget(hw::DeviceSpec device, DType dtype)
    : device_(std::move(device)), dtype_(dtype) {}

MeasurementReport SimulatedTarget::benchmark(ModelWrapper& model,
                                             const std::vector<Sample>& dataset) {
  MeasurementReport report;
  report.model = model.name();
  report.target = name();
  report.samples = dataset.size();

  const hw::PerfEstimate e = hw::estimate(device_, model.graph(), dtype_);
  report.mean_latency_ms = e.latency_s * 1e3;
  report.median_latency_ms = e.latency_s * 1e3;
  report.p90_latency_ms = e.latency_s * 1e3;
  report.arena_mib = e.arena_mib;
  report.weight_mib = e.weight_mib;
  report.estimated_power_w = e.power_w;
  report.estimated_energy_mj = e.energy_per_inference_j * 1e3;

  // Quality: real execution if weights are available; the simulated device
  // does not change the numerics (dtype effects are applied by passes).
  if (!dataset.empty() && model.graph().weights_materialized()) {
    const auto session = runtime::make_session(model.graph(), {});
    std::vector<std::size_t> preds;
    preds.reserve(dataset.size());
    for (const auto& sample : dataset) {
      preds.push_back(model.postprocess(session->run_single(model.preprocess(sample.input))));
    }
    fill_quality(report, model, dataset, preds);
  }
  return report;
}

Flow& Flow::optimize(std::unique_ptr<opt::Pass> pass) {
  passes_.add(std::move(pass));
  return *this;
}

Flow& Flow::deploy_to(std::unique_ptr<RuntimeTarget> target) {
  targets_.push_back(std::move(target));
  return *this;
}

std::vector<MeasurementReport> Flow::run(const std::vector<Sample>& dataset) {
  pass_log_ = passes_.run(model_.graph());
  std::vector<MeasurementReport> reports;
  reports.reserve(targets_.size());
  for (auto& t : targets_) reports.push_back(t->benchmark(model_, dataset));
  return reports;
}

}  // namespace vedliot::kenning
