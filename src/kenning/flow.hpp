#pragma once
/// \file flow.hpp
/// \brief The Kenning-analogue deployment flow (Sec. III / [10]): wrap a
/// model, apply optimizers, deploy to a runtime target, and measure
/// inference duration, resource usage and processing quality.
///
/// Two runtime targets exist: HostRuntime actually executes the graph on
/// this machine (wall-clock measurements); SimulatedTarget evaluates a
/// hardware device through the roofline model (latency/power/energy).

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "hw/device.hpp"
#include "hw/perf_model.hpp"
#include "kenning/metrics.hpp"
#include "opt/pass.hpp"

namespace vedliot::kenning {

/// A labelled classification sample.
struct Sample {
  Tensor input;
  std::size_t label = 0;
};

/// ModelWrapper: the model plus its pre/post-processing (Sec. III step 1).
class ModelWrapper {
 public:
  using Preprocess = std::function<Tensor(const Tensor&)>;
  /// Post-processing maps the raw output tensor to a class index.
  using Postprocess = std::function<std::size_t(const Tensor&)>;

  ModelWrapper(std::string name, Graph graph);

  const std::string& name() const { return name_; }
  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }

  void set_preprocess(Preprocess fn) { pre_ = std::move(fn); }
  void set_postprocess(Postprocess fn) { post_ = std::move(fn); }

  Tensor preprocess(const Tensor& raw) const { return pre_ ? pre_(raw) : raw; }
  std::size_t postprocess(const Tensor& out) const;

 private:
  std::string name_;
  Graph graph_;
  Preprocess pre_;
  Postprocess post_;
};

/// Measured deployment statistics (the Kenning report content).
struct MeasurementReport {
  std::string model;
  std::string target;
  std::size_t samples = 0;

  double mean_latency_ms = 0;
  double median_latency_ms = 0;
  double p90_latency_ms = 0;
  double arena_mib = 0;        ///< activation memory (resource usage)
  double weight_mib = 0;
  double estimated_power_w = 0;   ///< simulated targets only
  double estimated_energy_mj = 0; ///< per inference, simulated targets only

  /// Host runtime only: the op kinds dominating inference time, descending
  /// ("monitor inference time" / hotspot view of the Kenning report).
  std::vector<std::pair<std::string, double>> hotspots_ms;

  std::optional<ConfusionMatrix> quality;  ///< when labels were provided

  std::string to_markdown() const;
};

/// Runtime target interface.
class RuntimeTarget {
 public:
  virtual ~RuntimeTarget() = default;
  virtual std::string name() const = 0;
  virtual MeasurementReport benchmark(ModelWrapper& model, const std::vector<Sample>& dataset) = 0;
};

/// Executes on the host CPU through a traced f32 runtime::Session;
/// wall-clock latency, and per-op-class hotspots from the session's spans.
class HostRuntime : public RuntimeTarget {
 public:
  std::string name() const override { return "host-cpu"; }
  MeasurementReport benchmark(ModelWrapper& model, const std::vector<Sample>& dataset) override;
};

/// Evaluates a catalog device through the performance model. Quality is
/// still measured by real execution (the numerics don't depend on the
/// simulated device), latency/power/energy come from the model.
class SimulatedTarget : public RuntimeTarget {
 public:
  SimulatedTarget(hw::DeviceSpec device, DType dtype);
  std::string name() const override { return device_.name; }
  MeasurementReport benchmark(ModelWrapper& model, const std::vector<Sample>& dataset) override;

 private:
  hw::DeviceSpec device_;
  DType dtype_;
};

/// End-to-end flow: optimize (pass pipeline) then deploy and measure on a
/// sequence of targets — one MeasurementReport per target.
class Flow {
 public:
  explicit Flow(ModelWrapper model) : model_(std::move(model)) {}

  Flow& optimize(std::unique_ptr<opt::Pass> pass);
  Flow& deploy_to(std::unique_ptr<RuntimeTarget> target);

  /// Run everything; returns per-target reports (optimization happens once,
  /// before the first deployment).
  std::vector<MeasurementReport> run(const std::vector<Sample>& dataset);

  const std::vector<opt::PassResult>& pass_log() const { return pass_log_; }
  ModelWrapper& model() { return model_; }

 private:
  ModelWrapper model_;
  opt::PassManager passes_;
  std::vector<std::unique_ptr<RuntimeTarget>> targets_;
  std::vector<opt::PassResult> pass_log_;
};

}  // namespace vedliot::kenning
