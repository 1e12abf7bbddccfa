// Tests for the observability subsystem (vedliot::obs): deterministic
// tracing under a fake clock, metrics registry + histogram percentiles,
// exporter round-trips through the bundled JSON parser, and the traced
// runtime::Session acceptance invariants (span count and op-class
// histogram totals vs nodes executed).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/zoo.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/fusion.hpp"
#include "opt/quantize.hpp"
#include "runtime/session.hpp"
#include "sim/bus.hpp"
#include "sim/cpu.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace vedliot {
namespace {

// ---------------------------------------------------------------------------
// Tracer + FakeClock
// ---------------------------------------------------------------------------

TEST(Tracer, NestedSpansRecordStructureAndFakeClockTime) {
  obs::FakeClock clock(1000);
  clock.set_auto_tick_ns(10);
  obs::Tracer tracer(&clock);

  {
    obs::ScopedSpan root = tracer.span("session.run", "vedliot.runtime");
    root.attr("graph", "g");
    {
      obs::ScopedSpan child = tracer.span("conv1", "Conv2d");
      child.attr("out_elems", 64.0);
      tracer.instant("checkpoint", "vedliot.test");
      EXPECT_EQ(tracer.open_spans(), 2u);
    }
    {
      obs::ScopedSpan child2 = tracer.span("fc", "Dense");
    }
  }
  EXPECT_EQ(tracer.open_spans(), 0u);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);  // root, conv1, instant, fc — in START order

  EXPECT_EQ(spans[0].name, "session.run");
  EXPECT_EQ(spans[0].category, "vedliot.runtime");
  EXPECT_EQ(spans[0].parent, obs::Span::kNoParent);
  EXPECT_EQ(spans[0].depth, 0u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].first, "graph");
  EXPECT_EQ(spans[0].attrs[0].second, "g");

  EXPECT_EQ(spans[1].name, "conv1");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  ASSERT_EQ(spans[1].num_attrs.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[1].num_attrs[0].second, 64.0);

  EXPECT_EQ(spans[2].name, "checkpoint");
  EXPECT_EQ(spans[2].parent, 1u);  // under the open conv1 span
  EXPECT_EQ(spans[2].depth, 2u);
  EXPECT_EQ(spans[2].start_ns, spans[2].end_ns);  // instant

  EXPECT_EQ(spans[3].name, "fc");
  EXPECT_EQ(spans[3].parent, 0u);
  EXPECT_EQ(spans[3].depth, 1u);

  // FakeClock with auto-tick: strictly increasing deterministic stamps,
  // children nested inside the parent's [start, end] interval.
  EXPECT_EQ(spans[0].start_ns, 1000u);
  for (const obs::Span& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    if (s.parent != obs::Span::kNoParent) {
      EXPECT_GE(s.start_ns, spans[s.parent].start_ns);
      EXPECT_LE(s.end_ns, spans[s.parent].end_ns);
    }
  }
}

TEST(Tracer, IdenticalRunsUnderFakeClockAreBitIdentical) {
  const auto record = [] {
    obs::FakeClock clock(0);
    clock.set_auto_tick_ns(7);
    obs::Tracer tracer(&clock);
    {
      obs::ScopedSpan a = tracer.span("a");
      obs::ScopedSpan b = tracer.span("b", "cat");
      b.attr("k", 3.5);
    }
    return obs::chrome_trace_json(tracer.spans());
  };
  EXPECT_EQ(record(), record());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, CountersGaugesAndRegistryIdentity) {
  obs::MetricsRegistry reg;
  reg.counter("vedliot.test.runs").inc();
  reg.counter("vedliot.test.runs").inc(4);
  EXPECT_EQ(reg.counter("vedliot.test.runs").value(), 5u);

  reg.gauge("vedliot.test.temp").set(42.5);
  reg.gauge("vedliot.test.temp").set(17.0);  // last write wins
  EXPECT_DOUBLE_EQ(reg.gauge("vedliot.test.temp").value(), 17.0);

  EXPECT_TRUE(reg.has_counter("vedliot.test.runs"));
  EXPECT_FALSE(reg.has_counter("vedliot.test.absent"));
  EXPECT_EQ(reg.size(), 2u);
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Metrics, HistogramPercentilesMatchExactStatsWithinBucketWidth) {
  // 1000 deterministic samples in [0, 100): the bucketed percentile must
  // agree with the exact order statistic to within one bucket width.
  obs::Histogram h(0.0, 100.0, 50);
  std::vector<double> xs;
  Rng rng(424242);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100.0;
    xs.push_back(x);
    h.add(x);
  }
  ASSERT_EQ(h.total(), 1000u);
  std::sort(xs.begin(), xs.end());
  for (double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = stats::percentile(xs, p);
    EXPECT_NEAR(h.percentile(p), exact, h.bucket_width())
        << "p" << p << " diverged from exact order statistic";
  }
  EXPECT_NEAR(h.mean(), stats::mean(xs), 1e-9);  // mean is exact, not bucketed
  EXPECT_DOUBLE_EQ(h.min(), xs.front());
  EXPECT_DOUBLE_EQ(h.max(), xs.back());
}

TEST(Metrics, HistogramClampsOutOfRangeIntoEdgeBuckets) {
  obs::Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(100.0);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Percentiles clamp to the observed range, not the bucket grid.
  EXPECT_GE(h.percentile(0.0), -5.0);
  EXPECT_LE(h.percentile(100.0), 100.0);
}

// ---------------------------------------------------------------------------
// Exporters round-trip through the bundled JSON parser
// ---------------------------------------------------------------------------

TEST(Exporters, ChromeTraceRoundTripsThroughJsonParser) {
  obs::FakeClock clock(5000);
  clock.set_auto_tick_ns(1000);
  obs::Tracer tracer(&clock);
  {
    obs::ScopedSpan root = tracer.span("session.run", "vedliot.runtime");
    root.attr("graph", "quote\"and\\slash");
    obs::ScopedSpan child = tracer.span("conv", "Conv2d");
    child.attr("out_elems", 128.0);
  }

  const obs::JsonValue doc = obs::json_parse(obs::chrome_trace_json(tracer.spans(), 3, 9));
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), tracer.spans().size());

  const obs::JsonValue& root = events.array[0];
  EXPECT_EQ(root.at("name").as_string(), "session.run");
  EXPECT_EQ(root.at("cat").as_string(), "vedliot.runtime");
  EXPECT_EQ(root.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(root.at("pid").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(root.at("tid").as_number(), 9.0);
  EXPECT_DOUBLE_EQ(root.at("ts").as_number(), 5.0);  // 5000 ns -> 5 us
  EXPECT_EQ(root.at("args").at("graph").as_string(), "quote\"and\\slash");

  const obs::JsonValue& child = events.array[1];
  EXPECT_EQ(child.at("name").as_string(), "conv");
  EXPECT_DOUBLE_EQ(child.at("args").at("out_elems").as_number(), 128.0);
  EXPECT_GE(child.at("ts").as_number(), root.at("ts").as_number());
}

TEST(Exporters, MetricsJsonlOneParsableRecordPerMetric) {
  obs::MetricsRegistry reg;
  reg.counter("vedliot.t.runs").inc(3);
  reg.gauge("vedliot.t.load").set(0.75);
  auto& h = reg.histogram("vedliot.t.lat", 0.0, 10.0, 10);
  h.add(1.0);
  h.add(9.0);

  const std::string jsonl = obs::metrics_jsonl(reg);
  std::vector<obs::JsonValue> records;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    if (end > start) records.push_back(obs::json_parse(jsonl.substr(start, end - start)));
    start = end + 1;
  }
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_EQ(r.at("record").as_string(), "metric");
  }
  const auto find = [&](const std::string& name) -> const obs::JsonValue& {
    const auto it = std::find_if(records.begin(), records.end(), [&](const obs::JsonValue& r) {
      return r.at("name").as_string() == name;
    });
    EXPECT_NE(it, records.end());
    return *it;
  };
  EXPECT_EQ(find("vedliot.t.runs").at("type").as_string(), "counter");
  EXPECT_DOUBLE_EQ(find("vedliot.t.runs").at("value").as_number(), 3.0);
  EXPECT_EQ(find("vedliot.t.load").at("type").as_string(), "gauge");
  const obs::JsonValue& hist = find("vedliot.t.lat");
  EXPECT_EQ(hist.at("type").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("mean").as_number(), 5.0);
  EXPECT_TRUE(hist.has("p50"));
  EXPECT_TRUE(hist.has("p99"));
}

TEST(Exporters, HumanTablesRenderEveryEntry) {
  obs::MetricsRegistry reg;
  reg.counter("vedliot.t.runs").inc();
  reg.histogram("vedliot.t.lat", 0.0, 1.0, 4).add(0.5);
  const std::string table = obs::metrics_table(reg);
  EXPECT_NE(table.find("vedliot.t.runs"), std::string::npos);
  EXPECT_NE(table.find("vedliot.t.lat"), std::string::npos);

  obs::FakeClock clock;
  obs::Tracer tracer(&clock);
  { auto s = tracer.span("root"); auto c = tracer.span("leaf"); }
  const std::string spans = obs::spans_table(tracer.spans());
  EXPECT_NE(spans.find("root"), std::string::npos);
  EXPECT_NE(spans.find("leaf"), std::string::npos);
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)obs::json_parse("{"), obs::JsonError);
  EXPECT_THROW((void)obs::json_parse("{} trailing"), obs::JsonError);
  EXPECT_THROW((void)obs::json_parse("[1,]"), obs::JsonError);
  const obs::JsonValue v = obs::json_parse(R"({"a": [1, 2.5], "b": "x\nA"})");
  EXPECT_DOUBLE_EQ(v.at("a").array[1].as_number(), 2.5);
  EXPECT_EQ(v.at("b").as_string(), "x\nA");
}

// ---------------------------------------------------------------------------
// Traced runtime::Session (the ISSUE acceptance invariants)
// ---------------------------------------------------------------------------

TEST(TracedSession, ResNet50SpanAndHistogramCountsMatchNodesExecuted) {
  // Same topology as the paper's ResNet-50, at a small image so the
  // reference interpreter stays test-sized; node count is unchanged.
  Graph g = zoo::resnet50(1, 10, 32);
  Rng rng(5);
  g.materialize_weights(rng);

  Rng data_rng(6);
  const Shape in_shape{1, 3, 32, 32};
  Tensor x(in_shape, data_rng.normal_vector(static_cast<std::size_t>(in_shape.numel())));

  // Serial and over the intra-op pool: every node is spanned and timed.
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    runtime::RunOptions opts;
    opts.trace = &tracer;
    opts.metrics = &metrics;
    opts.exec.threads = threads;
    auto session = runtime::make_session(g, opts);
    (void)session->run({{g.node(g.inputs().front()).name, x}});

    ASSERT_GT(session->nodes_executed(), 0u);
    // One span per executed (non-input) node plus the session.run root.
    EXPECT_EQ(tracer.spans().size(), session->nodes_executed() + 1);
    EXPECT_EQ(tracer.open_spans(), 0u);
    EXPECT_EQ(tracer.spans().front().name, "session.run");
    ASSERT_FALSE(tracer.spans().front().num_attrs.empty());
    EXPECT_DOUBLE_EQ(tracer.spans().front().num_attrs.back().second,
                     static_cast<double>(session->nodes_executed()));

    // Every op-class histogram sample corresponds to one executed node; the
    // only other histogram is the pool's, recorded when there is a pool.
    std::size_t samples = 0;
    for (const auto& [name, h] : metrics.histograms()) {
      if (name.rfind("vedliot.runtime.op.", 0) == 0) {
        samples += h.total();
      } else {
        EXPECT_EQ(name, "vedliot.runtime.pool.utilization");
      }
    }
    EXPECT_EQ(samples, session->nodes_executed());
    EXPECT_EQ(metrics.has_histogram("vedliot.runtime.pool.utilization"), threads > 1);
    EXPECT_EQ(metrics.counter("vedliot.runtime.runs").value(), 1u);
    EXPECT_EQ(metrics.counter("vedliot.runtime.nodes_executed").value(), session->nodes_executed());

    // The Chrome export carries exactly one event per span.
    const obs::JsonValue doc = obs::json_parse(obs::chrome_trace_json(tracer.spans()));
    EXPECT_EQ(doc.at("traceEvents").array.size(), session->nodes_executed() + 1);
  }
}

TEST(TracedSession, TwoRunsProduceIdenticalSpanStructure) {
  Graph g = zoo::micro_cnn("det", 1, 1, 16, 4);
  Rng rng(8);
  g.materialize_weights(rng);
  const Shape in_shape{1, 1, 16, 16};
  Rng data_rng(9);
  Tensor x(in_shape, data_rng.normal_vector(256));

  const auto run_traced = [&]() {
    obs::Tracer tracer;
    auto session = runtime::make_session(g, {.trace = &tracer});
    (void)session->run_single(x);
    std::vector<std::tuple<std::string, std::string, std::size_t, std::size_t>> shape;
    for (const obs::Span& s : tracer.spans()) {
      shape.emplace_back(s.name, s.category, s.parent, s.depth);
    }
    return shape;
  };
  EXPECT_EQ(run_traced(), run_traced());  // structure is timestamp-free
}

TEST(Session, MaxBatchRejectsOversizedFeeds) {
  Graph g = zoo::micro_mlp("m", 4, 8, {8}, 3);
  Rng rng(2);
  g.materialize_weights(rng);
  runtime::RunOptions opts;
  opts.exec.max_batch = 2;
  auto session = runtime::make_session(g, opts);
  Rng data_rng(3);
  Tensor big(Shape{4, 8}, data_rng.normal_vector(32));
  EXPECT_THROW((void)session->run({{g.node(g.inputs().front()).name, big}}), ExecError);
}

TEST(TracedSession, QuantizedBackendEmitsSameTaxonomy) {
  Graph g = zoo::micro_mlp("q", 1, 8, {8}, 3);
  Rng rng(4);
  g.materialize_weights(rng);
  opt::FuseBatchNormPass bn;
  bn.run(g);
  opt::FuseActivationPass act;
  act.run(g);
  std::vector<Tensor> samples;
  Rng data_rng(5);
  for (int i = 0; i < 4; ++i) samples.emplace_back(Shape{1, 8}, data_rng.normal_vector(8));
  opt::calibrate_activations(g, samples, Calibration::kMinMax);

  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    obs::Tracer tracer;
    obs::MetricsRegistry metrics;
    runtime::RunOptions opts;
    opts.trace = &tracer;
    opts.metrics = &metrics;
    opts.exec.threads = threads;
    auto session = runtime::make_quantized_session(g, opts);
    (void)session->run({{g.node(g.inputs().front()).name, samples[0]}});

    EXPECT_EQ(session->backend(), "int8");
    EXPECT_EQ(tracer.spans().size(), session->nodes_executed() + 1);
    EXPECT_EQ(tracer.spans().front().name, "session.run");
    std::size_t hist_samples = 0;
    for (const auto& [name, h] : metrics.histograms()) {
      if (name.rfind("vedliot.runtime.op.", 0) == 0) hist_samples += h.total();
    }
    EXPECT_EQ(hist_samples, session->nodes_executed());
    EXPECT_TRUE(metrics.has_gauge("vedliot.runtime.saturations"));
  }
}

// ---------------------------------------------------------------------------
// sim::Cpu counters published as gauges
// ---------------------------------------------------------------------------

TEST(CpuMetrics, PublishesRetirementCountersAsGauges) {
  sim::Bus bus(0, 1024);
  const std::uint32_t ecall = 0x00000073;
  bus.load_words(0, std::span<const std::uint32_t>(&ecall, 1));
  sim::Cpu cpu(bus);
  cpu.set_pc(0);
  ASSERT_EQ(cpu.run(16), sim::HaltReason::kEcall);

  obs::MetricsRegistry reg;
  cpu.publish_metrics(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("vedliot.sim.cpu.instret").value(),
                   static_cast<double>(cpu.instructions_retired()));
  EXPECT_DOUBLE_EQ(reg.gauge("vedliot.sim.cpu.cycles").value(),
                   static_cast<double>(cpu.cycles()));
  EXPECT_DOUBLE_EQ(reg.gauge("vedliot.sim.cpu.traps").value(),
                   static_cast<double>(cpu.trap_count()));
  EXPECT_GE(cpu.instructions_retired(), 1u);

  obs::MetricsRegistry prefixed;
  cpu.publish_metrics(prefixed, "vedliot.sim.node0");
  EXPECT_TRUE(prefixed.has_gauge("vedliot.sim.node0.instret"));
}

}  // namespace
}  // namespace vedliot
