// The benchmark's own tests: its arithmetic (percentile rule, run_s, span
// self time and residuals), its anchor checks, and a smoke-size run of
// every workload.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_EQ(tail_percentile(ramp(100), 0.90), 90.0);
  EXPECT_EQ(samples_beyond(100, 0.95), 5u);
  EXPECT_FALSE(tail_percentile(ramp(100), 0.95).has_value());
  EXPECT_EQ(tail_percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
}

TEST(PercentileRule, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(RunSeconds, SumsEachUnitsLowerQuartile) {
  EXPECT_EQ(lower_quartile({4, 1, 3, 2}), 1.0);
  EXPECT_EQ(lower_quartile({8, 7, 6, 5, 4, 3, 2, 1}), 2.0);
  EXPECT_THROW((void)lower_quartile({}), std::invalid_argument);
  UnitTimes times(3);
  const double reps[][3] = {
      {1.0, 10.0, 100.0}, {2.0, 20.0, 200.0}, {3.0, 30.0, 300.0}, {4.0, 40.0, 400.0}};
  for (const auto& rep : reps) {
    for (std::size_t u = 0; u < 3; ++u) times.record(u, rep[u]);
  }
  EXPECT_EQ(times.repetitions(), 4u);
  EXPECT_DOUBLE_EQ(times.sum_of_lower_quartiles(), 1.0 + 10.0 + 100.0);
  EXPECT_DOUBLE_EQ(times.unit_median(1), 25.0);
}

TEST(RunSeconds, SlowRepetitionsDoNotMoveIt) {
  UnitTimes times(2);
  for (int rep = 0; rep < 3; ++rep) {
    times.record(0, 1.0);
    times.record(1, 2.0);
  }
  for (int rep = 0; rep < 8; ++rep) {
    times.record(0, 50.0);
    times.record(1, 70.0);
  }
  EXPECT_EQ(times.repetitions(), 11u);
  EXPECT_DOUBLE_EQ(times.sum_of_lower_quartiles(), 3.0);
}

TEST(Spans, SelfTimeAndResidualAgainstChildren) {
  // parent [0, 100) with children [10, 40) and [50, 90): 70 covered.
  std::vector<SpanRecord> records = {
      {"parent", 0, 100, -1, 1},
      {"child", 10, 40, 0, 1},
      {"child", 50, 90, 0, 1},
      {"grandchild", 60, 70, 2, 1},
  };
  const auto summary = summarize_spans(records);
  ASSERT_EQ(summary.size(), 3u);
  EXPECT_EQ(summary[0].name, "parent");
  EXPECT_NEAR(summary[0].total_s, 100e-9, 1e-15);
  EXPECT_NEAR(summary[0].self_s(), 30e-9, 1e-15);
  EXPECT_NEAR(summary[0].residual_share(), 0.3, 1e-9);
  EXPECT_EQ(summary[1].count, 2u);
  EXPECT_NEAR(summary[1].total_s, 70e-9, 1e-15);
  EXPECT_NEAR(summary[1].self_s(), 60e-9, 1e-15);
  EXPECT_FALSE(summary[2].has_children());
  EXPECT_NEAR(summary[2].self_s(), 10e-9, 1e-15);
}

TEST(Spans, TracerNestsAndInheritsRequests) {
  Tracer tracer(true);
  {
    const auto outer = tracer.span("unit", 7);
    const auto inner = tracer.span("call");
  }
  const auto after = tracer.span("next");
  ASSERT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.records()[1].parent, 0);
  EXPECT_EQ(tracer.records()[1].request, 7u);
  EXPECT_EQ(tracer.records()[2].parent, -1);
  EXPECT_LE(tracer.records()[1].end_ns, tracer.records()[0].end_ns);

  Tracer off(false);
  { const auto ignored = off.span("unit"); }
  EXPECT_TRUE(off.records().empty());
}

TEST(HostControl, SamplesInStepWithWorkAndScalesToTheReference) {
  std::size_t calls = 0;
  HostControl control([&] {
    ++calls;
    return 2 * kReferenceControlMs;  // a host at half the reference speed
  });
  control.after(0.01);
  EXPECT_EQ(control.samples(), 1u);  // the first call always samples
  control.after(4 * HostControl::kPeriodS);
  EXPECT_EQ(control.samples(), 4u);  // one per kPeriodS of work so far
  control.after(0.1);
  EXPECT_EQ(calls, 4u);
  EXPECT_DOUBLE_EQ(control.control_ms(), 2 * kReferenceControlMs);
  EXPECT_DOUBLE_EQ(control.to_reference(3.0), 1.5);
}

TEST(ReportLine, CarriesExactlyTheResultKeys) {
  Report report;
  report.attempt(3);
  report.fail("x");
  report.set("run_s", 1.25, "s");
  report.set("run_wall_s", 2.5, "s");
  report.keep_only({{"run_s", "s"}});
  EXPECT_EQ(report.json_line(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
            "{\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}");
  report.keep_only({{"run_s", "s"}, {"setup_s", "s"}});
  EXPECT_FALSE(report.correct());
}

TEST(ReportLine, RefusesAUnitOtherThanTheSpecs) {
  Report report;
  report.attempt();
  report.set("run_s", 1.25, "s");
  report.keep_only({{"run_s", "ms"}});
  EXPECT_FALSE(report.correct());
  EXPECT_TRUE(report.metrics().empty());
}

TEST(MetricSpecs, ReadFromTheBenchmarkFile) {
  const std::string path = "perfbench-test-spec.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(R"({"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower"}],)"
             R"( "per_layer": [{"name": "a.b", "unit": "count", "better": "higher"}]})",
             f);
  std::fclose(f);
  const auto e2e = read_metric_specs(path, "end_to_end");
  ASSERT_EQ(e2e.size(), 1u);
  EXPECT_EQ(e2e[0].name, "run_s");
  EXPECT_EQ(e2e[0].unit, "s");
  EXPECT_EQ(read_metric_specs(path, "per_layer")[0].name, "a.b");
  EXPECT_THROW((void)read_metric_specs(path, "workloads"), std::runtime_error);
  EXPECT_THROW((void)read_metric_specs("no-such-file.json", "per_layer"), std::runtime_error);
  std::remove(path.c_str());
}

RunOptions smoke_options(const std::string& workload) {
  RunOptions options;
  options.workload = workload;
  options.size = Size::kSmoke;
  options.seconds = 0;
  options.min_repetitions = 1;
  options.work_dir = "perfbench-test-work";
  return options;
}

TEST(Anchors, WrongOutputAnchorFailsTheRun) {
  const auto options = smoke_options("churn-sweep");
  auto workload = make_workload(options);
  workload->pin("sweep_fingerprint", 0x1234);
  const Report report = run_untraced(*workload, options);
  EXPECT_FALSE(report.correct());
  EXPECT_GE(report.failed(), 2u);  // the warm-up and the timed repetition
}

TEST(Anchors, DifferentInputsAreRefusedBeforeTiming) {
  const auto options = smoke_options("rr-1k");
  auto workload = make_workload(options);
  workload->pin("inputs", 0x1234);
  const Report report = run_untraced(*workload, options);
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.attempted(), 0u);
  EXPECT_EQ(report.find("run_s"), nullptr);
}

class SmokeRun : public testing::TestWithParam<const char*> {};

TEST_P(SmokeRun, PassesItsChecks) {
  const auto options = smoke_options(GetParam());
  auto workload = make_workload(options);
  ASSERT_NE(workload, nullptr);
  const Report report = run_untraced(*workload, options);
  for (const auto& reason : report.reasons()) ADD_FAILURE() << reason;
  EXPECT_TRUE(report.correct());
  EXPECT_GE(report.attempted(), 2u);
  EXPECT_EQ(report.failed(), 0u);
  for (const char* metric : {"run_s", "setup_s", "peak_rss_mb"}) {
    const Metric* m = report.find(metric);
    ASSERT_NE(m, nullptr) << metric;
    EXPECT_GT(m->value, 0) << metric;
  }
}

TEST_P(SmokeRun, TracedRunMeasuresItsLayers) {
  const auto options = smoke_options(GetParam());
  auto workload = make_workload(options);
  const Report report = run_traced(*workload, options, "");
  for (const auto& reason : report.reasons()) ADD_FAILURE() << reason;
  EXPECT_TRUE(report.correct());
  for (const char* metric : {"netsim.shortest_paths_s", "engine.run_s", "engine.deliveries",
                             "engine.span.delivery_ns.mean", "obs.tracing_overhead",
                             "host.control_ms"}) {
    EXPECT_NE(report.find(metric), nullptr) << metric;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SmokeRun,
                         testing::Values("churn-sweep", "rr-1k", "daemon-stream",
                                         "explore-search"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) c = c == '-' ? '_' : c;
                           return name;
                         });

}  // namespace
}  // namespace perfbench
