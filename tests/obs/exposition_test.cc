// Exposition-conformance tests: the metric-name grammar, the # HELP table
// (sorted, valid, covering every real instrument name), the validator's
// per-line and per-family checks — including the torn-histogram detector —
// and the end-to-end guarantee that PrometheusText renders conformant text
// for a populated registry.

#include "obs/exposition.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"

namespace ssr {
namespace obs {
namespace {

TEST(ExpositionTest, MetricNameGrammar) {
  EXPECT_TRUE(IsValidMetricName("ssr_index_queries_total"));
  EXPECT_TRUE(IsValidMetricName("_leading_underscore"));
  EXPECT_TRUE(IsValidMetricName("colon:name"));
  EXPECT_TRUE(IsValidMetricName("x9"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9leading_digit"));
  EXPECT_FALSE(IsValidMetricName("dash-name"));
  EXPECT_FALSE(IsValidMetricName("space name"));
  EXPECT_FALSE(IsValidMetricName("utf8_\xc3\xa9"));
}

TEST(ExpositionTest, HelpTableIsSortedValidAndConsistent) {
  const auto& table = MetricHelpTable();
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_TRUE(IsValidMetricName(table[i].name)) << table[i].name;
    EXPECT_FALSE(table[i].help.empty()) << table[i].name;
    if (i > 0) {
      EXPECT_LT(table[i - 1].name, table[i].name)
          << "table must stay strictly name-sorted (lookup is binary "
             "search)";
    }
    // The lookup function and the table must agree on every entry.
    const char* help = MetricHelp(table[i].name);
    ASSERT_NE(help, nullptr) << table[i].name;
    EXPECT_EQ(std::string(help), std::string(table[i].help));
  }
  EXPECT_EQ(MetricHelp("no_such_metric_name"), nullptr);
}

TEST(ExpositionTest, HelpTableCoversTheIntrospectionPlane) {
  for (const char* name :
       {"ssr_index_queries_total", "ssr_index_query_latency_micros",
        "ssr_router_query_latency_micros", "ssr_server_requests_total",
        "ssr_server_connections_rejected_total", "ssr_slo_p50_micros",
        "ssr_slo_p99_micros", "ssr_slo_availability", "ssr_slo_burn_rate",
        "ssr_health_verdict"}) {
    EXPECT_NE(MetricHelp(name), nullptr) << name;
  }
}

TEST(ExpositionTest, EveryRegisteredMetricHasHelpAndAValidName) {
  // The conformance contract: an instrument that reaches the process-wide
  // registry without a help-table entry fails here (and would render a
  // HELP-less family on /metrics). Test-local registries are exempt; this
  // walks whatever real components registered in this process.
  for (const auto& entry : MetricsRegistry::Default().Entries()) {
    EXPECT_TRUE(IsValidMetricName(entry.name)) << entry.name;
    EXPECT_NE(MetricHelp(entry.name), nullptr)
        << entry.name << " is registered but has no # HELP entry "
        << "(add it to kHelpTable in obs/exposition.cc)";
  }
}

TEST(ExpositionTest, RenderedRegistryValidatesCleanly) {
  MetricsRegistry registry;
  registry.GetCounter("ssr_index_queries_total", "index/0")->Add(42);
  registry.GetGauge("ssr_index_live_sets")->Set(17.0);
  Histogram* h = registry.GetHistogram("ssr_index_query_latency_micros",
                                       "index/0", LatencyBoundsMicros());
  h->Observe(12.0);
  h->Observe(480.0);
  h->Observe(1e9);  // overflow bucket

  const std::string text = PrometheusText(registry);
  const auto issues = ValidateExposition(text);
  EXPECT_TRUE(issues.empty()) << FormatIssues(issues);
  EXPECT_NE(text.find("# HELP ssr_index_queries_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ssr_index_query_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

TEST(ExpositionTest, HandWrittenConformantDocumentPasses) {
  const std::string text =
      "# HELP x_total A counter.\n"
      "# TYPE x_total counter\n"
      "x_total{scope=\"a/0\"} 3\n"
      "# TYPE y_micros histogram\n"
      "y_micros_bucket{le=\"1\"} 2\n"
      "y_micros_bucket{le=\"+Inf\"} 5\n"
      "y_micros_sum 9.5\n"
      "y_micros_count 5\n";
  const auto issues = ValidateExposition(text);
  EXPECT_TRUE(issues.empty()) << FormatIssues(issues);
}

TEST(ExpositionTest, DetectsATornHistogramFamily) {
  const std::string text =
      "# TYPE y_micros histogram\n"
      "y_micros_bucket{le=\"1\"} 2\n"
      "y_micros_bucket{le=\"+Inf\"} 5\n"
      "y_micros_sum 9.5\n"
      "y_micros_count 4\n";  // != the +Inf bucket: torn mid-mutation
  const auto issues = ValidateExposition(text);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(FormatIssues(issues).find("torn"), std::string::npos);
}

TEST(ExpositionTest, DetectsHistogramShapeViolations) {
  // Missing +Inf bucket.
  EXPECT_FALSE(ValidateExposition("# TYPE h histogram\n"
                                  "h_bucket{le=\"1\"} 1\n"
                                  "h_sum 1\nh_count 1\n")
                   .empty());
  // Non-cumulative buckets.
  EXPECT_FALSE(ValidateExposition("# TYPE h histogram\n"
                                  "h_bucket{le=\"1\"} 5\n"
                                  "h_bucket{le=\"+Inf\"} 3\n"
                                  "h_sum 1\nh_count 3\n")
                   .empty());
  // Missing _sum.
  EXPECT_FALSE(ValidateExposition("# TYPE h histogram\n"
                                  "h_bucket{le=\"+Inf\"} 3\n"
                                  "h_count 3\n")
                   .empty());
}

TEST(ExpositionTest, DetectsAHistogramWithNoBuckets) {
  // _sum and _count alone are no histogram family: every TYPE'd histogram
  // needs its _bucket samples, whatever else it renders.
  const auto issues = ValidateExposition("# TYPE h histogram\n"
                                         "h_sum 1\nh_count 3\n");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(FormatIssues(issues).find("no _bucket samples"),
            std::string::npos);
  EXPECT_FALSE(ValidateExposition("# TYPE h histogram\n").empty());
}

TEST(ExpositionTest, DetectsLineLevelViolations) {
  // A sample before its TYPE.
  EXPECT_FALSE(ValidateExposition("x_total 1\n").empty());
  // Bad metric name.
  EXPECT_FALSE(ValidateExposition("# TYPE 9bad counter\n").empty());
  // Unparseable value.
  EXPECT_FALSE(
      ValidateExposition("# TYPE x gauge\nx four\n").empty());
  // Duplicate series.
  EXPECT_FALSE(
      ValidateExposition("# TYPE x gauge\nx 1\nx 2\n").empty());
  // Duplicate label name.
  EXPECT_FALSE(ValidateExposition(
                   "# TYPE x gauge\nx{a=\"1\",a=\"2\"} 3\n")
                   .empty());
  // Missing trailing newline is a document-level issue.
  const auto issues = ValidateExposition("# TYPE x gauge\nx 1");
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues.back().line, 0u);
}

TEST(ExpositionTest, AcceptsEscapedLabelValuesAndInfNan) {
  const std::string text =
      "# TYPE x gauge\n"
      "x{scope=\"we\\\"ird\\\\scope\\n\"} 1\n"
      "# TYPE y gauge\n"
      "y +Inf\n"
      "# TYPE z gauge\n"
      "z NaN\n";
  const auto issues = ValidateExposition(text);
  EXPECT_TRUE(issues.empty()) << FormatIssues(issues);
}

TEST(ExpositionTest, FormatIssuesIsOnePerLine) {
  const auto issues = ValidateExposition("# TYPE 9bad counter\nx_total 1");
  const std::string formatted = FormatIssues(issues);
  EXPECT_NE(formatted.find("line 1"), std::string::npos);
  EXPECT_GE(issues.size(), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace ssr
