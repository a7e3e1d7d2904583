// Prometheus exposition-format conformance: the metric-name grammar, the
// # HELP registry (every metric this codebase registers must have a help
// string — the conformance test fails on any instrument that slips in
// without one), and a validator for rendered exposition text. The
// validator is what the benchrunner's `introspection` suite and the CI
// smoke job (through the tools/prom_lint CLI) run against a live
// `/metrics` scrape, so a malformed family is a hard failure long before a
// real Prometheus server would notice.

#ifndef SSR_OBS_EXPOSITION_H_
#define SSR_OBS_EXPOSITION_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ssr {
namespace obs {

/// True iff `name` matches the exposition grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
bool IsValidMetricName(std::string_view name);

/// The registered help string for a metric name, or nullptr when the name
/// is unknown. Exporters emit `# HELP` from this table; the conformance
/// test requires a non-null entry for every instrument in the registry.
const char* MetricHelp(std::string_view name);

/// Every (name, help) pair in the table, name-sorted. Exposed so tests can
/// check the table itself conforms (valid names, non-empty help).
struct MetricHelpEntry {
  std::string_view name;
  std::string_view help;
};
const std::vector<MetricHelpEntry>& MetricHelpTable();

/// One conformance violation found in exposition text.
struct ExpositionIssue {
  std::size_t line = 0;  // 1-based; 0 for document-level issues
  std::string message;
};

/// Validates Prometheus text exposition (format 0.0.4). Checks, per line:
/// comment syntax, metric-name grammar, label syntax, parseable sample
/// values; and per family: a # TYPE before the first sample, no duplicate
/// series, and histogram invariants (cumulative buckets non-decreasing,
/// an `le="+Inf"` bucket present and equal to `_count`, `_sum`/`_count`
/// present, and at least one `_bucket` sample per TYPE'd histogram).
/// Returns every violation found; empty means conformant.
std::vector<ExpositionIssue> ValidateExposition(std::string_view text);

/// Convenience: formats the issues one per line ("line N: message"), or ""
/// when the input conforms.
std::string FormatIssues(const std::vector<ExpositionIssue>& issues);

}  // namespace obs
}  // namespace ssr

#endif  // SSR_OBS_EXPOSITION_H_
