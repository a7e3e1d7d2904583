#include "obs/exposition.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

namespace ssr {
namespace obs {

namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsNameChar(char c) { return IsNameStart(c) || (c >= '0' && c <= '9'); }

// (name, help) for every metric the system registers, name-sorted. The
// conformance test walks the live registry against this table, so adding
// an instrument without a row here fails tests — by design.
const MetricHelpEntry kHelpTable[] = {
    {"ssr_buffer_pool_evictions_total",
     "Pages evicted from the buffer pool."},
    {"ssr_buffer_pool_hits_total", "Buffer pool page lookups served from "
     "memory."},
    {"ssr_buffer_pool_misses_total",
     "Buffer pool page lookups that required a disk read."},
    {"ssr_degraded_queries_total",
     "Queries answered in degraded mode (partial results)."},
    {"ssr_dfi_probes_total", "Probes against dynamic frequency indices."},
    {"ssr_exec_batch_queries_total",
     "Queries executed through the batch executor."},
    {"ssr_exec_batches_total", "Batches executed by the batch executor."},
    {"ssr_fault_hits_total", "Fault-injection sites evaluated."},
    {"ssr_fault_injected_total", "Faults injected by the fault harness."},
    {"ssr_fault_latency_injected_total",
     "Artificial latency delays injected by the fault harness."},
    {"ssr_hash_bucket_probes_total",
     "Bucket probes against in-memory hash tables."},
    {"ssr_hash_sids_scanned_total",
     "Set ids scanned while probing hash-table buckets."},
    {"ssr_health_verdict",
     "Current health verdict (0 healthy, 1 degraded, 2 unhealthy)."},
    {"ssr_index_bucket_accesses_total",
     "Signature-bucket accesses during index probes."},
    {"ssr_index_bucket_pages_total",
     "Bucket pages touched during index probes."},
    {"ssr_index_candidates_per_query",
     "Candidate sets examined per query before verification."},
    {"ssr_index_fetch_failures_total",
     "Candidate set fetches that failed during verification."},
    {"ssr_index_live_sets", "Sets currently indexed."},
    {"ssr_index_probe_failures_total", "Index probes that failed."},
    {"ssr_index_queries_total", "Similarity queries served by the index."},
    {"ssr_index_query_latency_micros",
     "End-to-end index query latency in microseconds."},
    {"ssr_index_results_total", "Result sets returned by index queries."},
    {"ssr_index_seqscan_fallbacks_total",
     "Queries that fell back to a sequential scan."},
    {"ssr_index_sets_fetched_total",
     "Candidate sets fetched from storage for verification."},
    {"ssr_index_sids_scanned_total",
     "Set ids scanned across index probes."},
    {"ssr_index_size_pruned_total",
     "Filter candidates dropped by the size window before any fetch."},
    {"ssr_io_page_writes_total", "Pages written by the storage layer."},
    {"ssr_io_random_reads_total",
     "Random (non-sequential) page reads issued."},
    {"ssr_io_sequential_reads_total", "Sequential page reads issued."},
    {"ssr_observed_precision",
     "Observed precision estimated by the shadow oracle."},
    {"ssr_observed_recall",
     "Observed recall estimated by the shadow oracle."},
    {"ssr_rebalance_active", "1 while an online shard rebalance is active."},
    {"ssr_rebalance_begun_total", "Online shard rebalances begun."},
    {"ssr_rebalance_finished_total", "Online shard rebalances finished."},
    {"ssr_rebalance_moves_skipped_total",
     "Planned rebalance moves skipped: the sid was erased or re-placed "
     "after planning."},
    {"ssr_rebalance_moves_total",
     "Sets migrated between shards by rebalance moves."},
    {"ssr_rebalance_pending_moves",
     "Planned rebalance moves not yet executed."},
    {"ssr_recovery_pages_quarantined_total",
     "Pages quarantined by salvage recovery."},
    {"ssr_recovery_records_quarantined_total",
     "Records quarantined by salvage recovery."},
    {"ssr_recovery_salvage_loads_total",
     "Snapshot loads that ran in salvage mode."},
    {"ssr_recovery_signatures_rebuilt_total",
     "Signatures rebuilt during salvage recovery."},
    {"ssr_retry_attempts_total", "Operations attempted under retry policy."},
    {"ssr_retry_exhausted_total",
     "Operations that exhausted their retry budget."},
    {"ssr_retry_recoveries_total",
     "Operations that succeeded after at least one retry."},
    {"ssr_router_partial_answers_total",
     "Routed queries answered with one or more shards missing."},
    {"ssr_router_queries_total", "Queries routed across shards."},
    {"ssr_router_query_latency_micros",
     "End-to-end routed query latency in microseconds."},
    {"ssr_router_shard_latency_micros",
     "Per-shard query latency in microseconds."},
    {"ssr_server_connections_rejected_total",
     "Introspection connections rejected because the handler pool was "
     "full."},
    {"ssr_server_requests_total",
     "HTTP requests served by the introspection server."},
    {"ssr_sfi_probes_total", "Probes against static frequency indices."},
    {"ssr_shadow_offered_total",
     "Queries offered to the shadow oracle sampler."},
    {"ssr_shadow_sampled_total",
     "Queries the shadow oracle actually re-executed."},
    {"ssr_sharded_shards_skipped_total",
     "Shards skipped (degraded or filtered) during fan-out."},
    {"ssr_slo_availability", "Windowed availability estimate."},
    {"ssr_slo_burn_rate", "Windowed error-budget burn rate."},
    {"ssr_slo_p50_micros",
     "Windowed p50 latency estimate in microseconds."},
    {"ssr_slo_p99_micros",
     "Windowed p99 latency estimate in microseconds."},
    {"ssr_store_fetch_failures_total", "Set fetches that failed."},
    {"ssr_store_get_latency_micros",
     "Set-store point lookup latency in microseconds."},
    {"ssr_store_gets_total", "Point lookups against the set store."},
    {"ssr_store_heap_pages", "Heap pages owned by the set store."},
    {"ssr_store_live_sets", "Sets currently stored."},
    {"ssr_store_scans_total", "Full scans over the set store."},
    {"ssr_store_sets_added_total", "Sets added to the set store."},
    {"ssr_wal_append_bytes_total", "Bytes appended to the WAL."},
    {"ssr_wal_appends_total", "Records appended to the WAL."},
    {"ssr_wal_bytes_truncated_total",
     "Bytes truncated from WAL tails during recovery."},
    {"ssr_wal_crash_points_total",
     "Crash points triggered by the WAL crash harness."},
    {"ssr_wal_last_recovery_seconds",
     "Wall-clock duration of the last WAL recovery."},
    {"ssr_wal_records_replayed_total",
     "WAL records replayed during recovery."},
    {"ssr_wal_records_skipped_total",
     "WAL records skipped (corrupt or stale) during recovery."},
    {"ssr_wal_recoveries_total", "WAL recoveries performed."},
    {"ssr_wal_shards_quarantined_total",
     "Shards quarantined during WAL-coupled salvage recovery."},
    {"ssr_wal_syncs_total", "WAL sync (fsync) operations."},
    {"ssr_workload_fi_bucket_accesses_total",
     "Frequency-index bucket accesses observed by the workload plane."},
    {"ssr_workload_fi_failed_probes_total",
     "Failed frequency-index probes observed by the workload plane."},
    {"ssr_workload_fi_probes_total",
     "Frequency-index probes observed by the workload plane."},
    {"ssr_workload_fi_selectivity",
     "Observed frequency-index probe selectivity."},
    {"ssr_workload_fi_sids_total",
     "Set ids produced by frequency-index probes."},
    {"ssr_workload_queries_total",
     "Queries captured by the workload observer."},
    {"ssr_workload_query_set_size",
     "Distribution of captured query set sizes."},
    {"ssr_workload_range_coverage",
     "Fraction of the threshold range covered per bin."},
    {"ssr_workload_sample_rate",
     "Shadow-oracle sampling rate currently in effect."},
    {"ssr_workload_shard_load_share",
     "Per-shard share of routed query load."},
    {"ssr_workload_shard_queries_total",
     "Queries observed per shard by the workload plane."},
    {"ssr_workload_shard_results_total",
     "Results observed per shard by the workload plane."},
    {"ssr_workload_shard_skew",
     "Load skew (max/mean share) across shards."},
    {"ssr_workload_sigma1",
     "Distribution of captured sigma1 thresholds."},
    {"ssr_workload_sigma2",
     "Distribution of captured sigma2 thresholds."},
};

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || !IsNameStart(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(), IsNameChar);
}

const char* MetricHelp(std::string_view name) {
  const auto it = std::lower_bound(
      std::begin(kHelpTable), std::end(kHelpTable), name,
      [](const MetricHelpEntry& e, std::string_view n) { return e.name < n; });
  if (it == std::end(kHelpTable) || it->name != name) return nullptr;
  return it->help.data();
}

const std::vector<MetricHelpEntry>& MetricHelpTable() {
  static const std::vector<MetricHelpEntry> table(std::begin(kHelpTable),
                                                  std::end(kHelpTable));
  return table;
}

namespace {

struct FamilyInfo {
  std::string type;
  bool saw_help = false;
  bool saw_bucket = false;  // histograms: any _bucket sample
};

struct HistogramSeries {
  std::size_t first_line = 0;
  std::vector<std::pair<double, std::uint64_t>> buckets;  // appearance order
  bool has_inf = false;
  double inf_count = 0.0;
  bool has_sum = false;
  bool has_count = false;
  double count = 0.0;
};

struct ParsedSample {
  bool ok = false;
  std::string name;
  std::string canonical_labels;  // sorted key="value" join
  std::string le;                // value of the `le` label, if present
  bool has_le = false;
  std::string labels_minus_le;   // canonical labels without `le`
  double value = 0.0;
};

bool ParseValue(std::string_view token, double* out) {
  if (token.empty()) return false;
  std::string buf(token);
  // strtod understands "Inf"/"NaN" spellings including the exposition
  // format's "+Inf".
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

ParsedSample ParseSample(std::string_view line,
                         std::vector<ExpositionIssue>* issues,
                         std::size_t line_no) {
  ParsedSample sample;
  std::size_t pos = 0;
  while (pos < line.size() && IsNameChar(line[pos])) ++pos;
  sample.name = std::string(line.substr(0, pos));
  if (!IsValidMetricName(sample.name)) {
    issues->push_back({line_no, "invalid metric name in sample: '" +
                                    std::string(line.substr(0, pos)) + "'"});
    return sample;
  }

  std::map<std::string, std::string> labels;
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t name_start = pos;
      while (pos < line.size() && IsNameChar(line[pos])) ++pos;
      const std::string label_name(line.substr(name_start, pos - name_start));
      if (label_name.empty() || !IsNameStart(label_name[0]) ||
          pos >= line.size() || line[pos] != '=') {
        issues->push_back({line_no, "malformed label in sample"});
        return sample;
      }
      ++pos;  // '='
      if (pos >= line.size() || line[pos] != '"') {
        issues->push_back({line_no, "label value must be quoted"});
        return sample;
      }
      ++pos;  // opening quote
      std::string value;
      bool closed = false;
      while (pos < line.size()) {
        const char c = line[pos];
        if (c == '\\') {
          if (pos + 1 >= line.size()) break;
          const char esc = line[pos + 1];
          if (esc == '\\' || esc == '"') {
            value += esc;
          } else if (esc == 'n') {
            value += '\n';
          } else {
            issues->push_back(
                {line_no, "invalid escape in label value"});
            return sample;
          }
          pos += 2;
          continue;
        }
        if (c == '"') {
          closed = true;
          ++pos;
          break;
        }
        value += c;
        ++pos;
      }
      if (!closed) {
        issues->push_back({line_no, "unterminated label value"});
        return sample;
      }
      if (!labels.emplace(label_name, value).second) {
        issues->push_back({line_no, "duplicate label '" + label_name + "'"});
        return sample;
      }
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size() || line[pos] != '}') {
      issues->push_back({line_no, "unterminated label set"});
      return sample;
    }
    ++pos;  // '}'
  }

  if (pos >= line.size() || line[pos] != ' ') {
    issues->push_back({line_no, "expected space before sample value"});
    return sample;
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  std::size_t value_end = pos;
  while (value_end < line.size() && line[value_end] != ' ') ++value_end;
  if (!ParseValue(line.substr(pos, value_end - pos), &sample.value)) {
    issues->push_back({line_no, "unparseable sample value: '" +
                                    std::string(line.substr(pos)) + "'"});
    return sample;
  }
  // Optional trailing timestamp (integer milliseconds).
  while (value_end < line.size() && line[value_end] == ' ') ++value_end;
  if (value_end < line.size()) {
    double ts = 0.0;
    if (!ParseValue(line.substr(value_end), &ts)) {
      issues->push_back({line_no, "trailing garbage after sample value"});
      return sample;
    }
  }

  for (const auto& [k, v] : labels) {
    const std::string rendered = k + "=\"" + v + "\"";
    if (!sample.canonical_labels.empty()) sample.canonical_labels += ',';
    sample.canonical_labels += rendered;
    if (k == "le") {
      sample.has_le = true;
      sample.le = v;
    } else {
      if (!sample.labels_minus_le.empty()) sample.labels_minus_le += ',';
      sample.labels_minus_le += rendered;
    }
  }
  sample.ok = true;
  return sample;
}

/// Strips a histogram sample suffix: returns the base family name when
/// `name` ends with `_bucket`/`_sum`/`_count` AND that base was TYPE'd as
/// a histogram; otherwise returns `name` itself.
std::string HistogramBase(const std::string& name,
                          const std::map<std::string, FamilyInfo>& families,
                          std::string* suffix) {
  static const std::pair<const char*, const char*> kSuffixes[] = {
      {"_bucket", "bucket"}, {"_sum", "sum"}, {"_count", "count"}};
  for (const auto& [text, kind] : kSuffixes) {
    const std::string_view sv(text);
    if (name.size() > sv.size() &&
        name.compare(name.size() - sv.size(), sv.size(), sv) == 0) {
      const std::string base = name.substr(0, name.size() - sv.size());
      const auto it = families.find(base);
      if (it != families.end() && it->second.type == "histogram") {
        *suffix = kind;
        return base;
      }
    }
  }
  suffix->clear();
  return name;
}

}  // namespace

std::vector<ExpositionIssue> ValidateExposition(std::string_view text) {
  std::vector<ExpositionIssue> issues;
  if (!text.empty() && text.back() != '\n') {
    issues.push_back({0, "exposition must end with a newline"});
  }

  std::map<std::string, FamilyInfo> families;
  std::map<std::pair<std::string, std::string>, HistogramSeries> histograms;
  std::set<std::string> seen_series;

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type" / free-form comment.
      if (line.size() < 2 || line[1] != ' ') continue;
      const std::string_view rest = line.substr(2);
      const bool is_help = rest.rfind("HELP ", 0) == 0;
      const bool is_type = rest.rfind("TYPE ", 0) == 0;
      if (!is_help && !is_type) continue;
      const std::string_view body = rest.substr(5);
      const std::size_t space = body.find(' ');
      const std::string name(body.substr(0, space));
      if (!IsValidMetricName(name)) {
        issues.push_back(
            {line_no, "invalid metric name in comment: '" + name + "'"});
        continue;
      }
      if (is_help) {
        FamilyInfo& fam = families[name];
        if (fam.saw_help) {
          issues.push_back({line_no, "duplicate # HELP for '" + name + "'"});
        }
        fam.saw_help = true;
        continue;
      }
      if (space == std::string_view::npos) {
        issues.push_back({line_no, "# TYPE missing type for '" + name + "'"});
        continue;
      }
      const std::string type(body.substr(space + 1));
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        issues.push_back({line_no, "unknown type '" + type + "' for '" +
                                       name + "'"});
        continue;
      }
      FamilyInfo& fam = families[name];
      if (!fam.type.empty()) {
        issues.push_back({line_no, "duplicate # TYPE for '" + name + "'"});
      }
      fam.type = type;
      continue;
    }

    const ParsedSample sample = ParseSample(line, &issues, line_no);
    if (!sample.ok) continue;

    std::string suffix;
    const std::string base = HistogramBase(sample.name, families, &suffix);
    if (suffix.empty()) {
      const auto it = families.find(sample.name);
      if (it == families.end() || it->second.type.empty()) {
        issues.push_back(
            {line_no, "sample for '" + sample.name + "' has no # TYPE"});
      }
    }

    const std::string series_key =
        sample.name + "{" + sample.canonical_labels + "}";
    if (!seen_series.insert(series_key).second) {
      issues.push_back({line_no, "duplicate series " + series_key});
    }

    if (!suffix.empty()) {
      HistogramSeries& hs =
          histograms[std::make_pair(base, sample.labels_minus_le)];
      if (hs.first_line == 0) hs.first_line = line_no;
      if (suffix == "bucket") {
        families[base].saw_bucket = true;
        if (!sample.has_le) {
          issues.push_back(
              {line_no, "_bucket sample missing 'le' label for " + base});
        } else if (sample.le == "+Inf") {
          hs.has_inf = true;
          hs.inf_count = sample.value;
        } else {
          double le = 0.0;
          if (!ParseValue(sample.le, &le)) {
            issues.push_back(
                {line_no, "unparseable le value '" + sample.le + "'"});
          } else {
            hs.buckets.emplace_back(
                le, static_cast<std::uint64_t>(sample.value));
          }
        }
      } else if (suffix == "sum") {
        hs.has_sum = true;
      } else {
        hs.has_count = true;
        hs.count = sample.value;
      }
    }
  }

  for (const auto& [key, hs] : histograms) {
    const std::string where =
        key.second.empty() ? key.first : key.first + "{" + key.second + "}";
    double last_le = -1.0;
    std::uint64_t last_count = 0;
    bool ordered = true;
    bool monotone = true;
    for (const auto& [le, count] : hs.buckets) {
      if (le <= last_le) ordered = false;
      if (count < last_count) monotone = false;
      last_le = le;
      last_count = count;
    }
    if (!ordered) {
      issues.push_back(
          {hs.first_line, "histogram " + where + " le values not ascending"});
    }
    if (!monotone) {
      issues.push_back({hs.first_line, "histogram " + where +
                                           " cumulative buckets decrease"});
    }
    if (!hs.has_inf) {
      issues.push_back(
          {hs.first_line, "histogram " + where + " missing le=\"+Inf\""});
    } else if (!hs.buckets.empty() &&
               hs.inf_count < static_cast<double>(last_count)) {
      issues.push_back({hs.first_line, "histogram " + where +
                                           " +Inf bucket below last bucket"});
    }
    if (!hs.has_sum) {
      issues.push_back({hs.first_line, "histogram " + where + " missing _sum"});
    }
    if (!hs.has_count) {
      issues.push_back(
          {hs.first_line, "histogram " + where + " missing _count"});
    } else if (hs.has_inf && hs.inf_count != hs.count) {
      issues.push_back({hs.first_line,
                        "histogram " + where + " _count disagrees with " +
                            "le=\"+Inf\" (torn family)"});
    }
  }
  for (const auto& [name, fam] : families) {
    if (fam.type == "histogram" && !fam.saw_bucket) {
      issues.push_back({0, "histogram " + name + " has no _bucket samples"});
    }
  }

  return issues;
}

std::string FormatIssues(const std::vector<ExpositionIssue>& issues) {
  std::string out;
  for (const ExpositionIssue& issue : issues) {
    out += "line ";
    out += std::to_string(issue.line);
    out += ": ";
    out += issue.message;
    out += '\n';
  }
  return out;
}

}  // namespace obs
}  // namespace ssr
