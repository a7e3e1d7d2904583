// Shared utilities for the figure-reproduction benchmark binaries: a tiny
// --flag=value parser and common printing helpers. Every bench binary
// prints the rows/series of the paper figure it reproduces; absolute times
// come from the simulated I/O model plus measured CPU, so shapes (who wins,
// where the crossover falls) are the comparable quantity.
//
// Every binary also accepts --json=<path>: the run's parameters, tables,
// and headline scalars are collected into an eval::RunReport and written as
// a machine-readable artifact (embedding a metrics-registry dump, the
// per-phase counter profile, and the query-trace ring). Passing --json
// enables query tracing and counter profiling for the run.
//
// --trace=<path> additionally writes the trace ring as a Chrome-trace JSON
// file loadable in chrome://tracing / ui.perfetto.dev (bare --trace just
// enables tracing without the file, as before).

#ifndef SSR_BENCH_BENCH_COMMON_H_
#define SSR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "eval/run_report.h"
#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ssr {
namespace bench {

/// Parses --key=value arguments into a map; everything else is ignored.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        // std::string("1") rather than = "1": the const char* assignment
        // inlines into a memcpy that trips the GCC 12 -Wrestrict false
        // positive (PR105329) at -O3, and CI builds with -Werror.
        values_[arg.substr(2)] = std::string("1");
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  long GetInt(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

  bool GetBool(const std::string& key, bool fallback = false) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }

  /// The name of every --flag given, sorted, each once.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    for (const auto& [name, value] : values_) names.push_back(name);
    return names;
  }

 private:
  std::map<std::string, std::string> values_;
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==========================================================\n");
}

/// The Chrome-trace output path: the value of --trace when it names a file
/// (any value other than the bare/boolean forms "1"/"0"/"true"/"false").
inline std::string ChromeTracePath(const Flags& flags) {
  const std::string value = flags.GetString("trace", "");
  if (value.empty() || value == "1" || value == "0" || value == "true" ||
      value == "false") {
    return "";
  }
  return value;
}

/// Turns on query tracing and counter profiling when a JSON artifact or a
/// Chrome trace was requested (or --trace was passed explicitly). Call
/// before running queries. Profiling walks the perf-counter availability
/// ladder (hardware -> software -> rusage) and honors SSR_PERF_COUNTERS.
inline void EnableObservability(const Flags& flags) {
  if (!flags.GetString("json", "").empty() || flags.GetBool("trace")) {
    obs::Tracer::Default().set_enabled(true);
    obs::Profiler::Default().Enable();
  }
}

/// Writes the artifacts a run requested: the RunReport to --json and the
/// Chrome trace to --trace=<path>. Returns 0 on success (or when nothing
/// was requested), 1 on any write failure.
inline int WriteReportIfRequested(const Flags& flags,
                                  const RunReport& report) {
  int rc = 0;
  const std::string path = flags.GetString("json", "");
  if (!path.empty()) {
    const Status status = report.WriteTo(path);
    if (!status.ok()) {
      std::fprintf(stderr, "report write failed: %s\n",
                   status.ToString().c_str());
      rc = 1;
    } else {
      std::printf("\nwrote JSON report to %s\n", path.c_str());
    }
  }
  const std::string trace_path = ChromeTracePath(flags);
  if (!trace_path.empty()) {
    std::string error;
    if (!obs::WriteChromeTraceFile(trace_path, obs::Tracer::Default(),
                                   &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      rc = 1;
    } else {
      std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n",
                  trace_path.c_str());
    }
  }
  return rc;
}

}  // namespace bench
}  // namespace ssr

#endif  // SSR_BENCH_BENCH_COMMON_H_
