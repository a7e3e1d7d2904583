// prom_lint: checks a Prometheus text exposition (format 0.0.4) with
// obs::ValidateExposition, the validator the tests and the benchrunner's
// introspection suite run, so CI can pipe a live /metrics scrape through
// the same checks.
//
//   prom_lint [FILE]    reads FILE (default: stdin). Exits 0 when the
//                       document conforms, 1 when it has issues (listed on
//                       stderr), 2 on a usage or read error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/exposition.h"

int main(int argc, char** argv) {
  if (argc > 2) {
    std::cerr << "usage: prom_lint [FILE]\n";
    return 2;
  }
  std::ostringstream text;
  if (argc == 2) {
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
      std::cerr << "prom_lint: cannot read " << argv[1] << "\n";
      return 2;
    }
    text << in.rdbuf();
  } else {
    text << std::cin.rdbuf();
  }
  const std::string doc = std::move(text).str();
  const auto issues = ssr::obs::ValidateExposition(doc);
  if (!issues.empty()) {
    std::cerr << ssr::obs::FormatIssues(issues) << "prom_lint: "
              << issues.size() << " issue(s)\n";
    return 1;
  }
  std::size_t samples = 0;
  std::istringstream lines(doc);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') ++samples;
  }
  std::cout << "prom_lint: OK (" << samples << " samples)\n";
  return 0;
}
