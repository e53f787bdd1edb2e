// perfbench — the repository benchmark runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spec BENCHMARK.json]
//
// Runs one workload on one thread and prints a human-readable report, then
// one JSON result line (the last line of stdout) with the metrics the spec
// file lists for the mode.  Exit status 0 only when every output check
// passed.  Normally launched through perfbench/run.py, which builds this
// binary first.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload churn-sweep|rr-1k|daemon-stream|explore-search\n"
               "                 --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
               "                 [--spec BENCHMARK.json]\n",
               problem);
  std::exit(2);
}

unsigned long long parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = parse_number("--seed", value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_number("--seconds", value));
    } else if (flag == "--trace") {
      const auto trace = parse_number("--trace", value);
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--spec") {
      options.spec_path = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  try {
    return perfbench::run_command(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
