// perfbench — the repository's end-to-end benchmark binary.
//
//   perfbench --workload <wire_oneshot|disk_mc_threshold|moving_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Prints a context line and, as the last line of stdout, one JSON result:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. perfbench/run.py builds
// this binary and runs it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace ilq::perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--scratch") == 0) {
      options.scratch = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag);
      return 2;
    }
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N "
                         "--seconds S --trace 0|1 [--scratch DIR]\n");
    return 2;
  }

  Report report(options);
  if (options.workload == "wire_oneshot") {
    RunWireOneshot(options, &report);
  } else if (options.workload == "disk_mc_threshold") {
    RunDiskMcThreshold(options, &report);
  } else if (options.workload == "moving_churn") {
    RunMovingChurn(options, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  return report.Print() ? 0 : 1;
}
