// fedrec_perfbench: the repo benchmark. One process runs one workload:
//
//   fedrec_perfbench --workload <attack_ml100k|defended_catalogue|socket_fleet>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <chrome-trace.json>] [--rev <source rev>]
//
// It prints the run context, a table of every metric with its unit and
// sample count, and as the last stdout line the JSON result
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit code 1 on any failed
// correctness check, 2 on bad arguments. perfbench/README.md describes the
// workloads and what each metric should move.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "harness.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "fedrec_perfbench: %s\nusage: fedrec_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 [--trace-out F] [--rev R]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--rev") {
      options.rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  // The program's info logs (e.g. per-epoch lines) would interleave with
  // the metric table; keep warnings and errors.
  fedrec::SetLogLevel(fedrec::LogLevel::kWarning);
  if (options.workload == "attack_ml100k") {
    return perfbench::RunAttackMl100k(options);
  }
  if (options.workload == "defended_catalogue") {
    return perfbench::RunDefendedCatalogue(options);
  }
  if (options.workload == "socket_fleet") {
    return perfbench::RunSocketFleet(options);
  }
  return Usage(("unknown workload '" + options.workload + "'").c_str());
}
