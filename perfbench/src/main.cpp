// comet_perfbench: runs one benchmark workload and prints its metrics.
//
//   comet_perfbench --workload <explain-uica|explain-ithemal|serve-mixed>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --fingerprints <file> --workdir <dir>
//   comet_perfbench --record <file> --workdir <dir>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it are a human-readable summary. perfbench/run.py builds
// this binary and drives it; see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: comet_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --fingerprints FILE --workdir DIR\n"
               "       comet_perfbench --record FILE --workdir DIR\n");
  return 2;
}

void print_result(const perfbench::RunConfig& config,
                  const perfbench::Result& result) {
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& m : result.metrics) {
    std::printf("#   %-26s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("#   %-26s %14.6f ratio (%llu failed / %llu attempted)\n",
              "error_rate",
              result.attempted
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::printf("#   %-26s %14.6f x (times above are divided by it)\n",
              "host_slowdown", result.host_slowdown);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string record;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--fingerprints") {
      config.fingerprints = value;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--record") {
      record = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || config.workdir.empty()) return usage();
  try {
    if (!record.empty()) {
      perfbench::record_fingerprints(record, config.workdir);
      return 0;
    }
    if (config.workload.empty() || config.fingerprints.empty() ||
        !(config.seconds > 0.0)) {
      return usage();
    }
    print_result(config, perfbench::run_workload(config));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "comet_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
