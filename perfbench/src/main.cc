// Benchmark driver: runs one workload for a time budget and prints one JSON
// object on the last line of stdout. perfbench/run.py builds and calls it.
//
//   mudi_perfbench --workload serve-80gpu --seed 1 --seconds 20 [--tiny]
//                  [--work-dir DIR] [--force-invariant-failure]
//   mudi_perfbench_traced ... --trace 1 [--spans FILE]
//
// Exit code 0 when the run completed (operation failures are reported in
// the JSON, not by the exit code); 2 on bad arguments or unusable inputs.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/workloads.h"
#include "src/ml/fit_pool.h"
#include "src/perf/mem_probe.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: mudi_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                      [--tiny] [--work-dir DIR] [--spans FILE]\n"
               "                      [--force-invariant-failure]\n"
               "workloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      cfg.traced = value() == "1";
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--work-dir") {
      cfg.work_dir = value();
    } else if (arg == "--spans") {
      cfg.spans_path = value();
    } else if (arg == "--force-invariant-failure") {
      cfg.force_invariant_failure = true;
    } else {
      Usage();
      return 2;
    }
  }
  if (cfg.workload.empty()) {
    Usage();
    return 2;
  }

  perfbench::Report report;
  std::string error;
  if (!perfbench::RunWorkload(cfg, &report, &error)) {
    std::fprintf(stderr, "mudi_perfbench: %s\n", error.c_str());
    return 2;
  }
  double peak_rss_mb =
      static_cast<double>(mudi::perf::ReadMemoryUsage().peak_rss_bytes) / (1024.0 * 1024.0);
  report.metrics.push_back(perfbench::Metric{"peak_rss_mb", peak_rss_mb, "MB"});

  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!metrics.empty()) {
      metrics += ',';
    }
    metrics.append(JsonString(m.name))
        .append(":{\"value\":")
        .append(JsonNumber(m.value))
        .append(",\"unit\":")
        .append(JsonString(m.unit))
        .append("}");
  }
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"digest\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"info\":{\"compiler\":%s,\"build_type\":%s,\"fit_threads\":%zu,"
      "\"alloc_hook\":%s},\"metrics\":{%s}}\n",
      JsonString(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.traced ? "true" : "false", JsonString(report.digest).c_str(),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), mudi::FitPool::ConfiguredThreads(),
      mudi::perf::ReadAllocStats().hooked ? "true" : "false", metrics.c_str());
  return 0;
}
