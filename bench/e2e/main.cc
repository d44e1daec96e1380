/// autofp_e2e — the end-to-end benchmark's program (see README.md).
///
///   autofp_e2e --workload NAME [--seed N] [--seconds S] [--trace FILE]
///              [--quick] --workdir DIR [--git-sha SHA]
///   autofp_e2e --summarize FILE...
///   autofp_e2e --compare BASE_DIR NEW_DIR --benchmark BENCHMARK.json
///
/// --seconds is the length of a serving run's load phase (the benchmark
/// command passes BENCHMARK.json's run_seconds); a search run does a fixed
/// number of repetitions.
///
/// A run prints a header line (workload, seed, host block), the metrics by
/// name and unit, and as its last line one JSON object with the keys
/// correct, attempted, failed and metrics: every end-to-end metric, or with
/// --trace every per-layer metric. It exits 1 when a correctness check
/// failed. --summarize and --compare read saved run outputs (compare.cc).

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "e2e.h"
#include "util/simd.h"

namespace e2e {
namespace {

struct WorkloadDef {
  const char* name;
  void (*run)(const RunOptions&, Tracer*, Report*);
};

constexpr WorkloadDef kWorkloads[] = {
    {"search_evo_prep", RunSearchEvoPrep},
    {"search_rs_workers_train", RunSearchRsWorkersTrain},
    {"serve_small_open", RunServeSmallOpen},
    {"serve_bulk_dense", RunServeBulkDense},
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: autofp_e2e --workload NAME [--seed N] [--seconds S]\n"
      "                  [--trace FILE] [--quick] --workdir DIR "
      "[--git-sha SHA]\n"
      "       autofp_e2e --summarize FILE...\n"
      "       autofp_e2e --compare BASE_DIR NEW_DIR --benchmark FILE\n"
      "workloads:");
  for (const WorkloadDef& workload : kWorkloads) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
}

template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && stop == end;
}

int RunWorkload(const WorkloadDef& workload, RunOptions options,
                const std::string& git_sha) {
  // Each run gets its own scratch directory under --workdir.
  options.workdir += "/" + std::string(workload.name) + "-" +
                     std::to_string(static_cast<long>(::getpid()));
  std::filesystem::create_directories(options.workdir);

  Tracer tracer(options.traced());
  Report report;
  const double steal_before = StealMs();
  workload.run(options, &tracer, &report);
  report.Set("host.steal_ms", StealMs() - steal_before);
  report.Set("peak_rss_mb", PeakRssMb());
  std::filesystem::remove_all(options.workdir);

  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"traced\": %s, \"quick\": %s}, \"host\": {\"nproc\": %ld, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"steal_ms\": %s}}\n",
      workload.name, static_cast<unsigned long long>(options.seed),
      FormatNumber(options.seconds).c_str(),
      options.traced() ? "true" : "false", options.quick ? "true" : "false",
      ::sysconf(_SC_NPROCESSORS_ONLN), autofp::simd::kBackendName,
      AUTOFP_E2E_BUILD_TYPE, git_sha.c_str(),
      FormatNumber(report.Get("host.steal_ms")).c_str());

  const std::vector<MetricDef>& metrics =
      options.traced() ? PerLayerMetrics() : EndToEndMetrics();
  if (!options.traced()) {
    for (const MetricDef& metric : metrics) {
      report.Check(report.Has(metric.name),
                   "metric " + metric.name + " was not measured");
    }
  }
  std::string json = "{\"correct\": ";
  std::string metrics_json;
  for (const MetricDef& metric : metrics) {
    const double value = report.Get(metric.name);
    report.Check(std::isfinite(value), "metric " + metric.name +
                                           " is not finite");
    std::printf("  %-48s %14.6g %s\n", metric.name.c_str(), value,
                metric.unit.c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + metric.name + "\": {\"value\": " +
                    FormatNumber(std::isfinite(value) ? value : 0.0) +
                    ", \"unit\": \"" + metric.unit + "\"}";
  }
  if (options.traced()) {
    tracer.PrintSelfTimes(stdout);
    autofp::Status written = tracer.Write(options.trace_path);
    report.Check(written.ok(), written.ToString());
    std::printf("trace: %s\n", options.trace_path.c_str());
  }
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {" + metrics_json + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  // A peer closing mid-write must surface as a typed EPIPE, as in the
  // serving tools, never as a SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  RunOptions options;
  std::string git_sha = "unknown";
  std::string benchmark_path;
  std::vector<std::string> compare_dirs;
  std::vector<std::string> summarize_files;
  bool summarize = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const std::string value = has_value ? argv[i + 1] : "";
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && ParseNumber(value, &options.seed)) {
      ++i;
    } else if (arg == "--seconds" && ParseNumber(value, &options.seconds) &&
               options.seconds > 0) {
      ++i;
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--workdir" && has_value) {
      options.workdir = argv[++i];
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else if (arg == "--summarize") {
      summarize = true;
      summarize_files.assign(argv + i + 1, argv + argc);
      break;
    } else if (arg == "--compare" && i + 2 < argc) {
      compare_dirs = {argv[i + 1], argv[i + 2]};
      i += 2;
    } else if (arg == "--benchmark" && has_value) {
      benchmark_path = argv[++i];
    } else {
      std::fprintf(stderr, "error: bad argument '%s'\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }
  if (summarize) return Summarize(summarize_files);
  if (!compare_dirs.empty()) {
    if (benchmark_path.empty()) {
      PrintUsage();
      return 2;
    }
    return Compare(compare_dirs[0], compare_dirs[1], benchmark_path);
  }
  for (const WorkloadDef& workload : kWorkloads) {
    if (options.workload == workload.name) {
      if (options.workdir.empty()) {
        std::fprintf(stderr, "error: --workdir is required\n");
        return 2;
      }
      return RunWorkload(workload, options, git_sha);
    }
  }
  std::fprintf(stderr, "error: unknown workload '%s'\n",
               options.workload.c_str());
  PrintUsage();
  return 2;
}
