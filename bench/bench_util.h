#ifndef AUTOFP_BENCH_BENCH_UTIL_H_
#define AUTOFP_BENCH_BENCH_UTIL_H_

/// Shared helpers for the table/figure reproduction binaries.
///
/// The paper's experiments run 60-3600 s wall-clock per (dataset, model,
/// algorithm) on a 110-vCPU server; these benches reproduce the *shape* of
/// every table and figure at laptop scale by (a) capping training rows,
/// (b) using lighter model training configurations, and (c) using
/// evaluation-count budgets (machine-independent). See DESIGN.md.
///
/// It also holds the one writer of the committed kernel-level snapshots
/// (BENCH_kernels.json, BENCH_model_kernels.json, BENCH_stream.json; see
/// scripts/bench_snapshot.sh): TimeRepeats and Snapshot.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/auto_fp.h"
#include "util/simd.h"

// Set per snapshot binary by bench/CMakeLists.txt at configure time.
#ifndef AUTOFP_BENCH_BUILD_TYPE
#define AUTOFP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AUTOFP_BENCH_GIT_SHA
#define AUTOFP_BENCH_GIT_SHA "unknown"
#endif

namespace autofp {
namespace bench {

/// Row cap applied to every bench dataset (keeps each binary ~a minute).
inline constexpr size_t kMaxRows = 600;

/// Lighter-than-default model configurations used by all benches.
inline ModelConfig BenchModel(ModelKind kind) {
  ModelConfig config = ModelConfig::Defaults(kind);
  switch (kind) {
    case ModelKind::kLogisticRegression:
      config.lr_epochs = 40;
      break;
    case ModelKind::kXgboost:
      config.xgb_rounds = 15;
      config.xgb_max_depth = 3;
      break;
    case ModelKind::kMlp:
      config.mlp_hidden = 16;
      config.mlp_epochs = 10;
      break;
  }
  return config;
}

/// Paper-faithful heavy model configurations (sklearn/XGBoost-like
/// training effort) used by the *timing* benches (Figure 7 / Table 5),
/// where the Prep-vs-Train balance depends on realistic training cost.
inline ModelConfig HeavyModel(ModelKind kind) {
  ModelConfig config = ModelConfig::Defaults(kind);
  switch (kind) {
    case ModelKind::kLogisticRegression:
      config.lr_epochs = 100;
      break;
    case ModelKind::kXgboost:
      config.xgb_rounds = 100;
      config.xgb_max_depth = 6;
      break;
    case ModelKind::kMlp:
      config.mlp_hidden = 100;
      config.mlp_epochs = 50;
      break;
  }
  return config;
}

/// Loads a suite dataset, caps its rows, and splits 80:20.
inline TrainValidSplit PrepareScenario(const std::string& dataset_name,
                                       uint64_t seed = 1,
                                       size_t max_rows = kMaxRows) {
  Result<Dataset> dataset = GetSuiteDataset(dataset_name);
  AUTOFP_CHECK(dataset.ok()) << dataset.status().ToString();
  Rng rng(seed);
  Dataset capped = dataset.value();
  if (capped.num_rows() > max_rows) {
    capped = SubsampleRows(
        capped,
        static_cast<double>(max_rows) / static_cast<double>(capped.num_rows()),
        &rng);
    capped.name = dataset.value().name;
  }
  return SplitTrainValid(capped, 0.8, &rng);
}

/// The three downstream models in paper order.
inline const std::vector<ModelKind>& BenchModels() {
  static const std::vector<ModelKind>* kinds = new std::vector<ModelKind>{
      ModelKind::kLogisticRegression, ModelKind::kXgboost, ModelKind::kMlp};
  return *kinds;
}

/// Section-header printer so every bench output is self-describing.
inline void PrintHeader(const char* experiment, const char* paper_ref,
                        const char* note) {
  std::printf("==============================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  std::printf("%s\n", note);
  std::printf("==============================================================\n");
}

/// Wall time of one snapshot cell over its repeats, in nanoseconds.
struct Timing {
  double median_ns = 0.0;
  double min_ns = 0.0;
  double max_ns = 0.0;
};

/// Timed repeats per snapshot cell, after one untimed warm-up run. Odd, so
/// the median is one of the runs.
inline constexpr int kSnapshotRepeats = 9;

/// Runs `setup(); body();` once to warm up, then kSnapshotRepeats times
/// timing only `body`.
template <typename Setup, typename Body>
Timing TimeRepeats(Setup&& setup, Body&& body) {
  std::vector<double> ns;
  setup();
  body();
  for (int rep = 0; rep < kSnapshotRepeats; ++rep) {
    setup();
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto stop = std::chrono::steady_clock::now();
    ns.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count());
  }
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], ns.front(), ns.back()};
}

template <typename Body>
Timing TimeRepeats(Body&& body) {
  return TimeRepeats([] {}, body);
}

/// One committed snapshot file: the host it ran on (cores, SIMD backend,
/// build type, commit), the repeat count, the bench's fixed parameters,
/// and one object per cell. A cell's timings carry median/min/max; its
/// figures (rates, speedups) are derived from the medians by the caller.
class Snapshot {
 public:
  explicit Snapshot(std::string bench) : bench_(std::move(bench)) {}

  void Param(const std::string& key, double value) {
    params_ += (params_.empty() ? "" : ", ") + Field(key, value);
  }
  /// Starts a cell; Time and Figure add fields to the latest cell.
  void Cell(const std::string& name) {
    cells_.push_back("{\"name\": \"" + name + "\"");
  }
  void Time(const std::string& key, const Timing& timing) {
    cells_.back() += ", \"" + key + "\": {" +
                     Field("median", timing.median_ns) + ", " +
                     Field("min", timing.min_ns) + ", " +
                     Field("max", timing.max_ns) + "}";
  }
  void Figure(const std::string& key, double value) {
    cells_.back() += ", " + Field(key, value);
  }

  /// Writes the JSON to `path`, or to stdout when `path` is null. False
  /// when the file cannot be opened.
  bool Write(const char* path) const {
    std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return false;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"%s\",\n  \"host\": {\"nproc\": %ld, "
                 "\"simd\": \"%s\", \"build_type\": \"%s\", "
                 "\"git_sha\": \"%s\"},\n  \"repeats\": %d,\n"
                 "  \"params\": {%s},\n  \"cells\": [\n",
                 bench_.c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
                 simd::kBackendName, AUTOFP_BENCH_BUILD_TYPE,
                 AUTOFP_BENCH_GIT_SHA, kSnapshotRepeats, params_.c_str());
    for (size_t i = 0; i < cells_.size(); ++i) {
      std::fprintf(out, "    %s}%s\n", cells_[i].c_str(),
                   i + 1 < cells_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    return out == stdout || std::fclose(out) == 0;
  }

 private:
  /// `"key": value`; whole numbers from 10^4 up, 4 significant digits
  /// below.
  static std::string Field(const std::string& key, double value) {
    char number[64];
    std::snprintf(number, sizeof(number),
                  std::fabs(value) >= 1e4 ? "%.0f" : "%.4g", value);
    return "\"" + key + "\": " + number;
  }

  std::string bench_;
  std::string params_;
  std::vector<std::string> cells_;
};

}  // namespace bench
}  // namespace autofp

#endif  // AUTOFP_BENCH_BENCH_UTIL_H_
