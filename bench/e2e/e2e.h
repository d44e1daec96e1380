#ifndef AUTOFP_BENCH_E2E_E2E_H_
#define AUTOFP_BENCH_E2E_E2E_H_

/// Shared pieces of autofp_e2e, the end-to-end benchmark (README.md): the
/// run options, the metric report every workload fills, the span recorder
/// behind --trace, and the replay and statistics helpers the workloads
/// share. Everything here sits outside the library and calls only its
/// public API.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "preprocess/pipeline.h"
#include "util/status.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 7;
  /// Length of a serving run's load phase. A search run does a fixed
  /// number of repetitions whatever its value.
  double seconds = 10.0;
  /// Chrome trace-event output; empty runs with span recording off.
  std::string trace_path;
  /// Smoke-test sizes: one short repetition, every correctness check.
  bool quick = false;
  /// This run's own scratch directory (journals, shared dataset,
  /// artifacts); created by main.cc and removed when the run ends.
  std::string workdir;

  bool traced() const { return !trace_path.empty(); }
};

/// One metric of BENCHMARK.json.
struct MetricDef {
  std::string name;
  std::string unit;
};

/// Printed by untraced runs; every workload measures all of them.
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by traced runs. A layer the workload does not exercise did no
/// work there and reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// What one workload run found: metric values, operation counts and
/// failed correctness checks.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Records a failed correctness check when `ok` is false.
  void Check(bool ok, const std::string& what);
  void AddOps(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  /// The value of `name`; 0 when the workload never set it.
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> failures_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// In-memory span recorder. Disabled, Record() is one branch; enabled,
/// spans stay in memory (up to a cap, beyond which they are counted as
/// dropped) until Write() emits Chrome trace-event JSON, which Perfetto
/// and chrome://tracing open directly. The tracer is also the run's clock,
/// so untraced code timestamps against the same origin.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Microseconds since the tracer was created.
  double NowUs() const;

  /// Reserves a span id, so children can name a parent that has not
  /// ended yet (0 when disabled).
  uint64_t NewId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  /// Records a finished span and returns its id (0 when disabled). A
  /// parent of 0 makes a root span; `request` groups the spans of one
  /// request or evaluation; `id` is one NewId() reserved, or 0 for a
  /// fresh one.
  uint64_t Record(const char* name, double start_us, double end_us,
                  uint64_t parent = 0, uint64_t request = 0,
                  uint64_t id = 0);

  autofp::Status Write(const std::string& path) const;
  /// Per span name: count, total time and self time (duration minus the
  /// part covered by child spans).
  void PrintSelfTimes(std::FILE* out) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int thread;
  };

  const bool enabled_;
  const double origin_us_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- Workloads (search_workloads.cc, serve_workloads.cc). -----------------

void RunSearchEvoPrep(const RunOptions& options, Tracer* tracer,
                      Report* report);
void RunSearchRsWorkersTrain(const RunOptions& options, Tracer* tracer,
                             Report* report);
void RunServeSmallOpen(const RunOptions& options, Tracer* tracer,
                       Report* report);
void RunServeBulkDense(const RunOptions& options, Tracer* tracer,
                       Report* report);

// --- Saved-run tools (compare.cc). ----------------------------------------

/// Prints each metric's median, quartiles, min and max over the runs whose
/// outputs are in `files`, then their medians as a result line.
int Summarize(const std::vector<std::string>& files);
/// Judges every (workload, end-to-end metric) of the runs in `new_dir`
/// against those in `base_dir`, with the bounds of `benchmark_path`.
/// Returns 1 when any pair is worse, 2 when the runs differ in --seconds,
/// --quick or --trace.
int Compare(const std::string& base_dir, const std::string& new_dir,
            const std::string& benchmark_path);

// --- Helpers shared by the workloads (common.cc). -------------------------

/// The dataset with its rows in a seed-determined order.
autofp::Dataset PermuteRows(const autofp::Dataset& data, uint64_t seed);

/// Per-preprocessor-kind cost, accumulated over step-by-step replays.
class KindCosts {
 public:
  /// Replays `spec` one step at a time through MakePreprocessor, Fit and
  /// TransformInPlace — the calls FittedPipeline::Fit makes — on `*train`
  /// and `*valid`, which end up transformed.
  void Replay(const autofp::PipelineSpec& spec, autofp::Matrix* train,
              autofp::Matrix* valid);
  /// Sets preprocess.{fit,transform}_us_per_krow.<Kind>.
  void ReportTo(Report* report) const;

 private:
  static constexpr int kKinds = 7;
  double fit_us_[kKinds] = {};
  double fit_krows_[kKinds] = {};
  double transform_us_[kKinds] = {};
  double transform_krows_[kKinds] = {};
};

/// Peak resident set of this process, MiB.
double PeakRssMb();
/// Steal time the kernel reports for all CPUs, in ms (0 where unavailable).
double StealMs();
/// Shortest decimal form that reads back as `value` (all its digits).
std::string FormatNumber(double value);
/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Linear-interpolation percentile, q in [0, 1] (0 when empty).
double Percentile(std::vector<double> values, double q);

}  // namespace e2e

#endif  // AUTOFP_BENCH_E2E_E2E_H_
