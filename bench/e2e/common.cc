#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "e2e.h"
#include "preprocess/preprocessor.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/timer.h"

namespace e2e {

using autofp::Matrix;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"throughput", "1/s"},
      {"latency_ms", "ms"},
      {"accuracy", "fraction"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> list = {
        {"search.pick_s", "s"},
        {"search.time_to_best_s", "s"},
        {"core.pool_util", "fraction"},
        {"core.evaluate_ms_p50", "ms"},
        {"core.evaluate_ms_p99", "ms"},
        {"core.result_cache_hit_rate", "fraction"},
        {"core.journal_append_us_p50", "us"},
        {"core.journal_append_us_p99", "us"},
        {"preprocess.prep_s", "s"},
        {"preprocess.prep_share", "fraction"},
        {"preprocess.cache_hit_rate", "fraction"},
        {"preprocess.cache_evictions", "count"},
        {"preprocess.cache_bytes", "B"},
    };
    for (const char* stage : {"fit", "transform"}) {
      for (autofp::PreprocessorKind kind : autofp::AllPreprocessorKinds()) {
        list.push_back({std::string("preprocess.") + stage + "_us_per_krow." +
                            autofp::KindName(kind),
                        "us/krow"});
      }
    }
    const std::vector<MetricDef> rest = {
        {"ml.train_s", "s"},
        {"ml.fit_ms_p50", "ms"},
        {"ml.score_ms_p50", "ms"},
        {"dist.worker_util", "fraction"},
        {"dist.batch_imbalance", "ratio"},
        {"dist.leases", "count"},
        {"dist.re_leases", "count"},
        {"dist.worker_crashes", "count"},
        {"dist.local_fallback_evals", "count"},
        {"serve.predict_ms_p50", "ms"},
        {"serve.predict_ms_p99", "ms"},
        {"serve.predict_busy_share", "fraction"},
        {"serve.batch_rows_mean", "rows"},
        {"serve.coalesced_share", "fraction"},
        {"serve.busy_shed", "count"},
        {"serve.decode_us_p50", "us"},
        {"serve.encode_us_p50", "us"},
        {"serve.transform_us_per_row", "us/row"},
        {"serve.model_us_per_row", "us/row"},
        {"serve.wait_ms_p50", "ms"},
        {"tail.p99_ms", "ms"},
        {"tail.p999_ms", "ms"},
        {"tail.p9999_ms", "ms"},
        {"tail.samples", "count"},
        {"stream.observe_us_p50", "us"},
        {"stream.observe_us_p99", "us"},
        {"stream.windows_compared", "count"},
        {"stream.drift_triggers", "count"},
        {"setup.data_s", "s"},
        {"setup.spawn_s", "s"},
        {"setup.export_s", "s"},
        {"loadgen.late_ms_p99", "ms"},
        {"loadgen.late_ms_max", "ms"},
        {"host.steal_ms", "ms"},
        {"trace.overhead_frac", "fraction"},
        {"trace.unexplained_frac", "fraction"},
    };
    list.insert(list.end(), rest.begin(), rest.end());
    return list;
  }();
  return metrics;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

// --- Tracer ----------------------------------------------------------------

namespace {

double SteadyUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small stable per-thread index for the trace's tid column.
int ThreadIndex() {
  static std::atomic<int> next{1};
  thread_local int index = next.fetch_add(1);
  return index;
}

void AppendJsonString(const char* text, std::string* out) {
  out->push_back('"');
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') out->push_back('\\');
    out->push_back(*p);
  }
  out->push_back('"');
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_us_(SteadyUs()) {}

double Tracer::NowUs() const { return SteadyUs() - origin_us_; }

uint64_t Tracer::Record(const char* name, double start_us, double end_us,
                        uint64_t parent, uint64_t request, uint64_t id) {
  if (!enabled_) return 0;
  // Enough for every evaluation of a search run and ~10 s of open-loop
  // requests; the cap bounds memory and trace size, not correctness.
  constexpr size_t kMaxSpans = 400000;
  if (id == 0) id = NewId();
  const int thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return id;
  }
  spans_.push_back({name, start_us, end_us, id, parent, request, thread});
  return id;
}

autofp::Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buffer[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json += "{\"name\":";
    AppendJsonString(span.name, &json);
    std::snprintf(buffer, sizeof(buffer),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu}}%s\n",
                  span.thread, span.start_us,
                  std::max(0.0, span.end_us - span.start_us),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request),
                  i + 1 < spans_.size() ? "," : "");
    json += buffer;
  }
  json += "]}\n";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.flush();
  if (!out) return autofp::Status::IoError("cannot write trace " + path);
  return autofp::Status::OK();
}

void Tracer::PrintSelfTimes(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_us, span.end_us});
    }
  }
  struct Totals {
    long count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const Span& span : spans_) {
    const double duration = std::max(0.0, span.end_us - span.start_us);
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> parts = it->second;
      std::sort(parts.begin(), parts.end());
      double cursor = span.start_us;
      for (const auto& [start, end] : parts) {
        const double lo = std::max(start, cursor);
        const double hi = std::min(end, span.end_us);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    Totals& totals = by_name[span.name];
    ++totals.count;
    totals.total_us += duration;
    totals.self_us += std::max(0.0, duration - covered);
  }
  std::fprintf(out, "layer self time (span time minus child spans):\n");
  std::fprintf(out, "  %-24s %9s %12s %12s\n", "span", "count", "total_s",
               "self_s");
  for (const auto& [name, totals] : by_name) {
    std::fprintf(out, "  %-24s %9ld %12.4f %12.4f\n", name.c_str(),
                 totals.count, totals.total_us * 1e-6, totals.self_us * 1e-6);
  }
  if (dropped_.load() > 0) {
    std::fprintf(out, "  (%zu spans over the in-memory cap were dropped)\n",
                 dropped_.load());
  }
}

// --- Shared helpers ----------------------------------------------------------

autofp::Dataset PermuteRows(const autofp::Dataset& data, uint64_t seed) {
  autofp::Rng rng(seed);
  return data.SelectRows(rng.Permutation(data.num_rows()));
}

void KindCosts::Replay(const autofp::PipelineSpec& spec, Matrix* train,
                       Matrix* valid) {
  for (const autofp::PreprocessorConfig& config : spec.steps) {
    const int kind = static_cast<int>(config.kind);
    std::unique_ptr<autofp::Preprocessor> step =
        autofp::MakePreprocessor(config);
    autofp::Stopwatch fit_watch;
    step->Fit(*train);
    fit_us_[kind] += fit_watch.ElapsedSeconds() * 1e6;
    fit_krows_[kind] += static_cast<double>(train->rows()) / 1000.0;
    autofp::Stopwatch transform_watch;
    step->TransformInPlace(*train);
    step->TransformInPlace(*valid);
    transform_us_[kind] += transform_watch.ElapsedSeconds() * 1e6;
    transform_krows_[kind] +=
        static_cast<double>(train->rows() + valid->rows()) / 1000.0;
  }
}

void KindCosts::ReportTo(Report* report) const {
  for (autofp::PreprocessorKind kind : autofp::AllPreprocessorKinds()) {
    const int k = static_cast<int>(kind);
    const std::string name = autofp::KindName(kind);
    if (fit_krows_[k] > 0.0) {
      report->Set("preprocess.fit_us_per_krow." + name,
                  fit_us_[k] / fit_krows_[k]);
    }
    if (transform_krows_[k] > 0.0) {
      report->Set("preprocess.transform_us_per_krow." + name,
                  transform_us_[k] / transform_krows_[k]);
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double StealMs() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::vector<double> fields;
  if (!(stat >> label) || label != "cpu") return 0.0;
  double value = 0.0;
  for (int i = 0; i < 8 && stat >> value; ++i) fields.push_back(value);
  if (fields.size() < 8) return 0.0;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return ticks > 0 ? fields[7] * 1000.0 / static_cast<double>(ticks) : 0.0;
}

std::string FormatNumber(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return autofp::Quantile(std::move(values), q);
}

}  // namespace e2e
