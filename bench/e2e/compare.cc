/// --summarize and --compare: read saved run outputs (each a run's full
/// stdout, whose last line is the result object) and report spread, or
/// judge a change against its parent with the rules of the
/// choosing-metrics method (README.md, "Comparing two commits").

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "e2e.h"

namespace e2e {

namespace {

/// Just enough JSON for the result lines and BENCHMARK.json.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* Find(const std::string& key) const {
    for (const auto& [name, value] : object) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(Json* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const std::string w = word;
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool String(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
      }
      out->push_back(c);
    }
    return Consume('"');
  }
  bool Value(Json* out, int depth) {
    if (depth > 32) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      if (Consume('}')) return true;
      do {
        std::string key;
        Json value;
        if (!String(&key) || !Consume(':') || !Value(&value, depth + 1)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      if (Consume(']')) return true;
      do {
        Json value;
        if (!Value(&value, depth + 1)) return false;
        out->array.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    out->type = Json::Type::kNumber;
    const char* begin = text_.data() + pos_;
    auto [end, ec] =
        std::from_chars(begin, text_.data() + text_.size(), out->number);
    if (ec != std::errc()) return false;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool ParseJson(const std::string& text, Json* out) {
  return JsonParser(text).Parse(out);
}

/// One saved run: its header and result lines.
struct RunOutput {
  std::string file;
  std::string workload;
  double seed = 0.0;
  /// What sets the run's work besides the seed: --seconds, --quick and
  /// --trace, as the header records them.
  std::string settings;
  bool correct = false;
  double attempted = 0.0;
  double failed = 0.0;
  std::map<std::string, std::pair<double, std::string>> metrics;
};

bool ReadRunOutput(const std::string& path, RunOutput* run) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  run->file = path;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last = line;
    Json header;
    const Json* info = nullptr;
    if (line.rfind("{\"run\":", 0) == 0 && ParseJson(line, &header) &&
        (info = header.Find("run")) != nullptr) {
      const Json* workload = info->Find("workload");
      const Json* seed = info->Find("seed");
      const Json* seconds = info->Find("seconds");
      const Json* traced = info->Find("traced");
      const Json* quick = info->Find("quick");
      if (workload != nullptr) run->workload = workload->string;
      if (seed != nullptr) run->seed = seed->number;
      if (seconds != nullptr && traced != nullptr && quick != nullptr) {
        run->settings = "seconds " + FormatNumber(seconds->number) +
                        (traced->boolean ? ", traced" : "") +
                        (quick->boolean ? ", quick" : "");
      }
    }
  }
  Json result;
  if (run->workload.empty() || run->settings.empty() ||
      !ParseJson(last, &result)) {
    return false;
  }
  const Json* correct = result.Find("correct");
  const Json* attempted = result.Find("attempted");
  const Json* failed = result.Find("failed");
  const Json* metrics = result.Find("metrics");
  if (correct == nullptr || attempted == nullptr || failed == nullptr ||
      metrics == nullptr) {
    return false;
  }
  run->correct = correct->boolean;
  run->attempted = attempted->number;
  run->failed = failed->number;
  for (const auto& [name, metric] : metrics->object) {
    const Json* value = metric.Find("value");
    const Json* unit = metric.Find("unit");
    if (value == nullptr || unit == nullptr) return false;
    run->metrics[name] = {value->number, unit->string};
  }
  return true;
}

std::vector<RunOutput> ReadRuns(const std::vector<std::string>& files) {
  std::vector<RunOutput> runs;
  for (const std::string& file : files) {
    RunOutput run;
    if (ReadRunOutput(file, &run)) {
      runs.push_back(std::move(run));
    } else {
      std::fprintf(stderr, "warning: %s holds no run result\n", file.c_str());
    }
  }
  return runs;
}

/// Median and quartiles as Python's statistics.quantiles(values, n=4)
/// computes them (the default 'exclusive' method).
struct Spread {
  double q1 = 0.0, median = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
  /// (q3 - q1) / median.
  double Relative() const {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

Spread Quartiles(std::vector<double> values) {
  Spread spread;
  if (values.empty()) return spread;
  std::sort(values.begin(), values.end());
  spread.min = values.front();
  spread.max = values.back();
  if (values.size() == 1) {
    spread.q1 = spread.median = spread.q3 = values.front();
    return spread;
  }
  const long size = static_cast<long>(values.size());
  const long m = size + 1;
  double cuts[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, size - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4.0;
  }
  spread.q1 = cuts[0];
  spread.median = cuts[1];
  spread.q3 = cuts[2];
  return spread;
}

std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

int Summarize(const std::vector<std::string>& files) {
  const std::vector<RunOutput> runs = ReadRuns(files);
  if (runs.empty()) return 1;
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  bool correct = true;
  double attempted = 0.0, failed = 0.0;
  for (const RunOutput& run : runs) {
    correct = correct && run.correct;
    attempted += run.attempted;
    failed += run.failed;
    for (const auto& [name, metric] : run.metrics) {
      values[name].push_back(metric.first);
      units[name] = metric.second;
    }
  }
  std::printf("%zu runs of %s\n", runs.size(), runs.front().workload.c_str());
  std::printf("  %-44s %12s %12s %12s %12s %12s %8s %s\n", "metric", "median",
              "q1", "q3", "min", "max", "iqr/med", "unit");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + FormatNumber(attempted) + ", \"failed\": " +
          FormatNumber(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, list] : values) {
    const Spread spread = Quartiles(list);
    std::printf("  %-44s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s\n",
                name.c_str(), spread.median, spread.q1, spread.q3, spread.min,
                spread.max, spread.Relative(), units[name].c_str());
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + FormatNumber(spread.median) +
            ", \"unit\": \"" + units[name] + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

int Compare(const std::string& base_dir, const std::string& new_dir,
            const std::string& benchmark_path) {
  std::ifstream in(benchmark_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  Json benchmark;
  const Json* end_to_end = nullptr;
  if (!ParseJson(text, &benchmark) ||
      (end_to_end = benchmark.Find("end_to_end")) == nullptr) {
    std::fprintf(stderr, "error: cannot read %s\n", benchmark_path.c_str());
    return 2;
  }
  std::map<std::string, std::vector<RunOutput>> base, change;
  std::string settings;
  for (const auto& [dir, side] : {std::pair{&base_dir, &base},
                                  std::pair{&new_dir, &change}}) {
    for (RunOutput& run : ReadRuns(FilesIn(*dir))) {
      // Runs that did different work cannot be compared.
      if (settings.empty()) settings = run.settings;
      if (run.settings != settings) {
        std::fprintf(stderr, "error: %s ran with %s, other runs with %s\n",
                     run.file.c_str(), run.settings.c_str(),
                     settings.c_str());
        return 2;
      }
      (*side)[run.workload].push_back(std::move(run));
    }
  }
  auto by_seed = [](const RunOutput& a, const RunOutput& b) {
    return a.seed < b.seed;
  };
  int worse = 0;
  std::printf("%-24s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric",
              "base", "new", "change", "wins", "verdict");
  for (auto& [workload, base_runs] : base) {
    auto it = change.find(workload);
    if (it == change.end()) continue;
    std::vector<RunOutput>& new_runs = it->second;
    std::sort(base_runs.begin(), base_runs.end(), by_seed);
    std::sort(new_runs.begin(), new_runs.end(), by_seed);
    for (const Json& metric : end_to_end->array) {
      const std::string name = metric.Find("name")->string;
      const bool lower = metric.Find("better")->string == "lower";
      const double bound = metric.Find("bound")->number;
      std::vector<double> b, n;
      for (const RunOutput& run : base_runs) {
        if (run.metrics.count(name)) b.push_back(run.metrics.at(name).first);
      }
      for (const RunOutput& run : new_runs) {
        if (run.metrics.count(name)) n.push_back(run.metrics.at(name).first);
      }
      if (b.empty() || n.empty()) continue;
      const Spread sb = Quartiles(b);
      const Spread sn = Quartiles(n);
      auto better = [lower](double x, double y) {
        return lower ? x < y : x > y;
      };
      // Pairs are the i-th runs of each side in seed order; ties count for
      // neither side.
      const size_t pairs = std::min(b.size(), n.size());
      size_t wins = 0;
      for (size_t i = 0; i < pairs; ++i) wins += better(n[i], b[i]) ? 1 : 0;
      const bool every_run_better =
          lower ? sn.max < sb.min : sn.min > sb.max;
      const double change_rel = (sn.median - sb.median) / sb.median;
      const double worse_rel = lower ? change_rel : -change_rel;
      // A side whose own spread exceeds the bound cannot show a change of
      // the bound's size either way.
      std::string verdict;
      if (better(sn.median, sb.median) && wins * 10 >= pairs * 9 &&
          std::fabs(sn.median - sb.median) > sb.q3 - sb.q1) {
        verdict = "improved";
      } else if ((sb.Relative() > bound || sn.Relative() > bound) &&
                 !every_run_better) {
        verdict = "unresolved";
      } else if (worse_rel > bound) {
        verdict = "worse";
        ++worse;
      } else {
        verdict = "unchanged";
      }
      std::printf("%-24s %-16s %12.6g %12.6g %+8.2f%% %3zu/%-3zu  %s\n",
                  workload.c_str(), name.c_str(), sb.median, sn.median,
                  100.0 * change_rel, wins, pairs, verdict.c_str());
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace e2e
