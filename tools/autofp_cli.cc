/// autofp — command-line pipeline search.
///
/// Searches for the best feature-preprocessing pipeline for a dataset,
/// with any of the paper's 15 algorithms, and prints the result.
///
/// Usage:
///   autofp --data <file.csv | suite:NAME> [--model LR|XGB|MLP]
///          [--algorithm NAME] [--budget N] [--seconds S] [--seed N]
///          [--max-length N] [--space default|low|high] [--two-step]
///          [--train-fraction F] [--fault-rate F] [--slowdown-rate F]
///          [--slowdown-seconds S] [--eval-deadline S] [--max-retries N]
///          [--journal FILE] [--resume] [--export-artifact FILE] [--list]
///   autofp --data <file.csv> --apply "<pipeline>" --out <file.csv>
///   autofp --dump-journal <file.journal>
///
/// The CSV's last column is the class label; pass suite:NAME to use a
/// built-in benchmark dataset (see --list). With --apply, no search runs:
/// the given pipeline (PipelineSpec::ToString syntax, e.g.
/// "StandardScaler -> Binarizer(threshold=0.2)") is fitted to the data and
/// the transformed table (plus the label column) is written to --out.
///
/// Durable runs: --journal appends every completed evaluation to an
/// fsync'd write-ahead journal; --resume replays a journal after a crash
/// or interrupt so the search continues where it stopped. SIGINT/SIGTERM
/// stop the search gracefully at the next evaluation boundary (report
/// still printed, journal flushed). The env var AUTOFP_CRASH_AFTER_APPENDS
/// arms a deterministic crash point for the crash-injection harness.
///
/// Exit codes: 0 completed with >= 1 successful evaluation; 1 runtime
/// error; 2 usage error; 3 interrupted by signal; 4 completed but every
/// evaluation failed; 86 injected crash point.

#include <unistd.h>

#include <bit>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/auto_fp.h"
#include "dist/coordinator.h"
#include "dist/shared_dataset.h"
#include "dist/worker.h"
#include "serve/artifact.h"
#include "preprocess/pipeline_parse.h"
#include "cli_flags.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "search/registry.h"
#include "search/two_step.h"

namespace {

using namespace autofp;

volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void HandleStopSignal(int) { g_stop_requested = 1; }

struct Options {
  std::string data;
  std::string model = "LR";
  std::string algorithm = "PBT";
  long budget = 200;
  double seconds = -1.0;
  uint64_t seed = 42;
  size_t max_length = 7;
  std::string space = "default";
  bool two_step = false;
  double train_fraction = 1.0;
  double fault_rate = 0.0;
  double slowdown_rate = 0.0;
  double slowdown_seconds = 0.05;
  double eval_deadline = -1.0;
  int max_retries = 2;
  int threads = 1;
  double cache_mb = 0.0;
  int workers = 0;          ///< > 0: distributed multi-process evaluation.
  double lease_deadline = 30.0;  ///< straggler revocation deadline (s).
  bool list = false;
  // Internal worker entrypoint (spawned by the coordinator, never typed
  // by a user): run the dist worker loop on an inherited socketpair fd.
  bool dist_worker = false;
  int worker_fd = -1;
  int worker_index = 0;
  std::string worker_dataset;  ///< shared-dataset file to map.
  std::string apply;  ///< pipeline to apply instead of searching.
  std::string out;    ///< output CSV for --apply.
  std::string export_artifact;  ///< serve artifact path (after search).
  std::string journal;       ///< write-ahead run journal path.
  bool resume = false;       ///< replay the journal before evaluating.
  std::string dump_journal;  ///< print a journal and exit.
};

void PrintUsage() {
  std::printf(
      "usage: autofp --data <file.csv | suite:NAME> [options]\n"
      "  --model LR|XGB|MLP       downstream classifier (default LR)\n"
      "  --algorithm NAME         one of the 15 algorithms (default PBT)\n"
      "  --budget N               evaluation budget (default 200)\n"
      "  --seconds S              wall-clock budget (overrides --budget)\n"
      "  --seed N                 RNG seed (default 42)\n"
      "  --max-length N           max pipeline length (default 7)\n"
      "  --space default|low|high search space (Table 6/7 extensions)\n"
      "  --two-step               use the Two-step extension (Section 6.2)\n"
      "  --train-fraction F       subsample training rows to F (0,1]\n"
      "  --fault-rate F           inject evaluation faults with prob. F\n"
      "  --slowdown-rate F        inject evaluation slowdowns with prob. F\n"
      "  --slowdown-seconds S     simulated slowdown length (default 0.05)\n"
      "  --eval-deadline S        per-evaluation deadline in seconds\n"
      "  --max-retries N          retries for transient faults (default 2)\n"
      "  --threads N              parallel evaluation threads (default 1)\n"
      "  --cache-mb MB            prefix-transform cache in MiB (without\n"
      "                           --workers); nonzero also memoises\n"
      "                           repeated evaluations (default 0)\n"
      "  --workers N              evaluate on N worker processes (crash/\n"
      "                           straggler tolerant; excludes --threads)\n"
      "  --lease-deadline S       straggler revocation deadline (default 30)\n"
      "  --export-artifact FILE   after the search, refit the winning\n"
      "                           pipeline on the full dataset, train the\n"
      "                           downstream model, and write a serving\n"
      "                           artifact (score it with autofp_serve)\n"
      "  --journal FILE           append evaluations to a crash-safe journal\n"
      "  --resume                 replay FILE before evaluating (needs --journal)\n"
      "  --dump-journal FILE      print a journal's records and exit\n"
      "  --list                   list built-in datasets and algorithms\n"
      "  --apply \"<pipeline>\"     fit+apply a pipeline instead of searching\n"
      "  --out FILE               output CSV for --apply\n"
      "exit codes: 0 ok | 1 error | 2 usage | 3 interrupted | 4 all "
      "evaluations failed\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--data") {
      if (!cli::ParseString(argc, argv, &i, "--data", &options->data))
        return false;
    } else if (arg == "--model") {
      if (!cli::ParseString(argc, argv, &i, "--model", &options->model))
        return false;
    } else if (arg == "--algorithm") {
      if (!cli::ParseString(argc, argv, &i, "--algorithm",
                            &options->algorithm))
        return false;
    } else if (arg == "--budget") {
      if (!cli::ParseLong(argc, argv, &i, "--budget", 1, &options->budget))
        return false;
    } else if (arg == "--seconds") {
      if (!cli::ParseDouble(argc, argv, &i, "--seconds", &options->seconds))
        return false;
    } else if (arg == "--seed") {
      if (!cli::ParseU64(argc, argv, &i, "--seed", &options->seed))
        return false;
    } else if (arg == "--max-length") {
      if (!cli::ParseSize(argc, argv, &i, "--max-length", 1,
                          &options->max_length))
        return false;
    } else if (arg == "--space") {
      if (!cli::ParseString(argc, argv, &i, "--space", &options->space))
        return false;
    } else if (arg == "--two-step") {
      options->two_step = true;
    } else if (arg == "--train-fraction") {
      if (!cli::ParseDouble(argc, argv, &i, "--train-fraction",
                            {.min = 0.0, .max = 1.0, .min_open = true},
                            &options->train_fraction))
        return false;
    } else if (arg == "--fault-rate") {
      if (!cli::ParseDouble(argc, argv, &i, "--fault-rate",
                            {.min = 0.0, .max = 1.0}, &options->fault_rate))
        return false;
    } else if (arg == "--slowdown-rate") {
      if (!cli::ParseDouble(argc, argv, &i, "--slowdown-rate",
                            {.min = 0.0, .max = 1.0},
                            &options->slowdown_rate))
        return false;
    } else if (arg == "--slowdown-seconds") {
      if (!cli::ParseDouble(argc, argv, &i, "--slowdown-seconds",
                            {.min = 0.0}, &options->slowdown_seconds))
        return false;
    } else if (arg == "--eval-deadline") {
      if (!cli::ParseDouble(argc, argv, &i, "--eval-deadline",
                            &options->eval_deadline))
        return false;
    } else if (arg == "--max-retries") {
      if (!cli::ParseInt(argc, argv, &i, "--max-retries", 0,
                         &options->max_retries))
        return false;
    } else if (arg == "--threads") {
      if (!cli::ParseInt(argc, argv, &i, "--threads", 1, &options->threads))
        return false;
    } else if (arg == "--cache-mb") {
      if (!cli::ParseDouble(argc, argv, &i, "--cache-mb", {.min = 0.0},
                            &options->cache_mb))
        return false;
    } else if (arg == "--workers") {
      if (!cli::ParseInt(argc, argv, &i, "--workers", 0, &options->workers))
        return false;
    } else if (arg == "--lease-deadline") {
      if (!cli::ParseDouble(argc, argv, &i, "--lease-deadline",
                            {.min = 0.0, .min_open = true},
                            &options->lease_deadline))
        return false;
    } else if (arg == "--dist-worker") {
      options->dist_worker = true;
    } else if (arg == "--worker-fd") {
      if (!cli::ParseInt(argc, argv, &i, "--worker-fd", 0,
                         &options->worker_fd))
        return false;
    } else if (arg == "--worker-index") {
      if (!cli::ParseInt(argc, argv, &i, "--worker-index", 0,
                         &options->worker_index))
        return false;
    } else if (arg == "--worker-dataset") {
      if (!cli::ParseString(argc, argv, &i, "--worker-dataset",
                            &options->worker_dataset))
        return false;
    } else if (arg == "--export-artifact") {
      if (!cli::ParseString(argc, argv, &i, "--export-artifact",
                            &options->export_artifact))
        return false;
    } else if (arg == "--journal") {
      if (!cli::ParseString(argc, argv, &i, "--journal", &options->journal))
        return false;
    } else if (arg == "--resume") {
      options->resume = true;
    } else if (arg == "--dump-journal") {
      if (!cli::ParseString(argc, argv, &i, "--dump-journal",
                            &options->dump_journal))
        return false;
    } else if (arg == "--apply") {
      if (!cli::ParseString(argc, argv, &i, "--apply", &options->apply))
        return false;
    } else if (arg == "--out") {
      if (!cli::ParseString(argc, argv, &i, "--out", &options->out))
        return false;
    } else if (arg == "--list") {
      options->list = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Determinism-relevant CLI configuration, folded into the journal's
/// options fingerprint so resuming with different flags (different data,
/// algorithm, model, space, fault injection, ...) is rejected instead of
/// silently replaying outcomes the new run would never produce. Threads
/// and cache size stay out: history is invariant to them.
uint64_t CliConfigFingerprint(const Options& options,
                              const SearchOptions& search_options) {
  uint64_t hash = SearchOptionsFingerprint(search_options);
  auto mix_string = [&hash](const std::string& value) {
    hash = Fnv1a64(value.data(), value.size(), hash);
  };
  mix_string(options.data);
  mix_string(options.model);
  mix_string(options.algorithm);
  mix_string(options.space);
  hash = HashCombine(hash, options.two_step ? 1 : 0);
  hash = HashCombine(hash, options.max_length);
  hash = HashCombine(hash, std::bit_cast<uint64_t>(options.train_fraction));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(options.fault_rate));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(options.slowdown_rate));
  hash = HashCombine(hash, std::bit_cast<uint64_t>(options.slowdown_seconds));
  return hash;
}

bool ParseModelKind(const std::string& name, ModelKind* kind) {
  if (name == "LR") {
    *kind = ModelKind::kLogisticRegression;
  } else if (name == "XGB") {
    *kind = ModelKind::kXgboost;
  } else if (name == "MLP") {
    *kind = ModelKind::kMlp;
  } else {
    return false;
  }
  return true;
}

/// Builds the pipeline evaluator exactly as the single-process search
/// does — same seeded split, same train fraction — shared by the search
/// path and the dist worker entrypoint so a worker evaluates
/// byte-identically to an in-process run. Fault injection is not the
/// evaluator's: the search context draws it before dispatch.
std::unique_ptr<PipelineEvaluator> MakeEvaluator(const Options& options,
                                                 const Dataset& dataset,
                                                 ModelKind model_kind) {
  Rng rng(options.seed);
  TrainValidSplit split = SplitTrainValid(dataset, 0.8, &rng);
  auto evaluator = std::make_unique<PipelineEvaluator>(
      split.train, split.valid, ModelConfig::Defaults(model_kind));
  if (options.train_fraction < 1.0) {
    evaluator->set_global_train_fraction(options.train_fraction);
  }
  return evaluator;
}

/// Full-precision double formatting for flags forwarded to exec'd
/// workers (std::to_string truncates to 6 digits and would desync the
/// worker's train fraction from the coordinator's).
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Path of the running binary for spawning workers; /proc/self/exe works
/// regardless of how the coordinator was invoked (PATH lookup, relative
/// cwd), argv[0] is the fallback.
std::string WorkerExecutablePath(const char* argv0) {
  char buffer[4096];
  ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return argv0;
}

/// The internal worker entrypoint (--dist-worker): map the shared
/// dataset, rebuild the evaluator, and serve leases until the
/// coordinator shuts down or disappears.
int RunWorkerMode(const Options& options) {
  std::signal(SIGPIPE, SIG_IGN);
  if (options.worker_fd < 0 || options.worker_dataset.empty()) {
    std::fprintf(stderr,
                 "error: --dist-worker requires --worker-fd and "
                 "--worker-dataset\n");
    return 2;
  }
  ModelKind model_kind;
  if (!ParseModelKind(options.model, &model_kind)) {
    std::fprintf(stderr, "error: unknown model '%s'\n",
                 options.model.c_str());
    return 2;
  }
  Result<Dataset> dataset = MapSharedDataset(options.worker_dataset);
  if (!dataset.ok()) {
    std::fprintf(stderr, "worker %d: %s\n", options.worker_index,
                 dataset.status().ToString().c_str());
    return 1;
  }
  const uint64_t fingerprint = DatasetFingerprint(dataset.value());
  std::unique_ptr<PipelineEvaluator> evaluator =
      MakeEvaluator(options, dataset.value(), model_kind);
  WorkerHooks hooks = WorkerHooksFromEnv(options.worker_index);
  return RunDistWorker(options.worker_fd, fingerprint, evaluator.get(),
                       hooks);
}

/// Prints a journal's canonical listing (JournalListing): byte-identical
/// between an uninterrupted run and a crash+resume of the same
/// configuration (scripts/check_dist.sh diffs two of these dumps).
int DumpJournal(const std::string& path) {
  JournalReadResult read = ReadRunJournal(path);
  if (!read.ok()) {
    std::fprintf(stderr, "error reading journal: %s: %s\n",
                 JournalErrorName(read.error),
                 read.status.message().c_str());
    return 1;
  }
  if (read.dropped_tail_bytes > 0) {
    std::fprintf(stderr, "note: dropped %zu torn-tail bytes\n",
                 read.dropped_tail_bytes);
  }
  std::fputs(JournalListing(read).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.list) {
    std::printf("built-in datasets (use --data suite:NAME):\n");
    for (const SyntheticSpec& spec : BenchmarkSuiteSpecs()) {
      std::printf("  %-20s %zux%zu, %d classes\n", spec.name.c_str(),
                  spec.rows, spec.cols, spec.num_classes);
    }
    std::printf("algorithms:");
    for (const std::string& name : AllSearchAlgorithmNames()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  if (options.dist_worker) return RunWorkerMode(options);
  if (!options.dump_journal.empty()) return DumpJournal(options.dump_journal);
  if (options.resume && options.journal.empty()) {
    std::fprintf(stderr, "error: --resume requires --journal\n");
    return 2;
  }
  if (options.data.empty()) {
    PrintUsage();
    return 2;
  }

  // Load the dataset.
  Result<Dataset> dataset = [&]() -> Result<Dataset> {
    const std::string prefix = "suite:";
    if (options.data.rfind(prefix, 0) == 0) {
      return GetSuiteDataset(options.data.substr(prefix.size()));
    }
    return LoadCsvDataset(options.data, /*has_header=*/true, options.data);
  }();
  if (!dataset.ok()) {
    std::fprintf(stderr, "error loading data: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }

  // Apply mode: fit the given pipeline on the whole dataset and write the
  // transformed features (+ label column) to --out.
  if (!options.apply.empty()) {
    if (options.out.empty()) {
      std::fprintf(stderr, "error: --apply requires --out\n");
      return 2;
    }
    Result<PipelineSpec> pipeline = ParsePipelineSpec(options.apply);
    if (!pipeline.ok()) {
      std::fprintf(stderr, "error parsing pipeline: %s\n",
                   pipeline.status().ToString().c_str());
      return 2;
    }
    const Dataset& data = dataset.value();
    FittedPipeline fitted =
        FittedPipeline::Fit(pipeline.value(), data.features);
    Matrix transformed = fitted.Transform(data.features);
    Matrix table(transformed.rows(), transformed.cols() + 1);
    std::vector<std::string> header;
    for (size_t c = 0; c < transformed.cols(); ++c) {
      header.push_back("f" + std::to_string(c));
      for (size_t r = 0; r < transformed.rows(); ++r) {
        table(r, c) = transformed(r, c);
      }
    }
    header.push_back("label");
    for (size_t r = 0; r < transformed.rows(); ++r) {
      table(r, transformed.cols()) = data.labels[r];
    }
    Status written = WriteCsv(options.out, header, table);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("applied '%s'\nwrote %zu rows x %zu cols to %s\n",
                pipeline.value().ToString().c_str(), table.rows(),
                table.cols(), options.out.c_str());
    return 0;
  }

  ModelKind model_kind = ModelKind::kLogisticRegression;
  if (!ParseModelKind(options.model, &model_kind)) {
    std::fprintf(stderr, "error: unknown model '%s'\n",
                 options.model.c_str());
    return 2;
  }

  std::unique_ptr<PipelineEvaluator> evaluator =
      MakeEvaluator(options, dataset.value(), model_kind);
  Budget budget = options.seconds > 0.0 ? Budget::Seconds(options.seconds)
                                        : Budget::Evaluations(options.budget);
  if (options.eval_deadline > 0.0) {
    budget = budget.WithEvalDeadline(options.eval_deadline);
  }
  SearchOptions search_options;
  search_options.budget = budget;
  search_options.seed = options.seed;
  search_options.fault_policy.max_retries = options.max_retries;
  search_options.fault_injection.fault_rate = options.fault_rate;
  search_options.fault_injection.slowdown_rate = options.slowdown_rate;
  search_options.fault_injection.slowdown_seconds = options.slowdown_seconds;
  search_options.fault_injection.seed = options.seed ^ 0x5EEDFA17;
  search_options.num_threads = options.threads > 0 ? options.threads : 1;
  search_options.cache_bytes =
      static_cast<size_t>(options.cache_mb * 1024.0 * 1024.0);
  // The same budget bounds the prefix cache of the in-process evaluator.
  // Worker processes build their evaluators through MakeEvaluator and
  // evaluate uncached, and so does the coordinator's local fallback.
  std::shared_ptr<TransformCache> prefix_cache;
  if (search_options.cache_bytes > 0 && options.workers == 0) {
    prefix_cache = std::make_shared<TransformCache>(search_options.cache_bytes);
    evaluator->AttachTransformCache(prefix_cache);
  }

  // Distributed evaluation: spawn --workers worker processes over a
  // shared read-only dataset file; the search journals their merged
  // outcomes through the same coordinator-side choke point, so the
  // journal is byte-identical to a single-process run.
  std::unique_ptr<DistributedEvaluator> dist;
  std::string shared_dataset_path;
  if (options.workers > 0) {
    if (options.threads > 1) {
      std::fprintf(stderr,
                   "error: --workers and --threads are mutually "
                   "exclusive (workers already evaluate in parallel)\n");
      return 2;
    }
    const char* tmpdir = std::getenv("TMPDIR");
    shared_dataset_path =
        std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp") +
        "/autofp_dist_" + std::to_string(static_cast<long>(::getpid())) +
        ".ds";
    Status written = WriteSharedDataset(shared_dataset_path, dataset.value());
    if (!written.ok()) {
      std::fprintf(stderr, "error writing shared dataset: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::vector<std::string> argv_prefix;
    argv_prefix.push_back(WorkerExecutablePath(argv[0]));
    argv_prefix.push_back("--dist-worker");
    argv_prefix.push_back("--worker-dataset");
    argv_prefix.push_back(shared_dataset_path);
    argv_prefix.push_back("--model");
    argv_prefix.push_back(options.model);
    argv_prefix.push_back("--seed");
    argv_prefix.push_back(std::to_string(options.seed));
    if (options.train_fraction < 1.0) {
      argv_prefix.push_back("--train-fraction");
      argv_prefix.push_back(FormatDouble(options.train_fraction));
    }
    DistOptions dist_options;
    dist_options.num_workers = options.workers;
    dist_options.lease_deadline_seconds = options.lease_deadline;
    dist_options.expected_dataset_fingerprint =
        DatasetFingerprint(dataset.value());
    dist = std::make_unique<DistributedEvaluator>(
        evaluator.get(), ExecWorkerSpawner(std::move(argv_prefix)),
        dist_options);
    search_options.num_workers = options.workers;
  }
  EvaluatorInterface* search_evaluator =
      dist != nullptr ? static_cast<EvaluatorInterface*>(dist.get())
                      : evaluator.get();

  // Graceful shutdown: SIGINT/SIGTERM stop the search at the next
  // evaluation boundary; the report below still prints and the journal
  // (already fsync'd per record) is complete up to the stop. SIGPIPE is
  // ignored process-wide so a worker pipe closing mid-write surfaces as
  // a typed EPIPE, never a silent kill.
  search_options.stop_flag = &g_stop_requested;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Durable run: open (or resume) the write-ahead journal.
  std::unique_ptr<RunJournalWriter> journal;
  std::unique_ptr<RunJournalReplay> replay;
  if (!options.journal.empty()) {
    const uint64_t dataset_fp = DatasetFingerprint(dataset.value());
    const uint64_t options_fp = CliConfigFingerprint(options, search_options);
    RunJournalOptions journal_options;
    journal_options.meta = "autofp data=" + options.data +
                           " algorithm=" + options.algorithm +
                           " model=" + options.model +
                           " space=" + options.space +
                           " seed=" + std::to_string(options.seed);
    if (const char* crash_env = std::getenv("AUTOFP_CRASH_AFTER_APPENDS")) {
      journal_options.crash_after_appends = std::atoi(crash_env);
    }
    if (options.resume) {
      JournalReadResult read = ReadRunJournal(options.journal);
      if (!read.ok()) {
        std::fprintf(stderr, "error: cannot resume from '%s': %s: %s\n",
                     options.journal.c_str(), JournalErrorName(read.error),
                     read.status.message().c_str());
        return 1;
      }
      Status detail;
      JournalError mismatch =
          ValidateJournalHeader(read.header, options_fp, dataset_fp, &detail);
      if (mismatch != JournalError::kNone) {
        std::fprintf(stderr, "error: cannot resume from '%s': %s: %s\n",
                     options.journal.c_str(), JournalErrorName(mismatch),
                     detail.message().c_str());
        return 1;
      }
      std::printf("resuming: %zu recorded evaluations from %s",
                  read.records.size(), options.journal.c_str());
      if (read.dropped_tail_bytes > 0) {
        std::printf(" (%zu torn-tail bytes dropped)", read.dropped_tail_bytes);
      }
      std::printf("\n");
      replay = std::make_unique<RunJournalReplay>(read.records);
      Result<std::unique_ptr<RunJournalWriter>> writer =
          RunJournalWriter::OpenForAppend(options.journal, journal_options);
      if (!writer.ok()) {
        std::fprintf(stderr, "error: %s\n", writer.status().ToString().c_str());
        return 1;
      }
      journal = std::move(writer).value();
    } else {
      Result<std::unique_ptr<RunJournalWriter>> writer = RunJournalWriter::Create(
          options.journal, options_fp, dataset_fp, journal_options);
      if (!writer.ok()) {
        std::fprintf(stderr, "error: %s\n", writer.status().ToString().c_str());
        return 1;
      }
      journal = std::move(writer).value();
    }
    search_options.journal = journal.get();
    search_options.replay = replay.get();
  }

  std::printf("dataset: %s (%zu rows x %zu cols, %d classes)\n",
              dataset.value().name.c_str(), dataset.value().num_rows(),
              dataset.value().num_cols(), dataset.value().num_classes);
  std::printf("model: %s | algorithm: %s%s | space: %s\n",
              options.model.c_str(), options.algorithm.c_str(),
              options.two_step ? " (Two-step)" : "", options.space.c_str());

  SearchResult result;
  if (options.space == "default") {
    if (options.two_step) {
      std::fprintf(stderr,
                   "error: --two-step requires --space low or high\n");
      return 2;
    }
    Result<std::unique_ptr<SearchAlgorithm>> algorithm =
        MakeSearchAlgorithm(options.algorithm);
    if (!algorithm.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   algorithm.status().ToString().c_str());
      return 2;
    }
    SearchSpace space = SearchSpace::Default(options.max_length);
    result = RunSearch(algorithm.value().get(), search_evaluator, space,
                       search_options);
  } else {
    ParameterSpace parameters = options.space == "low"
                                    ? ParameterSpace::LowCardinality()
                                    : ParameterSpace::HighCardinality();
    if (options.space != "low" && options.space != "high") {
      std::fprintf(stderr, "error: unknown space '%s'\n",
                   options.space.c_str());
      return 2;
    }
    if (options.two_step) {
      TwoStepConfig config;
      config.algorithm = options.algorithm;
      config.max_pipeline_length = options.max_length;
      result = RunTwoStep(config, search_evaluator, parameters,
                          search_options);
    } else {
      result = RunOneStep(options.algorithm, search_evaluator, parameters,
                          search_options, options.max_length);
    }
  }

  std::printf("\nno-FP baseline : %.4f\n", result.baseline_accuracy);
  std::printf("best accuracy  : %.4f (%+.2f%%)\n", result.best_accuracy,
              100.0 * (result.best_accuracy - result.baseline_accuracy));
  std::printf("best pipeline  : %s\n",
              result.best_pipeline.ToString().c_str());
  std::printf("evaluations    : %ld (cost %.1f) in %.2fs | pick %.2fs, "
              "prep %.2fs, train %.2fs\n",
              result.num_evaluations, result.evaluation_cost,
              result.elapsed_seconds, result.pick_seconds,
              result.prep_seconds, result.train_seconds);
  std::printf("failures       : %ld failed attempts, %ld retries, "
              "%ld quarantined, %ld quarantine hits\n",
              result.num_failures, result.num_retries,
              result.num_quarantined, result.num_quarantine_hits);
  if (search_options.num_threads > 1 || search_options.cache_bytes > 0) {
    const TransformCache::Stats prefix = prefix_cache != nullptr
                                             ? prefix_cache->stats()
                                             : TransformCache::Stats{};
    // The pool's utilisation: its busy time over threads x elapsed. One
    // thread runs no pool, so it has no figure.
    char util[32] = "-";
    if (result.num_threads > 1 && result.elapsed_seconds > 0.0) {
      std::snprintf(util, sizeof(util), "%.2f",
                    result.pool_busy_seconds /
                        (result.num_threads * result.elapsed_seconds));
    }
    std::printf("engine         : %d threads, pool util %s | result cache "
                "%ld/%ld hits | prefix cache %ld/%ld hits\n",
                result.num_threads, util, result.result_cache_hits,
                result.result_cache_hits + result.result_cache_misses,
                prefix.hits, prefix.hits + prefix.misses);
  }
  if (journal != nullptr) {
    std::printf("journal        : %ld replayed, %ld appended -> %s\n",
                result.num_replayed, journal->num_appends(),
                journal->path().c_str());
  }
  if (dist != nullptr) {
    dist->Shutdown();
    const DistStats& ds = dist->stats();
    std::printf("workers        : %d workers | %ld spawned, %ld crashes, "
                "%ld stragglers, %ld corrupt, %ld re-leases, %ld stale, "
                "%ld local-fallback, %ld worker-lost\n",
                options.workers, ds.workers_spawned, ds.worker_crashes,
                ds.straggler_revocations, ds.corrupt_frame_revocations,
                ds.re_leases, ds.stale_results, ds.local_fallback_evals,
                ds.worker_lost_evals);
    ::unlink(shared_dataset_path.c_str());
  }
  // Deployment: refit the winning pipeline on the full dataset (train +
  // valid -- all the data the search saw), train the downstream model on
  // the transformed features, and write the serving artifact.
  if (!options.export_artifact.empty()) {
    if (result.num_successes == 0) {
      std::fprintf(stderr,
                   "warning: skipping --export-artifact: no successful "
                   "evaluation to export\n");
    } else {
      Result<ArtifactSchema> exported =
          ExportArtifact(options.export_artifact, dataset.value(),
                         result.best_pipeline,
                         ModelConfig::Defaults(model_kind));
      if (!exported.ok()) {
        std::fprintf(stderr, "error exporting artifact: %s\n",
                     exported.status().ToString().c_str());
        return 1;
      }
      std::printf("artifact       : %s (%" PRIu64 " feature cols, "
                  "%d classes, dataset fp %016" PRIx64 ")\n",
                  options.export_artifact.c_str(),
                  exported.value().input_cols, exported.value().num_classes,
                  exported.value().dataset_fingerprint);
    }
  }
  if (result.interrupted) {
    std::printf("interrupted    : stopped by signal at an evaluation "
                "boundary%s\n",
                journal != nullptr ? "; journal flushed, rerun with --resume"
                                   : "");
    return 3;
  }
  if (result.num_successes == 0) {
    std::fprintf(stderr,
                 "no successful evaluation: all %ld evaluations failed "
                 "(%ld failed attempts); the reported best is only the "
                 "no-FP/penalty fallback\n",
                 result.num_evaluations, result.num_failures);
    return 4;
  }
  return 0;
}
