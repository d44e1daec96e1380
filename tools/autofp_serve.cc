/// autofp_serve — score rows against an exported pipeline artifact.
///
/// The serving half of the artifact workflow (see DESIGN.md "Artifacts
/// and serving" and "Network serving"): `autofp --export-artifact` writes
/// the fitted pipeline plus trained model to one file; this tool loads it
/// into an immutable Predictor and applies `transform -> predict` to
/// rows, as a batch pass over a CSV file (`score`) or a concurrent socket
/// server (`listen`).
///
/// Usage:
///   autofp_serve score --artifact FILE --in FILE.csv --out FILE.csv
///                [--threads N] [--batch N] [--has-header]
///   autofp_serve listen --artifact FILE [--threads N] [--batch N]
///                [--host H] [--port P] [--max-batch-rows N]
///                [--max-queue-rows N]
///
/// score: reads a numeric CSV and writes one prediction per input row.
/// Rows may carry the training label as a trailing extra column (it is
/// ignored), so `autofp --apply`-style dumps score directly. Malformed
/// rows (non-numeric cell, wrong column count) are skipped and counted —
/// a bad row never aborts the batch — and reported on stderr.
///
/// listen: binds a socket (port 0 picks an ephemeral port, announced as
/// "listening on HOST:PORT" on stderr) and serves the framed binary
/// protocol (serve/protocol.h) with micro-batching and a hot-swap
/// artifact registry: a SWAP frame — or SIGHUP — replaces the live
/// artifact atomically under traffic. SIGINT/SIGTERM drain and exit 3.
/// SIGUSR1 and shutdown print the server's stats snapshot as one JSON
/// line on stderr ("stats: {...}"): registry generation, artifact path,
/// pipeline and model, server counters, latency and, with --candidate,
/// the streaming counters. The STATS frame answers with the same object.
/// score prints the latency part of it the same way.
///
/// With --candidate PATH, listen also runs the streaming control loop
/// (see DESIGN.md "Streaming and drift"): every scored batch feeds a
/// drift monitor built from the artifact's reference stats plus a
/// reservoir sample of recent rows; a drifted window triggers a
/// budget-bounded background re-search whose winning pipeline is
/// exported to PATH and hot-swapped — the old artifact keeps serving on
/// any failure.
///
/// Exit codes: 0 ok; 1 runtime error (unreadable/corrupt artifact, I/O);
/// 2 usage error; 3 listen stopped by SIGINT/SIGTERM; 4 every input row
/// malformed.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "serve/predictor.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/controller.h"
#include "cli_flags.h"
#include "util/csv.h"

namespace {

using namespace autofp;

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;
volatile std::sig_atomic_t g_dump_requested = 0;

extern "C" void HandleStopSignal(int) { g_stop_requested = 1; }
extern "C" void HandleReloadSignal(int) { g_reload_requested = 1; }
extern "C" void HandleDumpSignal(int) { g_dump_requested = 1; }

struct Options {
  std::string mode;  ///< "score" or "listen".
  std::string artifact;
  std::string in;
  std::string out;
  int threads = 1;
  size_t batch = 256;
  bool has_header = false;
  // listen mode.
  std::string host = "127.0.0.1";
  int port = 0;
  size_t max_batch_rows = 2048;
  size_t max_queue_rows = 1u << 16;
  // Streaming drift + background re-search (listen mode; enabled by
  // --candidate).
  std::string candidate;
  size_t drift_window = 512;
  double drift_threshold = 0.5;
  size_t drift_min_columns = 1;
  size_t reservoir_rows = 2048;
  long research_budget = 32;
  std::string research_algorithm = "RS";
  uint64_t research_seed = 1;
  size_t research_min_rows = 64;
  std::string research_journal;
};

void PrintUsage() {
  std::printf(
      "usage: autofp_serve score --artifact FILE --in FILE.csv --out "
      "FILE.csv\n"
      "                    [--threads N] [--batch N] [--has-header]\n"
      "       autofp_serve listen --artifact FILE [--threads N] [--batch N]\n"
      "                    [--host H] [--port P] [--max-batch-rows N]\n"
      "                    [--max-queue-rows N]\n"
      "  score: batch-score a CSV (one prediction per row; rows may carry\n"
      "         a trailing label column, which is ignored; malformed rows\n"
      "         are skipped and counted)\n"
      "  listen: serve the framed binary protocol on a socket with\n"
      "         micro-batching; SWAP frames or SIGHUP hot-swap the\n"
      "         artifact; port 0 picks an ephemeral port (announced as\n"
      "         'listening on HOST:PORT' on stderr)\n"
      "  --threads N        scoring threads (default 1)\n"
      "  --batch N          rows per scoring shard (default 256)\n"
      "  --has-header       skip the first line of --in\n"
      "  --host H           listen address (default 127.0.0.1)\n"
      "  --port P           listen port (default 0 = ephemeral)\n"
      "  --max-batch-rows N micro-batch row bound (default 2048)\n"
      "  --max-queue-rows N admission bound before BUSY (default 65536)\n"
      "  --candidate PATH   enable drift-triggered background re-search;\n"
      "                     candidate artifacts are exported to PATH and\n"
      "                     hot-swapped on success (listen mode only)\n"
      "  --drift-window N   rows per drift comparison window (default 512)\n"
      "  --drift-threshold F per-column trigger threshold in reference\n"
      "                     stddevs (default 0.5)\n"
      "  --drift-min-columns N columns over threshold to trigger (default 1)\n"
      "  --reservoir-rows N rows retained for the re-search snapshot\n"
      "                     (default 2048)\n"
      "  --research-budget N evaluation budget per background search\n"
      "                     (default 32)\n"
      "  --research-algorithm NAME Table 3 search algorithm (default RS)\n"
      "  --research-seed N  seed for the background search (default 1)\n"
      "  --research-min-rows N refuse snapshots smaller than this\n"
      "                     (default 64)\n"
      "  --research-journal PATH durable-run journal for background\n"
      "                     searches (default none)\n"
      "exit codes: 0 ok | 1 error | 2 usage | 3 interrupted | 4 all rows "
      "malformed\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  if (argc < 2) return false;
  options->mode = argv[1];
  if (options->mode != "score" && options->mode != "listen") {
    std::fprintf(stderr, "error: unknown mode '%s'\n", options->mode.c_str());
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--artifact") {
      if (!cli::ParseString(argc, argv, &i, "--artifact", &options->artifact))
        return false;
    } else if (arg == "--in") {
      if (!cli::ParseString(argc, argv, &i, "--in", &options->in))
        return false;
    } else if (arg == "--out") {
      if (!cli::ParseString(argc, argv, &i, "--out", &options->out))
        return false;
    } else if (arg == "--threads") {
      if (!cli::ParseInt(argc, argv, &i, "--threads", 1, &options->threads))
        return false;
    } else if (arg == "--batch") {
      if (!cli::ParseSize(argc, argv, &i, "--batch", 1, &options->batch))
        return false;
    } else if (arg == "--has-header") {
      options->has_header = true;
    } else if (arg == "--host") {
      if (!cli::ParseString(argc, argv, &i, "--host", &options->host))
        return false;
    } else if (arg == "--port") {
      if (!cli::ParseInt(argc, argv, &i, "--port", 0, &options->port))
        return false;
    } else if (arg == "--max-batch-rows") {
      if (!cli::ParseSize(argc, argv, &i, "--max-batch-rows", 1,
                          &options->max_batch_rows))
        return false;
    } else if (arg == "--max-queue-rows") {
      if (!cli::ParseSize(argc, argv, &i, "--max-queue-rows", 1,
                          &options->max_queue_rows))
        return false;
    } else if (arg == "--candidate") {
      if (!cli::ParseString(argc, argv, &i, "--candidate",
                            &options->candidate))
        return false;
    } else if (arg == "--drift-window") {
      if (!cli::ParseSize(argc, argv, &i, "--drift-window", 1,
                          &options->drift_window))
        return false;
    } else if (arg == "--drift-threshold") {
      if (!cli::ParseDouble(argc, argv, &i, "--drift-threshold",
                            &options->drift_threshold))
        return false;
    } else if (arg == "--drift-min-columns") {
      if (!cli::ParseSize(argc, argv, &i, "--drift-min-columns", 1,
                          &options->drift_min_columns))
        return false;
    } else if (arg == "--reservoir-rows") {
      if (!cli::ParseSize(argc, argv, &i, "--reservoir-rows", 1,
                          &options->reservoir_rows))
        return false;
    } else if (arg == "--research-budget") {
      if (!cli::ParseLong(argc, argv, &i, "--research-budget", 1,
                          &options->research_budget))
        return false;
    } else if (arg == "--research-algorithm") {
      if (!cli::ParseString(argc, argv, &i, "--research-algorithm",
                            &options->research_algorithm))
        return false;
    } else if (arg == "--research-seed") {
      if (!cli::ParseU64(argc, argv, &i, "--research-seed",
                         &options->research_seed))
        return false;
    } else if (arg == "--research-min-rows") {
      if (!cli::ParseSize(argc, argv, &i, "--research-min-rows", 1,
                          &options->research_min_rows))
        return false;
    } else if (arg == "--research-journal") {
      if (!cli::ParseString(argc, argv, &i, "--research-journal",
                            &options->research_journal))
        return false;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  if (options->artifact.empty()) {
    std::fprintf(stderr, "error: --artifact is required\n");
    return false;
  }
  if (options->mode == "score" &&
      (options->in.empty() || options->out.empty())) {
    std::fprintf(stderr, "error: score mode needs --in and --out\n");
    return false;
  }
  if (!options->candidate.empty() && options->mode != "listen") {
    std::fprintf(stderr, "error: --candidate needs listen mode\n");
    return false;
  }
  if (!(options->drift_threshold > 0.0)) {
    std::fprintf(stderr, "error: --drift-threshold must be > 0\n");
    return false;
  }
  return true;
}

/// Prints a stats snapshot as the greppable line "stats: {...}".
void WriteStatsLine(const std::string& json) {
  std::fprintf(stderr, "stats: %s\n", json.c_str());
  std::fflush(stderr);
}

int RunScore(const Options& options, const Predictor& predictor) {
  std::ifstream in(options.in);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", options.in.c_str());
    return 1;
  }
  const uint64_t input_cols = predictor.schema().input_cols;
  Matrix rows;
  long skipped = 0;
  long line_number = 0;
  std::string line;
  std::vector<double> cells;
  bool skip_header = options.has_header;
  while (std::getline(in, line)) {
    ++line_number;
    if (skip_header) {
      skip_header = false;
      continue;
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string reason;
    Matrix row;
    if (ParseCsvRow(line, &cells, &reason)) {
      row.Resize(1, cells.size());
      std::copy(cells.begin(), cells.end(), row.RowPtr(0));
    }
    if (reason.empty() && !FitRowsToSchema(&row, input_cols, &reason)) {
      // reason is set by FitRowsToSchema.
    }
    if (!reason.empty()) {
      std::fprintf(stderr, "warning: skipping line %ld: %s\n", line_number,
                   reason.c_str());
      ++skipped;
      continue;
    }
    rows.AppendRows(std::move(row));
  }
  if (in.bad()) {
    std::fprintf(stderr, "error: I/O error reading %s\n", options.in.c_str());
    return 1;
  }
  if (rows.rows() == 0) {
    if (skipped > 0) {
      std::fprintf(stderr, "error: all %ld rows malformed\n", skipped);
      return 4;
    }
    std::fprintf(stderr, "warning: %s has no data rows\n", options.in.c_str());
  }

  Result<std::vector<int>> predictions =
      predictor.PredictSharded(rows, options.batch);
  if (!predictions.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 predictions.status().message().c_str());
    return 1;
  }
  std::ofstream out(options.out);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s\n", options.out.c_str());
    return 1;
  }
  out << "prediction\n";
  for (int label : predictions.value()) out << label << "\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "error: I/O error writing %s\n", options.out.c_str());
    return 1;
  }
  std::fprintf(stderr, "scored %zu rows (%ld skipped) -> %s\n", rows.rows(),
               skipped, options.out.c_str());
  WriteStatsLine("{" + ServeStatsJson(predictor.stats()) + "}");
  return 0;
}

/// The socket front end: registry + concurrent server, running until a
/// stop signal drains it. SIGHUP queues an artifact reload.
int RunListen(const Options& options) {
  // Only listen runs until a signal stops it; `score` keeps the default
  // dispositions so an interrupt ends it at once.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  Predictor::Options predictor_options;
  predictor_options.num_threads = options.threads;
  ArtifactRegistry registry(predictor_options);
  Status swapped = registry.Swap(options.artifact);
  if (!swapped.ok()) {
    std::fprintf(stderr, "error: cannot load artifact %s: %s\n",
                 options.artifact.c_str(), swapped.message().c_str());
    return 1;
  }
  const RegistryInfo info = registry.Info();
  std::fprintf(stderr, "loaded artifact: pipeline [%s], model %s\n",
               info.pipeline.c_str(), info.model.c_str());

  // Streaming control loop: drift monitor + reservoir + background
  // re-search, tapped into the batch thread. Enabled by --candidate.
  std::unique_ptr<StreamController> stream;
  if (!options.candidate.empty()) {
    StreamConfig stream_config;
    stream_config.drift.window_rows = options.drift_window;
    stream_config.drift.threshold = options.drift_threshold;
    stream_config.drift.min_columns = options.drift_min_columns;
    stream_config.research.budget_evaluations = options.research_budget;
    stream_config.research.algorithm = options.research_algorithm;
    stream_config.research.seed = options.research_seed;
    stream_config.research.candidate_path = options.candidate;
    stream_config.research.journal_path = options.research_journal;
    stream_config.research.min_rows = options.research_min_rows;
    stream_config.reservoir_rows = options.reservoir_rows;
    stream_config.seed = options.research_seed;
    stream = std::make_unique<StreamController>(&registry, stream_config);
    std::fprintf(stderr,
                 "drift: window %zu rows, threshold %.3f, re-search "
                 "budget %ld (%s) -> %s\n",
                 options.drift_window, options.drift_threshold,
                 options.research_budget, options.research_algorithm.c_str(),
                 options.candidate.c_str());
  }

  ServerOptions server_options;
  server_options.host = options.host;
  server_options.port = options.port;
  server_options.max_batch_rows = options.max_batch_rows;
  server_options.max_queue_rows = options.max_queue_rows;
  server_options.shard_rows = options.batch;
  server_options.batch_observer = stream.get();
  ServeSocketServer server(&registry, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.message().c_str());
    return 1;
  }
  std::signal(SIGHUP, HandleReloadSignal);
  std::signal(SIGUSR1, HandleDumpSignal);
  std::fprintf(stderr, "listening on %s:%d\n", options.host.c_str(),
               server.port());
  std::fflush(stderr);

  while (g_stop_requested == 0) {
    if (g_reload_requested != 0) {
      g_reload_requested = 0;
      server.RequestReload();
    }
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      WriteStatsLine(server.StatsJson());
    }
    struct timespec nap = {0, 50 * 1000 * 1000};  // 50 ms
    ::nanosleep(&nap, nullptr);
  }
  server.Stop();
  // Let an in-flight background re-search finish (it may be about to
  // swap; shutting down under it would race the registry teardown).
  if (stream != nullptr) stream->WaitForResearch();

  WriteStatsLine(server.StatsJson());
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  // A socket peer closing mid-write must be a typed EPIPE we can report
  // and survive, never a silent SIGPIPE kill.
  std::signal(SIGPIPE, SIG_IGN);
  if (options.mode == "listen") return RunListen(options);

  Predictor::Options predictor_options;
  predictor_options.num_threads = options.threads;
  Predictor::LoadResult loaded =
      Predictor::Load(options.artifact, predictor_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: cannot load artifact %s: %s\n",
                 options.artifact.c_str(), loaded.status().message().c_str());
    return 1;
  }
  const Predictor& predictor = loaded.predictor();
  std::fprintf(stderr, "loaded artifact: pipeline [%s], model %s\n",
               predictor.spec().ToString().c_str(),
               ModelKindName(predictor.model_config().kind).c_str());

  return RunScore(options, predictor);
}
