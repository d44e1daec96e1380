/// autofp_loadgen — closed-loop load generator for `autofp_serve listen`.
///
/// Drives N concurrent connections against the socket front end (see
/// DESIGN.md "Network serving"), each thread sending one predict request
/// at a time (dense or CSV framing) built from a window of input rows,
/// and reports rows/sec plus p50/p95/p99 round-trip latency.
///
/// Correctness checking: `--expect FILE` gives the predictions the input
/// rows must score to (the `prediction` column a `autofp_serve score` run
/// wrote). With `--expect-alt FILE` — the hot-swap harness — every
/// response must wholly match the first file or wholly match the second:
/// a response mixing the two artifacts' answers is a torn swap and fails
/// the run. `--swap PATH --swap-after S` issues the SWAP admin frame
/// from inside the run so the swap lands under full load.
///
/// `--probe-malformed` instead checks the error taxonomy: send garbage
/// bytes, expect a typed error response followed by the server closing
/// the connection (and a healthy server afterwards).
///
/// Exit codes: 0 ok; 1 runtime/transport error; 2 usage error;
/// 5 response mismatch (wrong or torn predictions).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "cli_flags.h"
#include "util/csv.h"
#include "util/matrix.h"
#include "util/timer.h"

namespace {

using namespace autofp;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 1;
  double duration = 5.0;
  size_t rows_per_request = 16;
  std::string format = "dense";  ///< "dense" or "csv".
  std::string in;                ///< CSV of feature rows to send.
  std::string expect;            ///< predictions file (old artifact).
  std::string expect_alt;        ///< predictions file (new artifact).
  std::string swap;              ///< artifact to SWAP in mid-run.
  double swap_after = 1.0;
  std::string json;              ///< write the report as JSON here.
  bool probe_malformed = false;
};

void PrintUsage() {
  std::printf(
      "usage: autofp_loadgen --port P [--host H] [--connections N]\n"
      "                      [--duration S] [--rows-per-request N]\n"
      "                      [--format dense|csv] --in FILE.csv\n"
      "                      [--expect FILE] [--expect-alt FILE]\n"
      "                      [--swap ARTIFACT --swap-after S]\n"
      "                      [--json FILE] [--probe-malformed]\n"
      "  closed-loop client for 'autofp_serve listen'; reports rows/sec\n"
      "  and p50/p95/p99 round-trip latency\n"
      "exit codes: 0 ok | 1 error | 2 usage | 5 mismatched/torn response\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--host") {
      if (!cli::ParseString(argc, argv, &i, "--host", &options->host))
        return false;
    } else if (arg == "--port") {
      if (!cli::ParseInt(argc, argv, &i, "--port", 1, &options->port))
        return false;
    } else if (arg == "--connections") {
      if (!cli::ParseInt(argc, argv, &i, "--connections", 1,
                         &options->connections))
        return false;
    } else if (arg == "--duration") {
      if (!cli::ParseDouble(argc, argv, &i, "--duration",
                            &options->duration))
        return false;
    } else if (arg == "--rows-per-request") {
      if (!cli::ParseSize(argc, argv, &i, "--rows-per-request", 1,
                          &options->rows_per_request))
        return false;
    } else if (arg == "--format") {
      if (!cli::ParseString(argc, argv, &i, "--format", &options->format))
        return false;
    } else if (arg == "--in") {
      if (!cli::ParseString(argc, argv, &i, "--in", &options->in))
        return false;
    } else if (arg == "--expect") {
      if (!cli::ParseString(argc, argv, &i, "--expect", &options->expect))
        return false;
    } else if (arg == "--expect-alt") {
      if (!cli::ParseString(argc, argv, &i, "--expect-alt",
                            &options->expect_alt))
        return false;
    } else if (arg == "--swap") {
      if (!cli::ParseString(argc, argv, &i, "--swap", &options->swap))
        return false;
    } else if (arg == "--swap-after") {
      if (!cli::ParseDouble(argc, argv, &i, "--swap-after",
                            &options->swap_after))
        return false;
    } else if (arg == "--json") {
      if (!cli::ParseString(argc, argv, &i, "--json", &options->json))
        return false;
    } else if (arg == "--probe-malformed") {
      options->probe_malformed = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  if (options->port == 0) {
    std::fprintf(stderr, "error: --port is required\n");
    return false;
  }
  if (!options->probe_malformed && options->in.empty()) {
    std::fprintf(stderr, "error: --in is required\n");
    return false;
  }
  if (options->format != "dense" && options->format != "csv") {
    std::fprintf(stderr, "error: --format must be dense or csv\n");
    return false;
  }
  return true;
}

/// Loads a feature CSV ("f0,f1,...,label" header optional) into a matrix.
bool LoadRows(const std::string& path, Matrix* rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      first = false;
      // Skip a non-numeric header line.
      std::vector<double> cells;
      std::string reason;
      if (!ParseCsvRow(line, &cells, &reason)) continue;
    }
    text += line;
    text += '\n';
  }
  std::string reason;
  if (!ParseCsvRows(text, rows, &reason)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), reason.c_str());
    return false;
  }
  return true;
}

/// Loads a predictions file: the `prediction`-headed single-column CSV
/// that `autofp_serve score` writes.
bool LoadExpected(const std::string& path, std::vector<int32_t>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "prediction") continue;
    out->push_back(static_cast<int32_t>(std::strtol(line.c_str(), nullptr, 10)));
  }
  if (out->empty()) {
    std::fprintf(stderr, "error: %s has no predictions\n", path.c_str());
    return false;
  }
  return true;
}

struct WorkerReport {
  long requests = 0;
  long rows = 0;
  long errors = 0;      ///< transport failures + non-ok, non-BUSY responses.
  long busy = 0;        ///< BUSY sheds (expected under overload).
  long mismatches = 0;  ///< wrong or torn predictions.
  std::vector<double> latencies_ms;
  std::string first_error;
};

/// True when the response predictions equal `expected` over the window
/// [start, start+count) (mod expected.size()).
bool MatchesWindow(const std::vector<int32_t>& got,
                   const std::vector<int32_t>& expected, size_t start,
                   size_t count) {
  if (got.size() != count) return false;
  for (size_t j = 0; j < count; ++j) {
    if (got[j] != expected[(start + j) % expected.size()]) return false;
  }
  return true;
}

void RunWorker(const Options& options, const Matrix& rows,
               const std::vector<int32_t>& expect,
               const std::vector<int32_t>& expect_alt, int worker_index,
               WorkerReport* report) {
  BlockingFrameClient client;
  Status connected = client.Connect(options.host, options.port);
  if (!connected.ok()) {
    ++report->errors;
    report->first_error = connected.ToString();
    return;
  }
  // Stagger start offsets so connections don't all score the same window.
  size_t at = (static_cast<size_t>(worker_index) * 37) % rows.rows();
  Matrix window;
  std::string request_bytes;
  Stopwatch wall;
  while (wall.ElapsedSeconds() < options.duration) {
    const size_t count = options.rows_per_request;
    window.Resize(count, rows.cols());
    for (size_t j = 0; j < count; ++j) {
      const double* src = rows.RowPtr((at + j) % rows.rows());
      std::copy(src, src + rows.cols(), window.RowPtr(j));
    }
    request_bytes.clear();
    if (options.format == "dense") {
      EncodePredictDense(window, &request_bytes);
    } else {
      std::string csv;
      char cell[64];
      for (size_t r = 0; r < count; ++r) {
        for (size_t c = 0; c < window.cols(); ++c) {
          std::snprintf(cell, sizeof(cell), "%.17g", window(r, c));
          if (c > 0) csv += ',';
          csv += cell;
        }
        csv += '\n';
      }
      EncodePredictCsv(csv, &request_bytes);
    }
    ServeResponse response;
    Stopwatch trip;
    Status status = client.RoundTrip(request_bytes, &response);
    const double latency_ms = trip.ElapsedSeconds() * 1e3;
    if (!status.ok()) {
      ++report->errors;
      if (report->first_error.empty()) report->first_error = status.ToString();
      return;  // the stream may be desynced; stop this connection.
    }
    ++report->requests;
    report->latencies_ms.push_back(latency_ms);
    if (!response.ok()) {
      if (response.error == ServeError::kBusy) {
        ++report->busy;
      } else {
        ++report->errors;
        if (report->first_error.empty()) {
          report->first_error = std::string(ServeErrorName(response.error)) +
                                ": " + response.message;
        }
      }
      continue;
    }
    report->rows += static_cast<long>(count);
    if (!expect.empty()) {
      // Old-or-new, never torn: the whole response must match one
      // expectation set.
      const bool old_ok = MatchesWindow(response.predictions, expect, at, count);
      const bool alt_ok =
          !expect_alt.empty() &&
          MatchesWindow(response.predictions, expect_alt, at, count);
      if (!old_ok && !alt_ok) {
        ++report->mismatches;
        if (report->first_error.empty()) {
          report->first_error =
              "prediction mismatch at row offset " + std::to_string(at);
        }
      }
    }
    at = (at + count) % rows.rows();
  }
}

/// Sends garbage bytes; a correct server answers one typed error frame
/// and closes. Returns 0/1.
int RunMalformedProbe(const Options& options) {
  BlockingFrameClient client;
  Status connected = client.Connect(options.host, options.port);
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n", connected.ToString().c_str());
    return 1;
  }
  Status sent = client.SendBytes("this is not a frame at all............");
  if (!sent.ok()) {
    std::fprintf(stderr, "error: %s\n", sent.ToString().c_str());
    return 1;
  }
  Frame frame;
  Status received = client.RecvFrame(&frame);
  if (!received.ok()) {
    std::fprintf(stderr, "error: no error response to garbage: %s\n",
                 received.ToString().c_str());
    return 1;
  }
  ServeResponse response;
  if (!DecodeResponseFrame(frame, &response) || response.ok() ||
      !IsConnectionFatal(response.error)) {
    std::fprintf(stderr,
                 "error: expected a connection-fatal typed error frame\n");
    return 1;
  }
  // The server must now close; the next read sees EOF (an IoError here).
  Status after = client.RecvFrame(&frame);
  if (after.ok()) {
    std::fprintf(stderr, "error: server kept a desynced connection open\n");
    return 1;
  }
  std::printf("malformed probe ok: %s, then close\n",
              ServeErrorName(response.error));
  return 0;
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(index, sorted->size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  // A server that dies mid-run must surface as a typed send/recv error on
  // the affected connection, not a SIGPIPE kill of the whole load run.
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  if (options.probe_malformed) return RunMalformedProbe(options);

  Matrix rows;
  if (!LoadRows(options.in, &rows)) return 1;
  std::vector<int32_t> expect;
  std::vector<int32_t> expect_alt;
  if (!options.expect.empty() && !LoadExpected(options.expect, &expect)) {
    return 1;
  }
  if (!options.expect_alt.empty() &&
      !LoadExpected(options.expect_alt, &expect_alt)) {
    return 1;
  }

  std::vector<WorkerReport> reports(options.connections);
  std::vector<std::thread> workers;
  Stopwatch wall;
  for (int w = 0; w < options.connections; ++w) {
    workers.emplace_back([&, w] {
      RunWorker(options, rows, expect, expect_alt, w, &reports[w]);
    });
  }
  int swap_failed = 0;
  if (!options.swap.empty()) {
    // The swap lands from its own connection while the workers hammer
    // the server.
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::min(options.swap_after, options.duration)));
    BlockingFrameClient admin;
    Status connected = admin.Connect(options.host, options.port);
    ServeResponse response;
    std::string swap_bytes;
    EncodeSwap(options.swap, &swap_bytes);
    Status swapped = connected.ok() ? admin.RoundTrip(swap_bytes, &response)
                                    : connected;
    if (!swapped.ok() || !response.ok()) {
      std::fprintf(stderr, "error: swap failed: %s\n",
                   swapped.ok() ? response.message.c_str()
                                : swapped.ToString().c_str());
      swap_failed = 1;
    } else {
      std::fprintf(stderr, "swap acknowledged: %s\n",
                   response.message.c_str());
    }
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed = wall.ElapsedSeconds();

  WorkerReport total;
  std::vector<double> latencies;
  for (const WorkerReport& report : reports) {
    total.requests += report.requests;
    total.rows += report.rows;
    total.errors += report.errors;
    total.busy += report.busy;
    total.mismatches += report.mismatches;
    latencies.insert(latencies.end(), report.latencies_ms.begin(),
                     report.latencies_ms.end());
    if (total.first_error.empty() && !report.first_error.empty()) {
      total.first_error = report.first_error;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double rows_per_sec =
      elapsed > 0.0 ? static_cast<double>(total.rows) / elapsed : 0.0;
  const double p50 = Percentile(&latencies, 0.50);
  const double p95 = Percentile(&latencies, 0.95);
  const double p99 = Percentile(&latencies, 0.99);
  std::printf(
      "connections=%d requests=%ld rows=%ld rows_per_sec=%.0f "
      "p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f busy=%ld errors=%ld "
      "mismatches=%ld\n",
      options.connections, total.requests, total.rows, rows_per_sec, p50,
      p95, p99, total.busy, total.errors, total.mismatches);
  if (!total.first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", total.first_error.c_str());
  }
  if (!options.json.empty()) {
    std::ofstream out(options.json);
    out << "{\n"
        << "  \"connections\": " << options.connections << ",\n"
        << "  \"requests\": " << total.requests << ",\n"
        << "  \"rows\": " << total.rows << ",\n"
        << "  \"rows_per_sec\": " << rows_per_sec << ",\n"
        << "  \"p50_ms\": " << p50 << ",\n"
        << "  \"p95_ms\": " << p95 << ",\n"
        << "  \"p99_ms\": " << p99 << ",\n"
        << "  \"busy\": " << total.busy << ",\n"
        << "  \"errors\": " << total.errors << ",\n"
        << "  \"mismatches\": " << total.mismatches << "\n"
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", options.json.c_str());
      return 1;
    }
  }
  if (total.mismatches > 0) return 5;
  if (total.errors > 0 || swap_failed != 0 || total.requests == 0) return 1;
  return 0;
}
