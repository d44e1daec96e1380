/// Streaming-observer overhead: rows/sec through each component that sits
/// on (or next to) the serving batch thread — Welford running moments,
/// the P² quantile sketch, the reservoir sampler, and the combined
/// drift-monitor path (moments window + per-window comparison against
/// the reference stats).
///
/// What to look for: every component should sustain rows/sec orders of
/// magnitude above the socket front end's throughput (the
/// serve_small_open workload of bench/e2e/run.sh), i.e. the drift loop
/// is effectively free in the batch path. Run after
/// touching src/stream/; `--json FILE` writes the committed
/// BENCH_stream.json snapshot (scripts/bench_snapshot.sh).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "stream/drift.h"
#include "stream/moments.h"
#include "stream/quantile_sketch.h"
#include "stream/reservoir.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace autofp;

constexpr size_t kRows = 200000;
constexpr size_t kCols = 8;
constexpr size_t kWindow = 512;

struct Cell {
  const char* path = "";
  double rows_per_sec = 0.0;
  double ns_per_row = 0.0;
};

Matrix MakeRows(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix data(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      data(r, c) = rng.Gaussian(static_cast<double>(c), 1.0 + 0.25 * c);
    }
  }
  return data;
}

Cell Measure(const char* path, size_t rows, double seconds) {
  Cell cell;
  cell.path = path;
  cell.rows_per_sec = static_cast<double>(rows) / seconds;
  cell.ns_per_row = seconds * 1e9 / static_cast<double>(rows);
  return cell;
}

void WriteJson(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"stream_overhead\",\n  \"rows\": " << kRows
      << ",\n  \"cols\": " << kCols << ",\n  \"window\": " << kWindow
      << ",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    out << "    {\"path\": \"" << cell.path << "\", \"rows_per_sec\": "
        << static_cast<long>(cell.rows_per_sec) << ", \"ns_per_row\": "
        << static_cast<long>(cell.ns_per_row) << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::PrintHeader("Streaming observer overhead", "serving extension",
                     "rows/sec per component; all should dwarf the socket "
                     "front end's throughput");

  const Matrix data = MakeRows(kRows, kCols, /*seed=*/17);
  std::vector<Cell> cells;
  double checksum = 0.0;  // defeats dead-code elimination.

  {
    RunningMoments moments(kCols);
    Stopwatch wall;
    moments.Observe(data);
    const double seconds = wall.ElapsedSeconds();
    checksum += moments.Mean(0);
    cells.push_back(Measure("moments", kRows, seconds));
  }

  {
    // One sketch per column, fed row-major like the refit path would.
    std::vector<P2QuantileSketch> sketches(kCols);
    Stopwatch wall;
    for (size_t r = 0; r < kRows; ++r) {
      const double* row = data.RowPtr(r);
      for (size_t c = 0; c < kCols; ++c) sketches[c].Observe(row[c]);
    }
    const double seconds = wall.ElapsedSeconds();
    checksum += sketches[0].Quantile(0.5);
    cells.push_back(Measure("quantile_sketch_x8", kRows, seconds));
  }

  {
    ReservoirSampler reservoir(/*capacity=*/2048, kCols, /*seed=*/3);
    Stopwatch wall;
    for (size_t r = 0; r < kRows; ++r) {
      reservoir.ObserveRow(data.RowPtr(r), kCols, 0);
    }
    const double seconds = wall.ElapsedSeconds();
    checksum += static_cast<double>(reservoir.size());
    cells.push_back(Measure("reservoir", kRows, seconds));
  }

  {
    DriftConfig config;
    config.window_rows = kWindow;
    DriftMonitor monitor(ComputeReferenceStats(data), config);
    Stopwatch wall;
    std::optional<DriftReport> last = monitor.ObserveBatch(data);
    const double seconds = wall.ElapsedSeconds();
    checksum += last.has_value() ? last->max_statistic : 0.0;
    cells.push_back(Measure("drift_monitor", kRows, seconds));
  }

  std::printf("%-20s %14s %12s\n", "path", "rows/sec", "ns/row");
  for (const Cell& cell : cells) {
    std::printf("%-20s %14ld %12ld\n", cell.path,
                static_cast<long>(cell.rows_per_sec),
                static_cast<long>(cell.ns_per_row));
  }
  std::printf("(checksum %.3f)\n", checksum);

  if (!json_path.empty()) {
    WriteJson(json_path, cells);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
