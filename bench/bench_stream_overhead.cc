/// Streaming-observer overhead: rows/sec through each component that sits
/// on the serving batch thread — the Welford accumulator
/// (ReferenceStats::ObserveRow, the drift window's update), the reservoir
/// sampler, and the combined drift-monitor path (window update plus the
/// per-window comparison against the reference stats).
///
/// What to look for: every component should sustain rows/sec orders of
/// magnitude above the socket front end's throughput (the
/// serve_small_open workload of bench/e2e/run.sh), i.e. the drift loop
/// is effectively free in the batch path. Run after
/// touching src/stream/ or ReferenceStats; `--json FILE` writes the
/// committed BENCH_stream.json snapshot (scripts/bench_snapshot.sh).

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "serve/artifact.h"
#include "stream/drift.h"
#include "stream/reservoir.h"
#include "util/random.h"

namespace {

using namespace autofp;

constexpr size_t kRows = 200000;
constexpr size_t kCols = 8;
constexpr size_t kWindow = 512;

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

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::PrintHeader("Streaming observer overhead", "serving extension",
                     "rows/sec per component; all should dwarf the socket "
                     "front end's throughput");

  const Matrix data = MakeRows(kRows, kCols, /*seed=*/17);
  std::vector<std::pair<const char*, bench::Timing>> cells;
  double checksum = 0.0;  // defeats dead-code elimination.

  ReferenceStats moments;
  cells.emplace_back("moments", bench::TimeRepeats([&] {
                       moments.Reset(kCols);
                       for (size_t r = 0; r < kRows; ++r) {
                         moments.ObserveRow(data.RowPtr(r), kCols);
                       }
                       checksum += moments.mean[0];
                     }));

  cells.emplace_back("reservoir", bench::TimeRepeats([&] {
                       ReservoirSampler reservoir(/*capacity=*/2048, kCols,
                                                  /*seed=*/3);
                       for (size_t r = 0; r < kRows; ++r) {
                         reservoir.ObserveRow(data.RowPtr(r), kCols, 0);
                       }
                       checksum += static_cast<double>(reservoir.size());
                     }));

  DriftConfig config;
  config.window_rows = kWindow;
  const ReferenceStats reference = ComputeReferenceStats(data);
  cells.emplace_back("drift_monitor", bench::TimeRepeats([&] {
                       DriftMonitor monitor(reference, config);
                       const std::vector<DriftReport> reports =
                           monitor.ObserveBatch(data);
                       checksum += reports.back().max_statistic;
                     }));

  bench::Snapshot snapshot("stream_overhead");
  snapshot.Param("rows", kRows);
  snapshot.Param("cols", kCols);
  snapshot.Param("window", kWindow);
  std::printf("%-16s %14s %10s %10s %10s\n", "path", "rows/sec", "ns/row",
              "min", "max");
  const double rows = static_cast<double>(kRows);
  for (const auto& [path, timing] : cells) {
    const double rows_per_s = rows * 1e9 / timing.median_ns;
    std::printf("%-16s %14.0f %10.1f %10.1f %10.1f\n", path, rows_per_s,
                timing.median_ns / rows, timing.min_ns / rows,
                timing.max_ns / rows);
    snapshot.Cell(path);
    snapshot.Time("pass_ns", timing);
    snapshot.Figure("rows_per_s", rows_per_s);
    snapshot.Figure("ns_per_row", timing.median_ns / rows);
  }
  std::printf("(median/min/max of %d passes over %zu rows; checksum %.3f)\n",
              bench::kSnapshotRepeats, kRows, checksum);

  if (json_path != nullptr) {
    if (!snapshot.Write(json_path)) return 1;
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
