/// Tests of the streaming statistics layer: the one Welford accumulator
/// (ReferenceStats::ObserveRow, shared by the artifact export and the
/// drift window) against batch moments, its vector lanes against its
/// forced-scalar loop and the export stats against the pre-vectorization
/// loop, byte for byte; the drift monitor, including a batch that spans
/// several windows and the zero-variance-column regression (a constant
/// reference column must be a typed skip, never a division by zero); and
/// the reservoir sampler; and the controller's rule that a batch scored
/// by a predictor the registry no longer serves is dropped.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "serve/artifact.h"
#include "serve/registry.h"
#include "stream/controller.h"
#include "stream/drift.h"
#include "stream/reservoir.h"
#include "util/random.h"
#include "util/simd.h"

namespace autofp {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix data(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Distinct per-column location/scale so column mixups would show.
      data(r, c) = rng.Gaussian(static_cast<double>(c) * 3.0,
                                   1.0 + static_cast<double>(c));
    }
  }
  return data;
}

// ---------------------------------------------------------------------------
// Reference-stats accumulator.

TEST(ReferenceStats, MatchesBatchMoments) {
  const Matrix data = RandomMatrix(999, 4, /*seed=*/7);
  const ReferenceStats moments = ComputeReferenceStats(data);
  ASSERT_EQ(moments.rows, data.rows());
  for (size_t c = 0; c < data.cols(); ++c) {
    const std::vector<double> column = data.Column(c);
    double mean = 0.0;
    for (double v : column) mean += v;
    mean /= static_cast<double>(column.size());
    double m2 = 0.0;
    for (double v : column) m2 += (v - mean) * (v - mean);
    EXPECT_NEAR(moments.mean[c], mean, 1e-9 * (1.0 + std::fabs(mean)));
    EXPECT_NEAR(moments.m2[c], m2, 1e-7 * (1.0 + m2));
    EXPECT_EQ(moments.min[c], *std::min_element(column.begin(), column.end()));
    EXPECT_EQ(moments.max[c], *std::max_element(column.begin(), column.end()));
  }
}

/// Lognormal values with planted ties and signed zeros: repeated values
/// exercise the strict min/max comparisons, and -0.0 next to +0.0 shows
/// whether a lane picks a different zero than the scalar loop.
Matrix AwkwardMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix data(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      double value = std::exp(rng.Gaussian(0.0, 1.5));
      if (rng.Bernoulli(0.5)) value = -value;
      switch ((r + c) % 7) {
        case 0: value = 0.0; break;
        case 1: value = -0.0; break;
        case 2: value = 2.5; break;  // a tie repeated down every column.
        default: break;
      }
      data(r, c) = value;
    }
  }
  return data;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSameBytes(const ReferenceStats& a, const ReferenceStats& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_TRUE(SameBytes(a.mean, b.mean));
  EXPECT_TRUE(SameBytes(a.m2, b.m2));
  EXPECT_TRUE(SameBytes(a.min, b.min));
  EXPECT_TRUE(SameBytes(a.max, b.max));
}

/// Column counts covering every lane tail of the 2- and 4-lane backends.
constexpr size_t kLaneTailColumns[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13};

/// Alternating -0.0/+0.0 columns: whichever zero the scalar loop keeps
/// as min/max, the lanes must keep the same one.
Matrix SignedZeroMatrix(size_t rows, size_t cols) {
  Matrix data(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      data(r, c) = (r + c) % 2 == 0 ? -0.0 : 0.0;
    }
  }
  return data;
}

TEST(ReferenceStats, VectorLanesMatchForcedScalarByteForByte) {
  for (size_t cols : kLaneTailColumns) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    for (const Matrix& data : {AwkwardMatrix(301, cols, /*seed=*/90 + cols),
                               SignedZeroMatrix(6, cols)}) {
      ReferenceStats scalar, vector;
      {
        simd::ScopedForceScalar forced(true);
        scalar = ComputeReferenceStats(data);
      }
      {
        simd::ScopedForceScalar forced(false);
        vector = ComputeReferenceStats(data);
      }
      ExpectSameBytes(scalar, vector);
    }
  }
}

/// Plain scalar Welford with `delta / n`: the loop exported artifacts'
/// stats sections were written with. ComputeReferenceStats must reproduce
/// its bytes, so re-exporting never changes an artifact.
ReferenceStats PinnedScalarReferenceStats(const Matrix& features) {
  ReferenceStats stats;
  const size_t cols = features.cols();
  if (cols == 0) return stats;
  stats.mean.assign(cols, 0.0);
  stats.m2.assign(cols, 0.0);
  stats.min.assign(cols, std::numeric_limits<double>::infinity());
  stats.max.assign(cols, -std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.RowPtr(r);
    const double n = static_cast<double>(++stats.rows);
    for (size_t c = 0; c < cols; ++c) {
      const double value = row[c];
      const double delta = value - stats.mean[c];
      stats.mean[c] += delta / n;
      stats.m2[c] += delta * (value - stats.mean[c]);
      if (value < stats.min[c]) stats.min[c] = value;
      if (value > stats.max[c]) stats.max[c] = value;
    }
  }
  if (stats.rows == 0) {
    stats.min.assign(cols, 0.0);
    stats.max.assign(cols, 0.0);
  }
  return stats;
}

TEST(ReferenceStats, ExportStatsMatchPinnedScalarLoopByteForByte) {
  for (size_t cols : kLaneTailColumns) {
    SCOPED_TRACE("cols=" + std::to_string(cols));
    const Matrix awkward = AwkwardMatrix(257, cols, /*seed=*/70 + cols);
    ExpectSameBytes(ComputeReferenceStats(awkward),
                    PinnedScalarReferenceStats(awkward));
    const Matrix gaussian = RandomMatrix(500, cols, /*seed=*/80 + cols);
    ExpectSameBytes(ComputeReferenceStats(gaussian),
                    PinnedScalarReferenceStats(gaussian));
  }
  // No rows: finite 0 sentinels for min/max, not the accumulator's inf.
  const Matrix empty(0, 5);
  const ReferenceStats none = ComputeReferenceStats(empty);
  ExpectSameBytes(none, PinnedScalarReferenceStats(empty));
  EXPECT_EQ(none.min, std::vector<double>(5, 0.0));
  // No columns: no stats at all.
  EXPECT_TRUE(ComputeReferenceStats(Matrix(4, 0)).empty());
}

// ---------------------------------------------------------------------------
// Drift monitor.

ReferenceStats ReferenceFor(const Matrix& data) {
  return ComputeReferenceStats(data);
}

TEST(DriftMonitor, QuietOnInDistributionData) {
  const Matrix reference_data = RandomMatrix(2000, 3, /*seed=*/61);
  DriftConfig config;
  config.window_rows = 500;
  config.threshold = 0.5;
  DriftMonitor monitor(ReferenceFor(reference_data), config);

  const Matrix live = RandomMatrix(500, 3, /*seed=*/62);  // same distribution.
  const std::vector<DriftReport> reports = monitor.ObserveBatch(live);
  ASSERT_EQ(reports.size(), 1u);
  const DriftReport* report = &reports[0];
  EXPECT_FALSE(report->triggered);
  EXPECT_EQ(report->drifted_columns, 0u);
  EXPECT_EQ(report->window_rows, 500u);
  EXPECT_LT(report->max_statistic, 0.5);
}

TEST(DriftMonitor, TriggersOnMeanShift) {
  const Matrix reference_data = RandomMatrix(2000, 3, /*seed=*/63);
  DriftConfig config;
  config.window_rows = 400;
  config.threshold = 0.5;
  DriftMonitor monitor(ReferenceFor(reference_data), config);

  Matrix shifted = RandomMatrix(400, 3, /*seed=*/64);
  for (size_t r = 0; r < shifted.rows(); ++r) {
    shifted(r, 0) += 50.0;  // many reference stddevs on column 0.
  }
  const std::vector<DriftReport> reports = monitor.ObserveBatch(shifted);
  ASSERT_EQ(reports.size(), 1u);
  const DriftReport* report = &reports[0];
  EXPECT_TRUE(report->triggered);
  EXPECT_GE(report->drifted_columns, 1u);
  EXPECT_EQ(report->columns[0].state, ColumnDriftState::kDrifted);
  EXPECT_GT(report->columns[0].statistic, 10.0);
}

TEST(DriftMonitor, WindowBoundariesAndReset) {
  const Matrix reference_data = RandomMatrix(1000, 2, /*seed=*/65);
  DriftConfig config;
  config.window_rows = 300;
  DriftMonitor monitor(ReferenceFor(reference_data), config);

  // 200 rows: window still filling, no report.
  Matrix part = RandomMatrix(200, 2, /*seed=*/66);
  EXPECT_TRUE(monitor.ObserveBatch(part).empty());
  EXPECT_EQ(monitor.rows_in_window(), 200u);

  // 150 more rows: crosses the boundary, reports, and the window restarts
  // with the 50-row remainder.
  Matrix more = RandomMatrix(150, 2, /*seed=*/67);
  EXPECT_EQ(monitor.ObserveBatch(more).size(), 1u);
  EXPECT_EQ(monitor.rows_in_window(), 50u);

  monitor.ResetWindow();
  EXPECT_EQ(monitor.rows_in_window(), 0u);
}

TEST(DriftMonitor, BatchSpanningWindowsReportsEveryWindow) {
  // One micro-batch of 4 windows whose first window is mean-shifted: the
  // triggered window must be reported even though quiet ones follow it.
  const Matrix reference_data = RandomMatrix(2000, 3, /*seed=*/71);
  DriftConfig config;
  config.window_rows = 100;
  config.threshold = 0.5;
  DriftMonitor monitor(ReferenceFor(reference_data), config);

  Matrix live = RandomMatrix(4 * config.window_rows + 30, 3, /*seed=*/72);
  for (size_t r = 0; r < config.window_rows; ++r) live(r, 0) += 50.0;
  const std::vector<DriftReport> reports = monitor.ObserveBatch(live);
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[0].triggered);
  for (size_t w = 1; w < reports.size(); ++w) {
    EXPECT_FALSE(reports[w].triggered) << "window " << w;
  }
  for (const DriftReport& report : reports) {
    EXPECT_EQ(report.window_rows, config.window_rows);
  }
  EXPECT_EQ(monitor.rows_in_window(), 30u);
}

TEST(DriftMonitor, ConstantReferenceColumnIsTypedSkipNotDivision) {
  // Regression test for the zero-variance guard: a reference whose
  // columns are ALL constant can never produce a finite statistic — every
  // column must come back kSkippedZeroVariance (counted), the report must
  // not trigger, and nothing may divide by zero (NaN would poison
  // max_statistic).
  Matrix constant(100, 3);
  for (size_t r = 0; r < constant.rows(); ++r) {
    for (size_t c = 0; c < constant.cols(); ++c) {
      constant(r, c) = static_cast<double>(c) * 2.5;
    }
  }
  DriftConfig config;
  config.window_rows = 50;
  config.threshold = 0.5;
  DriftMonitor monitor(ReferenceFor(constant), config);

  // Wildly different live data: still must not trigger — the statistic is
  // undefined on constant reference columns, so skipping is the only
  // honest answer.
  Matrix live = RandomMatrix(50, 3, /*seed=*/68);
  const std::vector<DriftReport> reports = monitor.ObserveBatch(live);
  ASSERT_EQ(reports.size(), 1u);
  const DriftReport* report = &reports[0];
  EXPECT_FALSE(report->triggered);
  EXPECT_EQ(report->skipped_zero_variance, 3u);
  EXPECT_EQ(report->drifted_columns, 0u);
  EXPECT_EQ(report->max_statistic, 0.0);
  EXPECT_TRUE(std::isfinite(report->max_statistic));
  for (const ColumnDrift& column : report->columns) {
    EXPECT_EQ(column.state, ColumnDriftState::kSkippedZeroVariance);
    EXPECT_TRUE(std::isfinite(column.statistic));
  }
}

TEST(DriftMonitor, MixedConstantAndDriftingColumns) {
  // A constant column next to a genuinely drifting one: the skip must not
  // mask the trigger.
  Matrix reference_data = RandomMatrix(1000, 2, /*seed=*/69);
  for (size_t r = 0; r < reference_data.rows(); ++r) {
    reference_data(r, 1) = 7.0;  // column 1 constant.
  }
  DriftConfig config;
  config.window_rows = 200;
  config.threshold = 0.5;
  DriftMonitor monitor(ReferenceFor(reference_data), config);

  Matrix live = RandomMatrix(200, 2, /*seed=*/70);
  for (size_t r = 0; r < live.rows(); ++r) live(r, 0) += 100.0;
  const std::vector<DriftReport> reports = monitor.ObserveBatch(live);
  ASSERT_EQ(reports.size(), 1u);
  const DriftReport* report = &reports[0];
  EXPECT_TRUE(report->triggered);
  EXPECT_EQ(report->columns[0].state, ColumnDriftState::kDrifted);
  EXPECT_EQ(report->columns[1].state,
            ColumnDriftState::kSkippedZeroVariance);
  EXPECT_EQ(report->skipped_zero_variance, 1u);
}

// ---------------------------------------------------------------------------
// Reservoir sampler.

TEST(ReservoirSampler, KeepsEverythingBelowCapacity) {
  ReservoirSampler reservoir(/*capacity=*/10, /*cols=*/2, /*seed=*/1);
  for (int i = 0; i < 7; ++i) {
    double row[2] = {static_cast<double>(i), static_cast<double>(-i)};
    reservoir.ObserveRow(row, 2, i % 3);
  }
  EXPECT_EQ(reservoir.size(), 7u);
  EXPECT_EQ(reservoir.rows_seen(), 7u);
  Dataset snapshot = reservoir.Snapshot("s", /*num_classes=*/3);
  ASSERT_EQ(snapshot.num_rows(), 7u);
  EXPECT_EQ(snapshot.num_cols(), 2u);
  EXPECT_EQ(snapshot.features(3, 0), 3.0);
  EXPECT_EQ(snapshot.labels[4], 4 % 3);
  EXPECT_TRUE(snapshot.Validate().ok());
}

TEST(ReservoirSampler, BoundedAndRoughlyUniformPastCapacity) {
  const size_t capacity = 100;
  ReservoirSampler reservoir(capacity, /*cols=*/1, /*seed=*/2);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    double row[1] = {static_cast<double>(i)};
    reservoir.ObserveRow(row, 1, 0);
  }
  EXPECT_EQ(reservoir.size(), capacity);
  EXPECT_EQ(reservoir.rows_seen(), static_cast<uint64_t>(n));
  // Uniformity smoke check: the mean retained index should be near the
  // stream midpoint (a fixed seed keeps this deterministic).
  Dataset snapshot = reservoir.Snapshot("s", 1);
  double mean_index = 0.0;
  for (size_t r = 0; r < snapshot.num_rows(); ++r) {
    mean_index += snapshot.features(r, 0);
  }
  mean_index /= static_cast<double>(snapshot.num_rows());
  EXPECT_GT(mean_index, 0.3 * n);
  EXPECT_LT(mean_index, 0.7 * n);
}

TEST(ReservoirSampler, DeterministicForSeed) {
  auto run = [](uint64_t seed) {
    ReservoirSampler reservoir(8, 1, seed);
    for (int i = 0; i < 500; ++i) {
      double row[1] = {static_cast<double>(i)};
      reservoir.ObserveRow(row, 1, i % 2);
    }
    return reservoir.Snapshot("s", 2);
  };
  Dataset a = run(7), b = run(7), c = run(8);
  EXPECT_TRUE(a.features == b.features);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_FALSE(a.features == c.features);
}

// ---------------------------------------------------------------------------
// Stream controller.

TEST(StreamController, BatchScoredByASwappedOutPredictorIsDropped) {
  // A batch acquires its predictor before a re-search swaps a new one in
  // and is observed after: it must not feed the old baseline's window,
  // where it could trigger a second re-search.
  Result<Dataset> data = GetSuiteDataset("blood_syn");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const ModelConfig model =
      ModelConfig::Defaults(ModelKind::kLogisticRegression);
  const std::string baseline = ::testing::TempDir() + "/stale_base.afpa";
  ASSERT_TRUE(ExportArtifact(baseline, data.value(),
                             PipelineSpec::FromKinds(
                                 {PreprocessorKind::kStandardScaler}),
                             model)
                  .ok());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  StreamConfig config;
  config.drift.window_rows = 64;
  config.drift.threshold = 0.5;
  config.drift.min_columns = 1;
  config.reservoir_rows = 256;
  config.research.candidate_path =
      ::testing::TempDir() + "/stale_candidate.afpa";
  config.research.min_rows = 32;
  StreamController controller(&registry, config);
  int searches = 0;
  controller.researcher().set_search_export_fn(
      [&](const Dataset& snapshot, const std::string& path) {
        ++searches;
        return ExportArtifact(path, snapshot,
                              PipelineSpec::FromKinds(
                                  {PreprocessorKind::kMinMaxScaler}),
                              model)
            .status();
      });

  // One far-drifted window: every column shifted by 500.
  Matrix drifted(64, data.value().num_cols());
  for (size_t r = 0; r < drifted.rows(); ++r) {
    for (size_t c = 0; c < drifted.cols(); ++c) {
      drifted(r, c) = data.value().features(r, c) + 500.0;
    }
  }
  const std::vector<int> predictions(drifted.rows(), 0);

  const std::shared_ptr<const Predictor> old = registry.Acquire();
  controller.OnBatchScored(drifted, predictions, *old);
  controller.WaitForResearch();
  ASSERT_EQ(registry.Info().generation, 2);
  ASSERT_NE(registry.Acquire().get(), old.get());
  const StreamCounters before = controller.counters();
  EXPECT_EQ(before.windows_compared, 1);
  EXPECT_EQ(before.drift_triggers, 1);
  EXPECT_EQ(before.research_started, 1);

  // The same window again, scored by the predictor the swap replaced.
  controller.OnBatchScored(drifted, predictions, *old);
  controller.WaitForResearch();
  const StreamCounters after = controller.counters();
  EXPECT_EQ(after.stale_batches, 1);
  EXPECT_EQ(after.rows_observed, before.rows_observed);
  EXPECT_EQ(after.windows_compared, 1);
  EXPECT_EQ(after.drift_triggers, 1);
  EXPECT_EQ(after.research_started, 1);
  EXPECT_EQ(after.baseline_resets, 0);
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(registry.Info().generation, 2);
}

}  // namespace
}  // namespace autofp
