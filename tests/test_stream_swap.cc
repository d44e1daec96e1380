/// Deterministic end-to-end tests of the drift -> background re-search ->
/// hot-swap loop (src/stream/controller.h). The search body is rigged via
/// BackgroundResearcher::set_search_export_fn so each path is exact: a
/// successful run must bump the registry generation, a failed run (error
/// status OR a corrupt candidate artifact) must leave the old generation
/// serving untouched, and a swap must rebuild the drift baseline around
/// the new artifact's own reference stats.

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "serve/artifact.h"
#include "serve/registry.h"
#include "stream/controller.h"

namespace autofp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Dataset TestData() {
  Result<Dataset> data = GetSuiteDataset("blood_syn");
  AUTOFP_CHECK(data.ok()) << data.status().ToString();
  return std::move(data).value();
}

/// Exports a real artifact for `spec` fitted on blood_syn.
std::string WriteTestArtifact(const std::string& name,
                              const PipelineSpec& spec) {
  std::string path = TempPath(name);
  Result<ArtifactSchema> exported = ExportArtifact(
      path, TestData(), spec,
      ModelConfig::Defaults(ModelKind::kLogisticRegression));
  EXPECT_TRUE(exported.ok()) << exported.status().ToString();
  return path;
}

PipelineSpec BaselineSpec() {
  return PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler});
}

PipelineSpec AlternateSpec() {
  return PipelineSpec::FromKinds(
      {PreprocessorKind::kMinMaxScaler, PreprocessorKind::kStandardScaler});
}

/// A StreamConfig tuned so one small drifted batch crosses a window
/// boundary and clears the snapshot-size floor.
StreamConfig SmallStreamConfig(const std::string& candidate_path) {
  StreamConfig config;
  config.drift.window_rows = 64;
  config.drift.threshold = 0.5;
  config.drift.min_columns = 1;
  config.reservoir_rows = 256;
  config.seed = 7;
  config.research.candidate_path = candidate_path;
  config.research.min_rows = 32;
  config.research.budget_evaluations = 8;
  return config;
}

/// `rows` rows of blood_syn features shifted far out of distribution, plus
/// matching fake predictions (the pseudo-labels the controller records).
struct DriftedBatch {
  Matrix rows;
  std::vector<int> predictions;
};

DriftedBatch MakeDriftedBatch(size_t rows, double shift) {
  const Dataset data = TestData();
  AUTOFP_CHECK(rows <= data.num_rows());
  DriftedBatch batch;
  batch.rows = Matrix(rows, data.num_cols());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < data.num_cols(); ++c) {
      batch.rows(r, c) = data.features(r, c) + shift;
    }
  }
  batch.predictions.assign(rows, 0);
  for (size_t r = 0; r < rows; r += 2) batch.predictions[r] = 1;
  return batch;
}

TEST(StreamSwap, DriftTriggersResearchAndHotSwap) {
  const std::string baseline = WriteTestArtifact("swap_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());
  ASSERT_EQ(registry.Info().generation, 1);

  const std::string candidate = TempPath("swap_candidate.afpa");
  StreamController controller(&registry, SmallStreamConfig(candidate));

  // Rig the search body: "re-search" instantly finds the alternate
  // pipeline and exports a real artifact for it.
  int rigged_calls = 0;
  controller.researcher().set_search_export_fn(
      [&rigged_calls](const Dataset& snapshot, const std::string& path) {
        ++rigged_calls;
        EXPECT_GE(snapshot.num_rows(), 32u);
        EXPECT_TRUE(snapshot.Validate().ok());
        Result<ArtifactSchema> exported = ExportArtifact(
            path, snapshot, AlternateSpec(),
            ModelConfig::Defaults(ModelKind::kLogisticRegression));
        return exported.status();
      });

  // One full drifted window through the observer hook.
  DriftedBatch batch = MakeDriftedBatch(64, /*shift=*/500.0);
  std::shared_ptr<const Predictor> live = registry.Acquire();
  ASSERT_NE(live, nullptr);
  controller.OnBatchScored(batch.rows, batch.predictions, *live);
  controller.WaitForResearch();

  EXPECT_EQ(rigged_calls, 1);
  EXPECT_EQ(registry.Info().generation, 2);
  EXPECT_EQ(registry.Info().path, candidate);
  EXPECT_EQ(registry.Info().pipeline, AlternateSpec().ToString());

  StreamCounters counters = controller.counters();
  EXPECT_EQ(counters.rows_observed, 64);
  EXPECT_EQ(counters.windows_compared, 1);
  EXPECT_EQ(counters.drift_triggers, 1);
  EXPECT_EQ(counters.research_started, 1);
  EXPECT_EQ(counters.research_succeeded, 1);
  EXPECT_EQ(counters.research_failed, 0);
  EXPECT_EQ(counters.baseline_resets, 0);

  // The next batch arrives under the NEW predictor: the controller must
  // notice the identity change and rebuild the baseline around the new
  // artifact's reference stats (counted as a reset).
  std::shared_ptr<const Predictor> swapped = registry.Acquire();
  ASSERT_NE(swapped.get(), live.get());
  DriftedBatch next = MakeDriftedBatch(16, /*shift=*/0.0);
  controller.OnBatchScored(next.rows, next.predictions, *swapped);
  EXPECT_EQ(controller.counters().baseline_resets, 1);
  EXPECT_EQ(controller.counters().rows_observed, 80);
}

TEST(StreamSwap, FailedSearchKeepsOldGenerationServing) {
  const std::string baseline = WriteTestArtifact("fail_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  StreamController controller(
      &registry, SmallStreamConfig(TempPath("fail_candidate.afpa")));
  controller.researcher().set_search_export_fn(
      [](const Dataset&, const std::string&) {
        return Status::Internal("rigged search failure");
      });

  DriftedBatch batch = MakeDriftedBatch(64, /*shift=*/500.0);
  std::shared_ptr<const Predictor> live = registry.Acquire();
  controller.OnBatchScored(batch.rows, batch.predictions, *live);
  controller.WaitForResearch();

  // Old generation keeps serving: same generation, same live predictor.
  EXPECT_EQ(registry.Info().generation, 1);
  EXPECT_EQ(registry.Acquire().get(), live.get());
  StreamCounters counters = controller.counters();
  EXPECT_EQ(counters.drift_triggers, 1);
  EXPECT_EQ(counters.research_failed, 1);
  EXPECT_EQ(counters.research_succeeded, 0);
}

TEST(StreamSwap, CorruptCandidateIsRejectedBySwap) {
  const std::string baseline = WriteTestArtifact("corrupt_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  const std::string candidate = TempPath("corrupt_candidate.afpa");
  StreamController controller(&registry, SmallStreamConfig(candidate));
  // The rigged "search" claims success but leaves garbage bytes behind —
  // the swap's corruption taxonomy must reject it.
  controller.researcher().set_search_export_fn(
      [](const Dataset&, const std::string& path) {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << "not an artifact";
        return Status::OK();
      });

  DriftedBatch batch = MakeDriftedBatch(64, /*shift=*/500.0);
  std::shared_ptr<const Predictor> live = registry.Acquire();
  controller.OnBatchScored(batch.rows, batch.predictions, *live);
  controller.WaitForResearch();

  EXPECT_EQ(registry.Info().generation, 1);
  EXPECT_EQ(registry.Acquire().get(), live.get());
  EXPECT_EQ(registry.Info().pipeline, BaselineSpec().ToString());
  EXPECT_EQ(controller.counters().research_failed, 1);
}

TEST(StreamSwap, InDistributionTrafficNeverTriggers) {
  const std::string baseline = WriteTestArtifact("quiet_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  StreamController controller(
      &registry, SmallStreamConfig(TempPath("quiet_candidate.afpa")));
  controller.researcher().set_search_export_fn(
      [](const Dataset&, const std::string&) {
        ADD_FAILURE() << "research must not run without drift";
        return Status::Internal("unexpected");
      });

  // Unshifted rows are exactly the export distribution; two full windows
  // delivered as serving-sized micro-batches.
  DriftedBatch batch = MakeDriftedBatch(64, /*shift=*/0.0);
  std::shared_ptr<const Predictor> live = registry.Acquire();
  controller.OnBatchScored(batch.rows, batch.predictions, *live);
  controller.OnBatchScored(batch.rows, batch.predictions, *live);
  controller.WaitForResearch();

  StreamCounters counters = controller.counters();
  EXPECT_EQ(counters.windows_compared, 2);
  EXPECT_EQ(counters.drift_triggers, 0);
  EXPECT_EQ(counters.research_started, 0);
  EXPECT_EQ(registry.Info().generation, 1);
}

TEST(StreamSwap, BatchSpanningWindowsCountsEveryWindow) {
  // One micro-batch of 4 windows whose first window drifted: every window
  // is compared, the early trigger is not lost behind the quiet windows
  // after it, and the batch hands off exactly one snapshot.
  const std::string baseline = WriteTestArtifact("span_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  const StreamConfig config =
      SmallStreamConfig(TempPath("span_candidate.afpa"));
  StreamController controller(&registry, config);
  int rigged_calls = 0;
  controller.researcher().set_search_export_fn(
      [&rigged_calls](const Dataset&, const std::string&) {
        ++rigged_calls;
        return Status::Internal("rigged search failure");
      });

  const size_t window = config.drift.window_rows;
  DriftedBatch batch = MakeDriftedBatch(4 * window, /*shift=*/0.0);
  for (size_t r = 0; r < window; ++r) {
    for (size_t c = 0; c < batch.rows.cols(); ++c) batch.rows(r, c) += 500.0;
  }
  std::shared_ptr<const Predictor> live = registry.Acquire();
  controller.OnBatchScored(batch.rows, batch.predictions, *live);
  controller.WaitForResearch();

  StreamCounters counters = controller.counters();
  EXPECT_EQ(counters.windows_compared, 4);
  EXPECT_EQ(counters.drift_triggers, 1);
  EXPECT_EQ(counters.research_started, 1);
  EXPECT_EQ(counters.research_dropped, 0);
  EXPECT_EQ(rigged_calls, 1);
  EXPECT_EQ(registry.Info().generation, 1);
}

TEST(StreamSwap, ResearcherRefusesTinySnapshots) {
  const std::string baseline = WriteTestArtifact("tiny_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  ResearchConfig config;
  config.candidate_path = TempPath("tiny_candidate.afpa");
  config.min_rows = 64;
  BackgroundResearcher researcher(&registry, config);

  Dataset tiny = TestData();
  tiny.features = Matrix(8, tiny.num_cols());
  tiny.labels.assign(8, 0);
  Status status = researcher.RunOnce(tiny);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(registry.Info().generation, 1);
}

TEST(StreamSwap, TriggerScoredByAReplacedPredictorStartsNoRun) {
  // A window compared against a baseline that a swap already replaced
  // must not start a run: the previous run may have swapped between the
  // controller's staleness check and the trigger.
  const std::string baseline = WriteTestArtifact("replaced_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());
  std::shared_ptr<const Predictor> replaced = registry.Acquire();
  ASSERT_TRUE(registry.Reload().ok());

  ResearchConfig config;
  config.candidate_path = TempPath("replaced_candidate.afpa");
  BackgroundResearcher researcher(&registry, config);
  std::atomic<int> runs{0};
  researcher.set_search_export_fn(
      [&runs](const Dataset&, const std::string&) {
        ++runs;
        return Status::Internal("rigged: no candidate");
      });

  EXPECT_FALSE(researcher.TriggerAsync(TestData(), *replaced));
  EXPECT_FALSE(researcher.busy());
  EXPECT_EQ(researcher.counters().triggers_dropped, 1);
  EXPECT_EQ(researcher.counters().triggers_accepted, 0);

  // The live predictor's trigger still runs.
  EXPECT_TRUE(researcher.TriggerAsync(TestData(), *registry.Acquire()));
  researcher.WaitIdle();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(researcher.counters().triggers_accepted, 1);
  EXPECT_EQ(registry.Info().generation, 2);
}

TEST(StreamSwap, DefaultSearchBodyProducesServableArtifact) {
  // No rigging: the real RunSearch/ExportArtifact body on a real snapshot
  // must produce a candidate the registry accepts.
  const std::string baseline = WriteTestArtifact("real_base.afpa",
                                                 BaselineSpec());
  ArtifactRegistry registry;
  ASSERT_TRUE(registry.Swap(baseline).ok());

  ResearchConfig config;
  config.candidate_path = TempPath("real_candidate.afpa");
  config.budget_evaluations = 6;
  config.min_rows = 32;
  config.seed = 3;
  BackgroundResearcher researcher(&registry, config);

  Status status = researcher.RunOnce(TestData());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(registry.Info().generation, 2);
  std::shared_ptr<const Predictor> swapped = registry.Acquire();
  ASSERT_NE(swapped, nullptr);
  // The re-exported artifact carries fresh reference stats for the next
  // drift baseline.
  EXPECT_FALSE(swapped->reference_stats().empty());
}

}  // namespace
}  // namespace autofp
