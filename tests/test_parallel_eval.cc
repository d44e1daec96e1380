/// Tests of the batch evaluation engine: TransformCache LRU behaviour,
/// cached-vs-uncached evaluation equivalence, SearchContext's result memo,
/// ThreadPool scheduling (ParallelFor and the nested HelpFor) and
/// ordering/determinism, EvaluateBatch bookkeeping parity with sequential
/// Evaluate, and fault semantics under concurrency.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/run_journal.h"
#include "core/search_framework.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "preprocess/transform_cache.h"
#include "util/thread_pool.h"

namespace autofp {
namespace {

const PreprocessorKind kAllKinds[] = {
    PreprocessorKind::kBinarizer,       PreprocessorKind::kMaxAbsScaler,
    PreprocessorKind::kMinMaxScaler,    PreprocessorKind::kNormalizer,
    PreprocessorKind::kPowerTransformer,
    PreprocessorKind::kQuantileTransformer,
    PreprocessorKind::kStandardScaler};

TrainValidSplit MakeSplit(uint64_t seed, size_t rows = 120, size_t cols = 4) {
  SyntheticSpec spec;
  spec.name = "parallel";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = rows;
  spec.cols = cols;
  spec.num_classes = 2;
  spec.seed = seed;
  Dataset data = GenerateSynthetic(spec);
  Rng rng(seed);
  return SplitTrainValid(data, 0.8, &rng);
}

ModelConfig FastLr() {
  ModelConfig model = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  model.lr_epochs = 10;
  return model;
}

// ---------------------------------------------------------------------------
// TransformCache: LRU bounded by bytes.

/// Shared train/valid matrices filled with `fill`, the unit the cache now
/// stores (no TransformedPair copies cross the cache boundary).
std::pair<std::shared_ptr<const Matrix>, std::shared_ptr<const Matrix>>
MakeShared(size_t rows, double fill) {
  return {std::make_shared<const Matrix>(rows, 10, fill),
          std::make_shared<const Matrix>(rows / 2, 10, fill)};
}

void PutPair(TransformCache* cache, const std::string& key, size_t rows,
             double fill) {
  auto [train, valid] = MakeShared(rows, fill);
  cache->Put(key, std::move(train), std::move(valid));
}

TEST(TransformCache, StoresAndRetrieves) {
  TransformCache cache(1 << 20);
  EXPECT_FALSE(cache.Get("a"));
  PutPair(&cache, "a", 10, 1.5);
  CachedTransforms hit = cache.Get("a");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit.train->rows(), 10u);
  EXPECT_DOUBLE_EQ((*hit.train)(0, 0), 1.5);
  TransformCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(TransformCache, HandsOutSharedReferencesNotCopies) {
  TransformCache cache(1 << 20);
  auto [train, valid] = MakeShared(10, 3.0);
  const Matrix* stored = train.get();
  cache.Put("a", std::move(train), std::move(valid));
  // Both hits observe the very matrix that was Put — a hit never copies.
  EXPECT_EQ(cache.Get("a").train.get(), stored);
  EXPECT_EQ(cache.Get("a").train.get(), stored);
}

TEST(TransformCache, EvictsLeastRecentlyUsed) {
  // Each entry's payload is 100x10 + 50x10 doubles = 12000 bytes; a 30000
  // byte budget holds two entries but not three.
  TransformCache cache(30000);
  PutPair(&cache, "a", 100, 1.0);
  PutPair(&cache, "b", 100, 2.0);
  ASSERT_TRUE(cache.Get("a"));  // refresh "a": now "b" is LRU.
  PutPair(&cache, "c", 100, 3.0);
  EXPECT_TRUE(cache.Get("a"));
  EXPECT_TRUE(cache.Get("c"));
  EXPECT_FALSE(cache.Get("b"));  // evicted.
  TransformCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_LE(stats.bytes, stats.max_bytes);
}

TEST(TransformCache, OversizedEntryIsNeverStored) {
  TransformCache cache(1000);  // smaller than any 100-row payload.
  PutPair(&cache, "big", 100, 1.0);
  EXPECT_FALSE(cache.Get("big"));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(TransformCache, EvictionNeverInvalidatesHeldValues) {
  TransformCache cache(30000);
  PutPair(&cache, "a", 100, 7.0);
  CachedTransforms held = cache.Get("a");
  PutPair(&cache, "b", 100, 1.0);
  PutPair(&cache, "c", 100, 2.0);  // evicts "a".
  EXPECT_FALSE(cache.Get("a"));
  // The held shared reference still reads valid data.
  EXPECT_DOUBLE_EQ((*held.train)(99, 9), 7.0);
}

TEST(TransformCache, ClearResetsContentAndBytes) {
  TransformCache cache(1 << 20);
  PutPair(&cache, "a", 10, 1.0);
  PutPair(&cache, "b", 10, 2.0);
  cache.Clear();
  EXPECT_FALSE(cache.Get("a"));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(TransformCache, SharedEntriesReadConcurrentlyWhileEvicting) {
  // The shared-immutable contract under load (run under TSan via
  // scripts/check_tsan.sh): readers sum a cached entry's matrix while a
  // writer churns the cache past its byte budget, evicting and
  // re-inserting around them. Held references must stay valid and
  // constant throughout.
  TransformCache cache(30000);
  PutPair(&cache, "hot", 100, 5.0);
  std::atomic<bool> stop{false};
  std::atomic<long> bad_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&cache, &stop, &bad_reads] {
      while (!stop.load()) {
        CachedTransforms held = cache.Get("hot");
        if (!held) continue;  // currently evicted; writer will re-insert.
        for (size_t r = 0; r < held.train->rows(); ++r) {
          const double* row = held.train->RowPtr(r);
          for (size_t c = 0; c < held.train->cols(); ++c) {
            if (row[c] != 5.0) bad_reads.fetch_add(1);
          }
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    // Each filler insert evicts the LRU entry; re-insert "hot" so readers
    // keep finding it.
    PutPair(&cache, "filler" + std::to_string(i), 100, 1.0);
    PutPair(&cache, "hot", 100, 5.0);
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

// ---------------------------------------------------------------------------
// Prefix-transform caching is invisible: cached evaluations are identical
// to uncached ones for every preprocessor and budget fraction.

TEST(PrefixCache, CachedEvaluationsIdenticalForAllPreprocessors) {
  TrainValidSplit split = MakeSplit(61);
  PipelineEvaluator plain(split.train, split.valid, FastLr());
  PipelineEvaluator cached(split.train, split.valid, FastLr());
  auto cache = std::make_shared<TransformCache>(64 << 20);
  cached.AttachTransformCache(cache);

  for (PreprocessorKind kind : kAllKinds) {
    for (double fraction : {0.25, 1.0}) {
      // Single step, then two chains sharing that step as a prefix, so the
      // second and third evaluations hit the cache.
      const std::vector<PipelineSpec> pipelines = {
          PipelineSpec::FromKinds({kind}),
          PipelineSpec::FromKinds({kind, PreprocessorKind::kStandardScaler}),
          PipelineSpec::FromKinds({kind, PreprocessorKind::kBinarizer}),
      };
      for (const PipelineSpec& pipeline : pipelines) {
        EvalRequest request;
        request.pipeline = pipeline;
        request.budget_fraction = fraction;
        request.seed = 0xFEEDu + static_cast<uint64_t>(kind);
        Evaluation uncached_eval = plain.Evaluate(request);
        Evaluation cached_eval = cached.Evaluate(request);
        EXPECT_DOUBLE_EQ(cached_eval.accuracy, uncached_eval.accuracy)
            << KindName(kind) << " fraction " << fraction;
        EXPECT_EQ(cached_eval.failure, uncached_eval.failure)
            << KindName(kind) << " fraction " << fraction;
        EXPECT_DOUBLE_EQ(cached_eval.budget_fraction,
                         uncached_eval.budget_fraction);
      }
    }
  }
  TransformCache::Stats stats = cache->stats();
  EXPECT_GT(stats.hits, 0) << "shared prefixes never hit the cache";
  EXPECT_GT(stats.insertions, 0);
}

TEST(PrefixCache, RepeatEvaluationHitsEveryPrefix) {
  TrainValidSplit split = MakeSplit(62);
  PipelineEvaluator evaluator(split.train, split.valid, FastLr());
  auto cache = std::make_shared<TransformCache>(64 << 20);
  evaluator.AttachTransformCache(cache);
  EvalRequest request;
  request.pipeline =
      PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler,
                               PreprocessorKind::kMinMaxScaler,
                               PreprocessorKind::kBinarizer});
  double first = evaluator.Evaluate(request).accuracy;
  long hits_before = cache->stats().hits;
  double second = evaluator.Evaluate(request).accuracy;
  EXPECT_DOUBLE_EQ(first, second);
  // The repeat probes the longest prefix first and finds the whole
  // pipeline cached: exactly one more hit, no new insertions.
  EXPECT_EQ(cache->stats().hits, hits_before + 1);
}

// ---------------------------------------------------------------------------
// ResultMemo: with cache_bytes > 0, SearchContext serves a repeated request
// (pipeline key, fraction, seed) from the run's earlier outcome.

class CountingLandscape : public EvaluatorInterface {
 public:
  using EvaluatorInterface::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    Evaluation evaluation;
    evaluation.pipeline = request.pipeline;
    evaluation.budget_fraction = request.budget_fraction;
    double score = 0.3;
    for (const PreprocessorConfig& step : request.pipeline.steps) {
      if (step.kind == PreprocessorKind::kBinarizer) score += 0.15;
    }
    score -= 0.02 * static_cast<double>(request.pipeline.size());
    evaluation.accuracy = std::min(score, 1.0);
    return evaluation;
  }
  double BaselineAccuracy() override { return 0.3; }
  long calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long> calls_{0};
};

/// Every request fails with `failure`. Thread-safe.
class FailingLandscape : public CountingLandscape {
 public:
  using CountingLandscape::Evaluate;

  explicit FailingLandscape(EvalFailure failure) : failure_(failure) {}

  Evaluation Evaluate(const EvalRequest& request) override {
    Evaluation evaluation = CountingLandscape::Evaluate(request);
    evaluation.failure = failure_;
    evaluation.status = Status::Internal("rigged failure");
    evaluation.accuracy = kPenaltyAccuracy;
    return evaluation;
  }

 private:
  EvalFailure failure_;
};

/// Each request's first attempt fails with an injected (transient) fault,
/// and every retry succeeds; the attempt is read off the request seed of a
/// run seeded with `root`. Thread-safe.
class FirstAttemptFailsLandscape : public CountingLandscape {
 public:
  using CountingLandscape::Evaluate;

  explicit FirstAttemptFailsLandscape(uint64_t root) : root_(root) {}

  Evaluation Evaluate(const EvalRequest& request) override {
    Evaluation evaluation = CountingLandscape::Evaluate(request);
    if (request.seed == EvalRequest::DeriveSeed(root_, request.pipeline,
                                                request.budget_fraction, 1)) {
      evaluation.failure = EvalFailure::kInjected;
      evaluation.status = Status::Internal("rigged injected fault");
      evaluation.accuracy = kPenaltyAccuracy;
    }
    return evaluation;
  }

 private:
  uint64_t root_;
};

PipelineSpec RepeatedPipeline() {
  return PipelineSpec::FromKinds(
      {PreprocessorKind::kBinarizer, PreprocessorKind::kStandardScaler});
}

/// Proposes the same pipeline on every iteration, as evolution re-proposes
/// a child it has already scored.
class RepeatSearch : public SearchAlgorithm {
 public:
  std::string name() const override { return "Repeat"; }
  void Iterate(SearchContext* context) override {
    context->Evaluate(RepeatedPipeline());
  }
};

/// Four evaluations of RepeatedPipeline(), one batch each.
SearchResult RunRepeats(EvaluatorInterface* evaluator, size_t cache_bytes,
                        int num_threads = 1) {
  RepeatSearch search;
  SearchOptions options{Budget::Evaluations(4), 3};
  options.cache_bytes = cache_bytes;
  options.num_threads = num_threads;
  return RunSearch(&search, evaluator, SearchSpace::Default(), options);
}

SearchOptions MemoOptions() {
  SearchOptions options{Budget::Evaluations(10), 3};
  options.cache_bytes = 1 << 20;
  return options;
}

TEST(ResultMemo, CrossBatchRepeatEvaluatesOnceButIsRecordedAndJournaledTwice) {
  CountingLandscape evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchOptions options = MemoOptions();
  auto journal = RunJournalWriter::Create(
                     ::testing::TempDir() + "/result_memo.journal", 1, 2)
                     .value();
  options.journal = journal.get();
  SearchContext context(&space, &evaluator, options);
  const std::optional<double> first = context.Evaluate(RepeatedPipeline());
  const std::optional<double> second = context.Evaluate(RepeatedPipeline());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(*first, *second);
  EXPECT_EQ(evaluator.calls(), 1);
  EXPECT_EQ(context.result_cache_hits(), 1);
  EXPECT_EQ(context.result_cache_misses(), 1);
  // The batch dedup decides what is recorded and journaled, the memo only
  // what reaches the evaluator: the repeat is a second record and append.
  EXPECT_EQ(context.num_evaluations(), 2);
  EXPECT_EQ(journal->num_appends(), 2);
}

TEST(ResultMemo, OtherFractionOrRetryAttemptMisses) {
  FirstAttemptFailsLandscape evaluator(/*root=*/3);
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator, MemoOptions());
  // The injected fault is stored; the retry carries attempt 2's seed, so
  // it misses and reaches the evaluator.
  context.Evaluate(RepeatedPipeline(), 1.0);
  EXPECT_EQ(evaluator.calls(), 2);
  EXPECT_EQ(context.num_retries(), 1);
  // The same pipeline at another fraction is another request.
  context.Evaluate(RepeatedPipeline(), 0.5);
  EXPECT_EQ(evaluator.calls(), 4);
  EXPECT_EQ(context.result_cache_hits(), 0);
  EXPECT_EQ(context.result_cache_misses(), 4);
  // A repeat looks up every attempt: the stored fault is served and
  // retried, and the retry is served the stored success.
  const std::optional<double> repeat = context.Evaluate(RepeatedPipeline());
  EXPECT_EQ(evaluator.calls(), 4);
  EXPECT_EQ(context.result_cache_hits(), 2);
  EXPECT_EQ(context.num_retries(), 3);
  ASSERT_TRUE(repeat.has_value());
  EXPECT_DOUBLE_EQ(*repeat, context.history().front().accuracy);
}

TEST(ResultMemo, ZeroCacheBytesSendsEveryRepeatToTheEvaluator) {
  CountingLandscape evaluator;
  SearchResult result = RunRepeats(&evaluator, /*cache_bytes=*/0);
  EXPECT_EQ(result.num_evaluations, 4);
  EXPECT_EQ(evaluator.calls(), 4);
  EXPECT_EQ(result.result_cache_hits, 0);
  EXPECT_EQ(result.result_cache_misses, 0);
}

TEST(ResultMemo, WorksThroughAWrappedEvaluator) {
  // The memo needs nothing from the evaluator's type, so a wrapper between
  // the search and the landscape changes nothing (pool path included).
  CountingLandscape landscape;
  FaultInjectingEvaluator wrapped(&landscape, FaultInjectorConfig{});
  SearchResult result =
      RunRepeats(&wrapped, /*cache_bytes=*/1 << 20, /*num_threads=*/2);
  EXPECT_EQ(result.num_evaluations, 4);
  EXPECT_EQ(landscape.calls(), 1);
  EXPECT_EQ(result.result_cache_hits, 3);
  EXPECT_EQ(result.result_cache_misses, 1);
}

TEST(ResultMemo, DeadlineFailureIsNotMemoised) {
  // A deadline failure depends on wall-clock, so its repeat must reach the
  // evaluator again. An injected fault is a function of the request seed
  // and is served from the memo like a success.
  for (EvalFailure failure :
       {EvalFailure::kDeadlineExceeded, EvalFailure::kInjected}) {
    FailingLandscape evaluator(failure);
    SearchSpace space = SearchSpace::Default();
    SearchOptions options = MemoOptions();
    options.fault_policy.max_retries = 0;
    SearchContext context(&space, &evaluator, options);
    context.Evaluate(RepeatedPipeline());
    context.Evaluate(RepeatedPipeline());
    EXPECT_EQ(context.num_evaluations(), 2);
    EXPECT_EQ(context.num_failures(), 2);
    EXPECT_EQ(evaluator.calls(),
              failure == EvalFailure::kDeadlineExceeded ? 2 : 1)
        << EvalFailureName(failure);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool: every index runs once, on a worker in range, and evaluations
// fanned out over it are slotted by index and equal the sequential ones.

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    std::vector<std::atomic<int>> runs(count);
    std::atomic<bool> workers_in_range{true};
    pool.ParallelFor(count, [&](size_t index, int worker) {
      runs[index].fetch_add(1);
      if (worker < 0 || worker >= pool.num_threads()) {
        workers_in_range = false;
      }
    });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "count " << count << ", index " << i;
    }
    EXPECT_TRUE(workers_in_range) << "count " << count;
  }
}

TEST(ThreadPool, AllWorkersRunConcurrently) {
  // num_threads tasks that each wait until all of them have started: only
  // a pool running num_threads workers at once gets past the rendezvous.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mutex;
  std::condition_variable all_started;
  int started = 0;
  int timed_out = 0;
  std::vector<int> runs_per_worker(kThreads, 0);
  pool.ParallelFor(kThreads, [&](size_t, int worker) {
    std::unique_lock<std::mutex> lock(mutex);
    ++runs_per_worker[static_cast<size_t>(worker)];
    if (++started == kThreads) all_started.notify_all();
    if (!all_started.wait_for(lock, std::chrono::seconds(30),
                              [&] { return started == kThreads; })) {
      ++timed_out;
    }
  });
  EXPECT_EQ(timed_out, 0) << "fewer than " << kThreads
                          << " tasks ever ran at once";
  for (int worker = 0; worker < kThreads; ++worker) {
    EXPECT_EQ(runs_per_worker[static_cast<size_t>(worker)], 1)
        << "worker " << worker;
  }
}

TEST(ThreadPool, ConcurrentCallersShareWorkers) {
  constexpr int kThreads = 3;
  constexpr int kCallers = 4;
  constexpr size_t kCount = 300;
  ThreadPool pool(kThreads);
  // A worker runs one call at a time, whichever caller it serves: that is
  // what makes one scratch buffer per worker safe.
  std::vector<std::atomic<int>> in_use(kThreads);
  std::atomic<bool> worker_overlap{false};
  std::vector<std::vector<int>> runs(kCallers, std::vector<int>(kCount, 0));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kCount, [&](size_t index, int worker) {
        std::atomic<int>& busy = in_use[static_cast<size_t>(worker)];
        if (busy.fetch_add(1) != 0) worker_overlap = true;
        ++runs[static_cast<size_t>(c)][index];
        busy.fetch_sub(1);
      });
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_FALSE(worker_overlap);
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(runs[static_cast<size_t>(c)][i], 1)
          << "caller " << c << ", index " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadPool::HelpFor: a pool task spreads an inner loop over idle workers,
// runs inner indices itself, and never waits for a busy worker.

/// Waits up to 30 s for `done()`; false on timeout.
template <typename Done>
bool WaitFor(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
             Done done) {
  return cv.wait_for(lock, std::chrono::seconds(30), done);
}

TEST(ThreadPool, HelpForOffAPoolRunsInOrderOnTheCaller) {
  std::vector<size_t> order;
  std::vector<std::thread::id> threads;
  auto record = [&](size_t index) {
    order.push_back(index);
    threads.push_back(std::this_thread::get_id());
  };
  // On a thread that is no pool's worker, even while a pool exists.
  ThreadPool pool(4);
  ThreadPool::HelpFor(5, record);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  for (std::thread::id id : threads) EXPECT_EQ(id, std::this_thread::get_id());
  // On the worker of a one-thread pool: nobody could help, so no helper.
  ThreadPool single(1);
  order.clear();
  threads.clear();
  std::thread::id worker_id;
  single.ParallelFor(1, [&](size_t, int) {
    worker_id = std::this_thread::get_id();
    ThreadPool::HelpFor(3, record);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
  for (std::thread::id id : threads) EXPECT_EQ(id, worker_id);
}

TEST(ThreadPool, NestedHelpForRunsEveryIndexOnceWithoutDeadlock) {
  // Every worker is a HelpFor caller at once: each one's helpers can only
  // start once some other caller has finished, so a caller that waited for
  // its queued helpers would deadlock.
  constexpr size_t kInner = 1000;
  ThreadPool pool(4);
  std::vector<std::vector<std::atomic<int>>> runs(4);
  for (auto& inner : runs) inner = std::vector<std::atomic<int>>(kInner);
  pool.ParallelFor(4, [&](size_t outer, int) {
    ThreadPool::HelpFor(kInner, [&](size_t index) {
      runs[outer][index].fetch_add(1);
    });
  });
  for (size_t outer = 0; outer < 4; ++outer) {
    for (size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(runs[outer][i].load(), 1) << "outer " << outer << ", " << i;
    }
  }
}

TEST(ThreadPool, IdleWorkerTakesAHelpForIndex) {
  // Two indices that each wait for the other to have started: only a
  // helper running beside the caller gets both past the latch in time.
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable both_started;
  int started = 0;
  int timed_out = 0;
  std::vector<std::thread::id> threads(2);
  pool.ParallelFor(1, [&](size_t, int) {
    ThreadPool::HelpFor(2, [&](size_t index) {
      std::unique_lock<std::mutex> lock(mutex);
      threads[index] = std::this_thread::get_id();
      if (++started == 2) both_started.notify_all();
      if (!WaitFor(both_started, lock, [&] { return started == 2; })) {
        ++timed_out;
      }
    });
  });
  EXPECT_EQ(timed_out, 0) << "no helper took the second index";
  EXPECT_NE(threads[0], threads[1]);
}

TEST(ThreadPool, HelpForLeavesNoTaskForTheNextParallelFor) {
  // Two workers: one parks in task 0 while the other calls HelpFor in task
  // 1. The helper that HelpFor queues can never start, so the caller must
  // run every index itself, take the helper back off the queue and return
  // without waiting for the parked worker.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable changed;
  bool parked = false;
  bool released = false;
  int timed_out = 0;
  std::thread::id caller;
  std::vector<std::thread::id> ran;
  pool.ParallelFor(2, [&](size_t task, int) {
    std::unique_lock<std::mutex> lock(mutex);
    if (task == 0) {
      parked = true;
      changed.notify_all();
      if (!WaitFor(changed, lock, [&] { return released; })) ++timed_out;
      return;
    }
    if (!WaitFor(changed, lock, [&] { return parked; })) ++timed_out;
    caller = std::this_thread::get_id();
    lock.unlock();
    ThreadPool::HelpFor(3, [&](size_t) {
      std::lock_guard<std::mutex> inner(mutex);
      ran.push_back(std::this_thread::get_id());
    });
    lock.lock();
    released = true;
    changed.notify_all();
  });
  EXPECT_EQ(timed_out, 0);
  ASSERT_EQ(ran.size(), 3u);
  for (std::thread::id id : ran) EXPECT_EQ(id, caller);
  // Both workers are free again and the queue holds only the new tasks: a
  // rendezvous of two tasks needs both workers at once.
  int started = 0;
  pool.ParallelFor(2, [&](size_t, int) {
    std::unique_lock<std::mutex> lock(mutex);
    if (++started == 2) changed.notify_all();
    if (!WaitFor(changed, lock, [&] { return started == 2; })) ++timed_out;
  });
  EXPECT_EQ(timed_out, 0);
}

/// Evaluates `requests` on `pool` the way SearchContext does: results
/// slotted by index, each worker lending its own scratch.
std::vector<Evaluation> EvaluateOnPool(ThreadPool* pool,
                                       EvaluatorInterface* evaluator,
                                       const std::vector<EvalRequest>& requests,
                                       std::vector<TransformScratch>* scratch) {
  std::vector<Evaluation> results(requests.size());
  pool->ParallelFor(requests.size(), [&](size_t i, int worker) {
    results[i] = evaluator->Evaluate(requests[i],
                                     &(*scratch)[static_cast<size_t>(worker)]);
  });
  return results;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(ThreadPool, ResultsArriveInRequestOrder) {
  TrainValidSplit split = MakeSplit(29);
  PipelineEvaluator evaluator(split.train, split.valid, FastLr());
  ThreadPool pool(4);
  std::vector<TransformScratch> scratch(4);
  // Prefixes of increasing length: every slot holds a distinct pipeline.
  std::vector<EvalRequest> requests;
  std::vector<PreprocessorKind> kinds;
  for (PreprocessorKind kind : kAllKinds) {
    kinds.push_back(kind);
    EvalRequest request;
    request.pipeline = PipelineSpec::FromKinds(kinds);
    requests.push_back(request);
  }
  std::vector<Evaluation> results =
      EvaluateOnPool(&pool, &evaluator, requests, &scratch);
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].pipeline == requests[i].pipeline) << "slot " << i;
    EXPECT_EQ(Bits(results[i].accuracy),
              Bits(evaluator.Evaluate(requests[i]).accuracy))
        << "slot " << i;
  }
}

TEST(ThreadPool, RealEvaluatorMatchesSequential) {
  TrainValidSplit split = MakeSplit(63);
  PipelineEvaluator sequential(split.train, split.valid, FastLr());
  PipelineEvaluator concurrent(split.train, split.valid, FastLr());
  ThreadPool pool(4);
  std::vector<TransformScratch> scratch(4);
  std::vector<EvalRequest> requests;
  for (PreprocessorKind kind : kAllKinds) {
    EvalRequest request;
    request.pipeline = PipelineSpec::FromKinds({kind});
    request.seed = static_cast<uint64_t>(kind) * 17 + 1;
    requests.push_back(request);
  }
  // The second round reuses scratch the first one grew.
  for (int round = 0; round < 2; ++round) {
    std::vector<Evaluation> results =
        EvaluateOnPool(&pool, &concurrent, requests, &scratch);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(Bits(results[i].accuracy),
                Bits(sequential.Evaluate(requests[i]).accuracy))
          << "round " << round << ", slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// EvaluateBatch: bookkeeping parity with sequential Evaluate.

std::vector<std::pair<std::string, double>> HistoryMultiset(
    const std::vector<Evaluation>& history) {
  std::vector<std::pair<std::string, double>> entries;
  entries.reserve(history.size());
  for (const Evaluation& evaluation : history) {
    entries.emplace_back(evaluation.pipeline.Key(), evaluation.accuracy);
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(EvaluateBatch, BudgetCutoffIsASuffixOfNullopts) {
  CountingLandscape evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(5), 3});
  std::vector<PipelineSpec> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(space.SampleUniform(context.rng()));
  }
  std::vector<std::optional<double>> scores = context.EvaluateBatch(batch);
  ASSERT_EQ(scores.size(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(scores[i].has_value()) << i;
  for (int i = 5; i < 8; ++i) EXPECT_FALSE(scores[i].has_value()) << i;
  EXPECT_EQ(context.num_evaluations(), 5);
  EXPECT_TRUE(context.BudgetExhausted());
}

TEST(EvaluateBatch, DuplicatesEvaluateOnceButRecordEach) {
  CountingLandscape evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(10), 3});
  PipelineSpec pipeline =
      PipelineSpec::FromKinds({PreprocessorKind::kBinarizer});
  std::vector<PipelineSpec> batch(4, pipeline);
  std::vector<std::optional<double>> scores = context.EvaluateBatch(batch);
  EXPECT_EQ(evaluator.calls(), 1);  // deduplicated inside the batch.
  ASSERT_EQ(scores.size(), 4u);
  for (const std::optional<double>& score : scores) {
    ASSERT_TRUE(score.has_value());
    EXPECT_DOUBLE_EQ(*score, *scores[0]);
  }
  // Bookkeeping replays per slot: four history records, four budget units.
  EXPECT_EQ(context.num_evaluations(), 4);
  EXPECT_DOUBLE_EQ(context.evaluation_cost(), 4.0);
}

/// Pipelines starting with Normalizer fail permanently; everything else
/// succeeds. Thread-safe.
class PermanentFailLandscape : public CountingLandscape {
 public:
  using CountingLandscape::Evaluate;

  Evaluation Evaluate(const EvalRequest& request) override {
    if (!request.pipeline.empty() &&
        request.pipeline.steps[0].kind == PreprocessorKind::kNormalizer) {
      Evaluation evaluation;
      evaluation.pipeline = request.pipeline;
      evaluation.budget_fraction = request.budget_fraction;
      evaluation.failure = EvalFailure::kNonFiniteOutput;
      evaluation.status = Status::OutOfRange("rigged non-finite");
      evaluation.accuracy = kPenaltyAccuracy;
      return evaluation;
    }
    return CountingLandscape::Evaluate(request);
  }
};

TEST(EvaluateBatch, InBatchQuarantineMatchesSequential) {
  PipelineSpec bad = PipelineSpec::FromKinds({PreprocessorKind::kNormalizer});
  PipelineSpec good = PipelineSpec::FromKinds({PreprocessorKind::kBinarizer});
  SearchSpace space = SearchSpace::Default();

  PermanentFailLandscape batch_eval;
  SearchContext batch_context(&space, &batch_eval,
                              SearchOptions{Budget::Evaluations(10), 3});
  std::vector<PipelineSpec> batch = {bad, good, bad};
  batch_context.EvaluateBatch(batch);

  PermanentFailLandscape seq_eval;
  SearchContext seq_context(&space, &seq_eval,
                            SearchOptions{Budget::Evaluations(10), 3});
  for (const PipelineSpec& pipeline : batch) seq_context.Evaluate(pipeline);

  EXPECT_EQ(batch_context.num_failures(), seq_context.num_failures());
  EXPECT_EQ(batch_context.num_quarantined(), seq_context.num_quarantined());
  EXPECT_EQ(batch_context.num_quarantine_hits(),
            seq_context.num_quarantine_hits());
  EXPECT_DOUBLE_EQ(batch_context.evaluation_cost(),
                   seq_context.evaluation_cost());
  ASSERT_EQ(batch_context.history().size(), seq_context.history().size());
  for (size_t i = 0; i < batch_context.history().size(); ++i) {
    EXPECT_EQ(batch_context.history()[i].failure,
              seq_context.history()[i].failure)
        << "slot " << i;
    EXPECT_DOUBLE_EQ(batch_context.history()[i].accuracy,
                     seq_context.history()[i].accuracy);
  }
  EXPECT_EQ(batch_context.num_quarantine_hits(), 1);
}

TEST(EvaluateBatch, EmptyBatchIsANoOp) {
  CountingLandscape evaluator;
  SearchSpace space = SearchSpace::Default();
  SearchContext context(&space, &evaluator,
                        SearchOptions{Budget::Evaluations(10), 3});
  std::vector<std::optional<double>> scores = context.EvaluateBatch({});
  EXPECT_TRUE(scores.empty());
  EXPECT_EQ(evaluator.calls(), 0);
  EXPECT_EQ(context.num_evaluations(), 0);
  EXPECT_TRUE(context.history().empty());
  EXPECT_DOUBLE_EQ(context.evaluation_cost(), 0.0);
  EXPECT_FALSE(context.BudgetExhausted());
}

TEST(EvaluateBatch, AllQuarantinedBatchMatchesSequential) {
  PipelineSpec bad = PipelineSpec::FromKinds({PreprocessorKind::kNormalizer});
  SearchSpace space = SearchSpace::Default();

  PermanentFailLandscape batch_eval;
  SearchContext batch_context(&space, &batch_eval,
                              SearchOptions{Budget::Evaluations(20), 3});
  batch_context.Evaluate(bad);  // quarantines the pipeline.
  long calls_after_quarantine = batch_eval.calls();
  std::vector<PipelineSpec> batch(3, bad);
  std::vector<std::optional<double>> scores =
      batch_context.EvaluateBatch(batch);
  // Every slot is served from quarantine: no evaluator calls at all.
  EXPECT_EQ(batch_eval.calls(), calls_after_quarantine);
  ASSERT_EQ(scores.size(), 3u);
  for (const std::optional<double>& score : scores) {
    ASSERT_TRUE(score.has_value());
    EXPECT_DOUBLE_EQ(*score, kPenaltyAccuracy);
  }

  PermanentFailLandscape seq_eval;
  SearchContext seq_context(&space, &seq_eval,
                            SearchOptions{Budget::Evaluations(20), 3});
  seq_context.Evaluate(bad);
  for (const PipelineSpec& pipeline : batch) seq_context.Evaluate(pipeline);

  EXPECT_EQ(batch_eval.calls(), seq_eval.calls());
  EXPECT_EQ(batch_context.num_quarantine_hits(),
            seq_context.num_quarantine_hits());
  EXPECT_EQ(batch_context.num_failures(), seq_context.num_failures());
  EXPECT_DOUBLE_EQ(batch_context.evaluation_cost(),
                   seq_context.evaluation_cost());
  EXPECT_TRUE(HistoryMultiset(batch_context.history()) ==
              HistoryMultiset(seq_context.history()));
}

TEST(EvaluateBatch, AllDuplicateSpecsMatchSequential) {
  PipelineSpec pipeline =
      PipelineSpec::FromKinds({PreprocessorKind::kBinarizer,
                               PreprocessorKind::kStandardScaler});
  SearchSpace space = SearchSpace::Default();

  CountingLandscape batch_eval;
  SearchContext batch_context(&space, &batch_eval,
                              SearchOptions{Budget::Evaluations(20), 3});
  std::vector<PipelineSpec> batch(5, pipeline);
  batch_context.EvaluateBatch(batch);

  CountingLandscape seq_eval;
  SearchContext seq_context(&space, &seq_eval,
                            SearchOptions{Budget::Evaluations(20), 3});
  for (const PipelineSpec& spec : batch) seq_context.Evaluate(spec);

  // The batch path dedups the evaluator call but must replicate the
  // sequential path's per-slot bookkeeping exactly.
  EXPECT_EQ(batch_context.num_evaluations(), seq_context.num_evaluations());
  EXPECT_DOUBLE_EQ(batch_context.evaluation_cost(),
                   seq_context.evaluation_cost());
  EXPECT_EQ(batch_context.num_successes(), seq_context.num_successes());
  ASSERT_EQ(batch_context.history().size(), seq_context.history().size());
  for (size_t i = 0; i < batch_context.history().size(); ++i) {
    EXPECT_EQ(batch_context.history()[i].pipeline.Key(),
              seq_context.history()[i].pipeline.Key());
    EXPECT_DOUBLE_EQ(batch_context.history()[i].accuracy,
                     seq_context.history()[i].accuracy);
  }
  ASSERT_TRUE(batch_context.has_best());
  EXPECT_EQ(batch_context.best().pipeline.Key(),
            seq_context.best().pipeline.Key());
}

// ---------------------------------------------------------------------------
// Scratch-aware evaluation: lending reusable buffers changes nothing about
// the results.

TEST(ScratchEval, ScratchAndScratchlessEvaluationsIdentical) {
  TrainValidSplit split = MakeSplit(65);
  PipelineEvaluator evaluator(split.train, split.valid, FastLr());
  TransformScratch scratch;
  for (PreprocessorKind kind : kAllKinds) {
    EvalRequest request;
    request.pipeline = PipelineSpec::FromKinds(
        {kind, PreprocessorKind::kStandardScaler});
    request.seed = EvalRequest::DeriveSeed(99, request.pipeline, 1.0, 1);
    Evaluation fresh = evaluator.Evaluate(request);
    // The same (dirty) scratch serves every evaluation in turn.
    Evaluation reused = evaluator.Evaluate(request, &scratch);
    EXPECT_DOUBLE_EQ(fresh.accuracy, reused.accuracy)
        << request.pipeline.ToString();
    EXPECT_EQ(fresh.failure, reused.failure);
  }
}

}  // namespace
}  // namespace autofp
