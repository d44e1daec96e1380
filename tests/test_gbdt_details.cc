/// GBDT behaviour, its flat scoring view checked against a pointer walk
/// of the same trees, and the hostile-blob checks of both tree-model
/// loaders and of QuantileTransformer's table loader (they share the
/// allocation probe below).

#include "ml/gbdt.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "preprocess/pipeline.h"
#include "preprocess/quantile_transformer.h"
#include "serve/artifact.h"
#include "util/checksum.h"
#include "util/fs.h"
#include "util/random.h"
#include "util/serialize.h"

namespace {

/// Largest single operator-new request since the last reset: shows that a
/// loader sizes nothing from a declared count.
std::atomic<size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t size) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* memory = std::malloc(size == 0 ? 1 : size)) return memory;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with the
// operator new above as a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* memory) noexcept {
  std::free(memory);
}
[[gnu::noinline]] void operator delete(void* memory, std::size_t) noexcept {
  std::free(memory);
}

namespace autofp {
namespace {

Dataset SmallBlobs(int classes, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "gbdt";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = 300;
  spec.cols = 5;
  spec.num_classes = classes;
  spec.seed = seed;
  spec.separation = 3.0;
  spec.label_noise = 0.0;
  return GenerateSynthetic(spec);
}

ModelConfig GbdtConfig() {
  ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  config.xgb_rounds = 20;
  return config;
}

TEST(GbdtDetails, RawScoresLengthMatchesOutputs) {
  Dataset binary = SmallBlobs(2, 1);
  GbdtClassifier model(GbdtConfig());
  model.Train(binary.features, binary.labels, 2);
  std::vector<double> scores =
      model.RawScores(binary.features.RowPtr(0), binary.num_cols());
  EXPECT_EQ(scores.size(), 1u);  // single sigmoid logit for binary.

  Dataset multi = SmallBlobs(4, 2);
  GbdtClassifier multi_model(GbdtConfig());
  multi_model.Train(multi.features, multi.labels, 4);
  EXPECT_EQ(multi_model.RawScores(multi.features.RowPtr(0), 5).size(), 4u);
}

TEST(GbdtDetails, PredictionConsistentWithRawScores) {
  Dataset data = SmallBlobs(3, 3);
  GbdtClassifier model(GbdtConfig());
  model.Train(data.features, data.labels, 3);
  for (size_t r = 0; r < 20; ++r) {
    std::vector<double> scores = model.RawScores(data.features.RowPtr(r), 5);
    int argmax = 0;
    for (int k = 1; k < 3; ++k) {
      if (scores[k] > scores[argmax]) argmax = k;
    }
    EXPECT_EQ(model.Predict(data.features.RowPtr(r), 5), argmax);
  }
}

TEST(GbdtDetails, ExactlyInvariantToStrictlyMonotoneRescaling) {
  // Histogram splits are defined by value order, so multiplying a feature
  // by a positive constant must give identical predictions.
  Dataset data = SmallBlobs(2, 4);
  Dataset scaled = data;
  for (size_t r = 0; r < scaled.num_rows(); ++r) {
    for (size_t c = 0; c < scaled.num_cols(); ++c) {
      scaled.features(r, c) = data.features(r, c) * 1000.0;
    }
  }
  GbdtClassifier a(GbdtConfig()), b(GbdtConfig());
  a.Train(data.features, data.labels, 2);
  b.Train(scaled.features, scaled.labels, 2);
  EXPECT_EQ(a.PredictBatch(data.features), b.PredictBatch(scaled.features));
}

TEST(GbdtDetails, HigherEtaFitsFasterEarly) {
  Dataset data = SmallBlobs(2, 5);
  ModelConfig slow = GbdtConfig();
  slow.xgb_rounds = 3;
  slow.xgb_eta = 0.05;
  ModelConfig fast = slow;
  fast.xgb_eta = 0.5;
  GbdtClassifier slow_model(slow), fast_model(fast);
  slow_model.Train(data.features, data.labels, 2);
  fast_model.Train(data.features, data.labels, 2);
  EXPECT_GE(EvaluateAccuracy(fast_model, data.features, data.labels),
            EvaluateAccuracy(slow_model, data.features, data.labels));
}

TEST(GbdtDetails, LargeMinChildWeightShrinksTrees) {
  Dataset data = SmallBlobs(2, 6);
  ModelConfig loose = GbdtConfig();
  loose.xgb_rounds = 1;
  loose.xgb_min_child_weight = 0.1;
  ModelConfig strict = loose;
  strict.xgb_min_child_weight = 30.0;
  GbdtClassifier loose_model(loose), strict_model(strict);
  loose_model.Train(data.features, data.labels, 2);
  strict_model.Train(data.features, data.labels, 2);
  EXPECT_EQ(loose_model.num_trees(), 1u);
  // Both trained; strict constraint cannot make trees larger. (Tree size
  // is internal; verify through behaviour: strict model is at most as
  // accurate on training data as the loose one.)
  EXPECT_LE(EvaluateAccuracy(strict_model, data.features, data.labels),
            EvaluateAccuracy(loose_model, data.features, data.labels) + 1e-9);
}

TEST(GbdtDetails, HandlesConstantFeatures) {
  Matrix features(50, 2);
  std::vector<int> labels(50);
  Rng rng(7);
  for (size_t r = 0; r < 50; ++r) {
    features(r, 0) = 3.0;  // constant.
    features(r, 1) = rng.Gaussian();
    labels[r] = features(r, 1) > 0 ? 1 : 0;
  }
  GbdtClassifier model(GbdtConfig());
  model.Train(features, labels, 2);
  EXPECT_GT(EvaluateAccuracy(model, features, labels), 0.95);
}

TEST(GbdtDetails, HandlesBinaryValuedFeatures) {
  // Post-Binarizer data: every feature is in {0, 1}.
  Matrix features(80, 3);
  std::vector<int> labels(80);
  Rng rng(8);
  for (size_t r = 0; r < 80; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      features(r, c) = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    }
    labels[r] = static_cast<int>(features(r, 0)) ^
                static_cast<int>(features(r, 1));  // XOR, tree-learnable.
  }
  GbdtClassifier model(GbdtConfig());
  model.Train(features, labels, 2);
  EXPECT_GT(EvaluateAccuracy(model, features, labels), 0.95);
}

TEST(GbdtDetails, DepthOneIsAdditiveStumps) {
  Dataset data = SmallBlobs(2, 9);
  ModelConfig config = GbdtConfig();
  config.xgb_max_depth = 1;
  config.xgb_rounds = 10;
  GbdtClassifier model(config);
  model.Train(data.features, data.labels, 2);
  EXPECT_EQ(model.num_trees(), 10u);
  EXPECT_GT(EvaluateAccuracy(model, data.features, data.labels), 0.8);
}

TEST(GbdtDetails, MoreBinsNeverWorseOnSeparableData) {
  Dataset data = SmallBlobs(2, 10);
  ModelConfig coarse = GbdtConfig();
  coarse.xgb_max_bins = 4;
  ModelConfig fine = GbdtConfig();
  fine.xgb_max_bins = 64;
  GbdtClassifier coarse_model(coarse), fine_model(fine);
  coarse_model.Train(data.features, data.labels, 2);
  fine_model.Train(data.features, data.labels, 2);
  EXPECT_GE(EvaluateAccuracy(fine_model, data.features, data.labels) + 0.02,
            EvaluateAccuracy(coarse_model, data.features, data.labels));
}

// ---------------------------------------------------------------------------
// Scoring view vs a pointer walk of the same node lists.

/// One node as SaveState writes it; feature -1 marks a leaf.
struct RefNode {
  int32_t feature = -1;
  double threshold = 0.0;
  int32_t left = -1;
  int32_t right = -1;
  double weight = 0.0;
};

RefNode Leaf(double weight) {
  RefNode node;
  node.weight = weight;
  return node;
}

RefNode Split(int32_t feature, double threshold, int32_t left,
              int32_t right) {
  RefNode node;
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return node;
}

/// A forest in GbdtClassifier's state-blob form.
struct RefForest {
  int32_t num_classes = 2;
  int32_t num_outputs = 1;
  uint64_t num_features = 3;
  std::vector<std::vector<RefNode>> trees;
};

std::string Blob(const RefForest& forest) {
  std::ostringstream out(std::ios::binary);
  WritePod<int32_t>(out, forest.num_classes);
  WritePod<int32_t>(out, forest.num_outputs);
  WritePod<uint64_t>(out, forest.num_features);
  WritePod<double>(out, 0.0);  // base score.
  WritePod<uint64_t>(out, forest.trees.size());
  for (const std::vector<RefNode>& tree : forest.trees) {
    WritePod<uint64_t>(out, tree.size());
    for (const RefNode& node : tree) {
      WritePod<int32_t>(out, node.feature);
      WritePod<double>(out, node.threshold);
      WritePod<int32_t>(out, node.left);
      WritePod<int32_t>(out, node.right);
      WritePod<double>(out, node.weight);
    }
  }
  return out.str();
}

RefForest ParseBlob(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  RefForest forest;
  double base_score = 0.0;
  uint64_t num_trees = 0;
  EXPECT_TRUE(ReadPod(in, &forest.num_classes) &&
              ReadPod(in, &forest.num_outputs) &&
              ReadPod(in, &forest.num_features) &&
              ReadPod(in, &base_score) && ReadPod(in, &num_trees));
  forest.trees.resize(num_trees);
  for (std::vector<RefNode>& tree : forest.trees) {
    uint64_t num_nodes = 0;
    EXPECT_TRUE(ReadPod(in, &num_nodes));
    tree.resize(num_nodes);
    for (RefNode& node : tree) {
      EXPECT_TRUE(ReadPod(in, &node.feature) && ReadPod(in, &node.threshold) &&
                  ReadPod(in, &node.left) && ReadPod(in, &node.right) &&
                  ReadPod(in, &node.weight));
    }
  }
  return forest;
}

std::vector<double> ReferenceScores(const RefForest& forest,
                                    const double* row) {
  std::vector<double> scores(forest.num_outputs, 0.0);
  for (size_t t = 0; t < forest.trees.size(); ++t) {
    const std::vector<RefNode>& nodes = forest.trees[t];
    int index = 0;
    while (nodes[index].feature >= 0) {
      index = row[nodes[index].feature] <= nodes[index].threshold
                  ? nodes[index].left
                  : nodes[index].right;
    }
    scores[t % forest.num_outputs] += nodes[index].weight;
  }
  return scores;
}

int ReferencePredict(const std::vector<double>& scores) {
  if (scores.size() == 1) return scores[0] > 0.0 ? 1 : 0;
  int best = 0;
  for (size_t k = 1; k < scores.size(); ++k) {
    if (scores[k] > scores[best]) best = static_cast<int>(k);
  }
  return best;
}

/// `rows` x `cols` rows mixing non-finite values, signed zeros and the
/// thresholds of the hand-built trees below with Gaussian noise.
Matrix ProbeRows(size_t rows, size_t cols, uint64_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> special = {
      std::numeric_limits<double>::quiet_NaN(), inf, -inf, -0.0, 0.0, 0.5,
      -1.0, 2.0, 1.0, 0.25, -0.5};
  Rng rng(seed);
  Matrix out(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      out(r, c) = r % 4 == 3 ? rng.Gaussian(0.0, 2.0)
                             : special[(r * 5 + c * 3) % special.size()];
    }
  }
  return out;
}

/// Expects every scoring entry point of `model` to equal the pointer walk
/// of `forest` bit for bit on `rows`.
void ExpectMatchesReference(const GbdtClassifier& model,
                            const RefForest& forest, const Matrix& rows) {
  std::vector<int> batch = model.PredictBatch(rows);
  ASSERT_EQ(batch.size(), rows.rows());
  for (size_t r = 0; r < rows.rows(); ++r) {
    const double* row = rows.RowPtr(r);
    std::vector<double> expected = ReferenceScores(forest, row);
    std::vector<double> scores = model.RawScores(row, rows.cols());
    ASSERT_EQ(scores.size(), expected.size());
    for (size_t k = 0; k < scores.size(); ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(scores[k]),
                std::bit_cast<uint64_t>(expected[k]))
          << "row " << r << " output " << k;
    }
    EXPECT_EQ(batch[r], ReferencePredict(expected)) << "row " << r;
    EXPECT_EQ(model.Predict(row, rows.cols()), batch[r]) << "row " << r;
  }
}

// Ragged trees over 3 features, children always after their parent.
// Leaves at depths 1, 2, 3, 3.
std::vector<RefNode> RightHeavy(double w) {
  return {Split(0, 0.5, 1, 2),  Leaf(w),         Split(1, -1.0, 3, 4),
          Leaf(w + 0.1),        Split(2, 2.0, 5, 6), Leaf(w - 0.3),
          Leaf(w + 0.7)};
}
// Leaves at depths 3, 3, 2, 1.
std::vector<RefNode> LeftHeavy(double w) {
  return {Split(2, 0.0, 1, 2),  Split(0, 1.0, 3, 4), Leaf(-w),
          Split(1, 0.25, 5, 6), Leaf(w * 0.1),       Leaf(w - 0.2),
          Leaf(w + 0.3)};
}
// Complete at depth 2.
std::vector<RefNode> Complete2(double w) {
  return {Split(1, 0.0, 1, 2), Split(0, -0.5, 3, 4), Split(2, 2.0, 5, 6),
          Leaf(w),             Leaf(-w),             Leaf(w * 0.3),
          Leaf(-w * 0.7)};
}
// A lone leaf: depth 0.
std::vector<RefNode> Stump(double w) { return {Leaf(w)}; }

RefForest RaggedForest(int num_classes) {
  RefForest forest;
  forest.num_classes = num_classes;
  forest.num_outputs = num_classes == 2 ? 1 : num_classes;
  if (num_classes == 2) {
    forest.trees = {RightHeavy(0.3), Stump(-0.1), LeftHeavy(0.7),
                    Complete2(0.2), RightHeavy(-0.4)};
  } else {
    forest.trees = {RightHeavy(0.3), LeftHeavy(-0.2), Stump(0.1),
                    Complete2(0.4),  RightHeavy(0.1), LeftHeavy(0.6)};
  }
  return forest;
}

TEST(GbdtDetails, RaggedForestsScoreLikeAPointerWalk) {
  for (int classes : {2, 3}) {
    SCOPED_TRACE(classes);
    const RefForest forest = RaggedForest(classes);
    const std::string blob = Blob(forest);
    GbdtClassifier model(GbdtConfig());
    std::istringstream in(blob, std::ios::binary);
    ASSERT_TRUE(model.LoadState(in).ok());
    // The loaded forest saves back to the same bytes.
    std::ostringstream saved(std::ios::binary);
    model.SaveState(saved);
    EXPECT_EQ(saved.str(), blob);
    // Row counts on both sides of the 64-row tile boundary.
    for (size_t rows : {1, 63, 64, 65, 257}) {
      SCOPED_TRACE(rows);
      ExpectMatchesReference(model, forest, ProbeRows(rows, 3, rows));
    }
  }
}

// Leaves whose sum rounds differently by order: 1.0 + 1e16 rounds to
// 1e16, so in tree order the first output sums to exactly 0, while the
// reverse order keeps the ±1. A kernel that adds a row's trees in any
// other order than t = 0..T-1 predicts another class for some rows.
TEST(GbdtDetails, TreeOrderDecidesTheRounding) {
  const std::vector<RefNode> plus_minus = {Split(0, 0.0, 1, 2), Leaf(1.0),
                                           Leaf(-1.0)};
  for (int classes : {2, 3}) {
    SCOPED_TRACE(classes);
    RefForest forest;
    forest.num_classes = classes;
    forest.num_outputs = classes == 2 ? 1 : classes;
    for (const std::vector<RefNode>& first :
         {plus_minus, Stump(1e16), Stump(-1e16)}) {
      forest.trees.push_back(first);
      for (int k = 1; k < forest.num_outputs; ++k) {
        forest.trees.push_back(Stump(0.0));
      }
    }
    GbdtClassifier model(GbdtConfig());
    std::istringstream in(Blob(forest), std::ios::binary);
    ASSERT_TRUE(model.LoadState(in).ok());
    for (size_t rows : {1, 64, 257}) {
      SCOPED_TRACE(rows);
      ExpectMatchesReference(model, forest, ProbeRows(rows, 3, rows));
    }
  }
}

TEST(GbdtDetails, TrainedForestsScoreLikeAPointerWalk) {
  for (int depth : {1, 6}) {
    for (int classes : {2, 3}) {
      SCOPED_TRACE(testing::Message() << "depth " << depth << " classes "
                                      << classes);
      Dataset data = SmallBlobs(classes, 20 + depth);
      ModelConfig config = GbdtConfig();
      config.xgb_max_depth = depth;
      GbdtClassifier model(config);
      model.Train(data.features, data.labels, classes);
      std::ostringstream out(std::ios::binary);
      model.SaveState(out);
      const RefForest forest = ParseBlob(out.str());
      ExpectMatchesReference(model, forest, data.features);
      ExpectMatchesReference(model, forest, ProbeRows(257, 5, depth));
    }
  }
}

// The shape autofp_serve scores in serve_bulk_dense: depth 4, 4 classes,
// 24 features, 30 rounds, at row counts around the 256-row shard and a
// whole 1024-row frame.
TEST(GbdtDetails, ServingShapeScoresLikeAPointerWalk) {
  SyntheticSpec spec;
  spec.name = "gbdt_serving";
  spec.family = SyntheticFamily::kNonlinearRings;
  spec.rows = 600;
  spec.cols = 24;
  spec.num_classes = 4;
  spec.seed = 47;
  spec.separation = 2.0;
  spec.label_noise = 0.05;
  const Dataset data = GenerateSynthetic(spec);
  ModelConfig config = GbdtConfig();
  config.xgb_max_depth = 4;
  config.xgb_rounds = 30;
  GbdtClassifier model(config);
  model.Train(data.features, data.labels, 4);
  std::ostringstream out(std::ios::binary);
  model.SaveState(out);
  const RefForest forest = ParseBlob(out.str());
  ASSERT_EQ(forest.trees.size(), 120u);
  for (size_t rows : {255, 256, 1024}) {
    SCOPED_TRACE(rows);
    // Training rows route through every split; every third row is a
    // probe row instead, carrying NaN, infinities and signed zeros.
    Matrix mixed = ProbeRows(rows, 24, rows);
    for (size_t r = 0; r < rows; ++r) {
      if (r % 3 == 0) continue;
      const double* src = data.features.RowPtr(r % data.features.rows());
      std::copy(src, src + 24, mixed.RowPtr(r));
    }
    ExpectMatchesReference(model, forest, mixed);
  }
}

// ---------------------------------------------------------------------------
// Hostile state blobs: typed errors, bounded memory.

Status LoadGbdt(const std::string& bytes, int max_depth = 4) {
  ModelConfig config = GbdtConfig();
  config.xgb_max_depth = max_depth;
  GbdtClassifier model(config);
  std::istringstream in(bytes, std::ios::binary);
  return model.LoadState(in);
}

RefForest OneSplit() {
  RefForest forest;
  forest.trees = {{Split(0, 0.0, 1, 2), Leaf(1.0), Leaf(-1.0)}};
  return forest;
}

/// A chain of `depth` splits (at even indices), each with a leaf on its
/// left and the next split on its right.
RefForest Chain(int depth) {
  RefForest forest;
  std::vector<RefNode> nodes;
  for (int d = 0; d < depth; ++d) {
    nodes.push_back(Split(0, d, 2 * d + 1, 2 * d + 2));
    nodes.push_back(Leaf(d));
  }
  nodes.push_back(Leaf(depth));
  forest.trees = {nodes};
  return forest;
}

TEST(GbdtDetails, LoadRejectsHostileTrees) {
  ASSERT_TRUE(LoadGbdt(Blob(OneSplit())).ok());

  auto expect_rejected = [](const RefForest& forest, const char* label,
                            int max_depth = 4) {
    Status status = LoadGbdt(Blob(forest), max_depth);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
  };
  RefForest self_loop = OneSplit();
  self_loop.trees[0][0].left = 0;
  expect_rejected(self_loop, "self-loop");

  RefForest back_edge = OneSplit();
  back_edge.trees[0][2] = Split(0, 1.0, 0, 1);
  expect_rejected(back_edge, "child before its parent");

  RefForest far_child = OneSplit();
  far_child.trees[0][0].right = 100000000;
  expect_rejected(far_child, "out-of-range child");

  RefForest negative_child = OneSplit();
  negative_child.trees[0][0].left = -7;
  expect_rejected(negative_child, "negative child");

  RefForest bad_feature = OneSplit();
  bad_feature.trees[0][0].feature = 3;  // num_features is 3.
  expect_rejected(bad_feature, "feature index out of range");

  EXPECT_TRUE(LoadGbdt(Blob(Chain(5)), 5).ok());
  expect_rejected(Chain(5), "tree deeper than xgb_max_depth", 4);
  expect_rejected(Chain(2), "xgb_max_depth above the cap",
                  GbdtClassifier::kMaxTreeDepth + 1);

  RefForest wrong_outputs = OneSplit();
  wrong_outputs.num_outputs = 2;  // binary has one output.
  expect_rejected(wrong_outputs, "num_outputs for binary");
  RefForest multi = RaggedForest(3);
  multi.num_outputs = 1;
  expect_rejected(multi, "num_outputs for 3 classes");
  multi = RaggedForest(3);
  multi.trees.pop_back();
  expect_rejected(multi, "num_trees not a multiple of num_outputs");

  RefForest empty_tree = OneSplit();
  empty_tree.trees[0].clear();
  expect_rejected(empty_tree, "tree without nodes");
}

TEST(GbdtDetails, LoadBoundsMemoryByTheBytesPresent) {
  // A declared count of 2^28 nodes (or trees) with one record present.
  const uint64_t huge = kMaxSerializedElements;
  for (bool huge_trees : {false, true}) {
    std::ostringstream out(std::ios::binary);
    WritePod<int32_t>(out, 2);
    WritePod<int32_t>(out, 1);
    WritePod<uint64_t>(out, 3);
    WritePod<double>(out, 0.0);
    WritePod<uint64_t>(out, huge_trees ? huge : 1);
    WritePod<uint64_t>(out, huge_trees ? 1 : huge);
    WritePod<int32_t>(out, -1);
    WritePod<double>(out, 0.0);
    WritePod<int32_t>(out, -1);
    WritePod<int32_t>(out, -1);
    WritePod<double>(out, 0.5);
    const std::string bytes = out.str();
    g_largest_allocation = 0;
    Status status = LoadGbdt(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << huge_trees;
    EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20) << huge_trees;
  }
}

/// A classifier whose state is a fixed byte string: writes hostile blobs
/// into otherwise valid artifacts.
class FixedStateClassifier : public Classifier {
 public:
  explicit FixedStateClassifier(std::string state)
      : state_(std::move(state)) {}
  void Train(const Matrix&, const std::vector<int>&, int) override {}
  int Predict(const double*, size_t) const override { return 0; }
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<FixedStateClassifier>(state_);
  }
  void SaveState(std::ostream& out) const override {
    out.write(state_.data(), static_cast<std::streamsize>(state_.size()));
  }
  Status LoadState(std::istream&) override { return Status::OK(); }

 private:
  std::string state_;
};

/// Swaps `hostile` in for the equally long `valid` state blob inside the
/// artifact at `path` and re-seals every section CRC, so the framing is
/// sound and only the state loader can reject the file. WriteArtifact
/// refuses to write such a state itself, hence the splice.
void SpliceStateBlob(const std::string& path, const std::string& valid,
                     const std::string& hostile) {
  ASSERT_EQ(valid.size(), hostile.size());
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes).ok());
  const size_t at = bytes.find(valid);
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, valid.size(), hostile);
  // Preamble: magic, version, section count, CRC (4 bytes each); then
  // sections of id | payload_len | payload | crc(id, len, payload).
  size_t pos = 16;
  while (pos < bytes.size()) {
    uint32_t length = 0;
    std::memcpy(&length, bytes.data() + pos + 4, sizeof(length));
    const size_t frame = 8 + static_cast<size_t>(length);
    const uint32_t crc = Crc32(bytes.data() + pos, frame);
    std::memcpy(bytes.data() + pos + frame, &crc, sizeof(crc));
    pos += frame + sizeof(crc);
  }
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
}

TEST(GbdtDetails, ArtifactWithHostileForestIsBadState) {
  Matrix train(40, 3);
  for (size_t r = 0; r < train.rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) train(r, c) = 0.5 * r + c;
  }
  FittedPipeline pipeline = FittedPipeline::Fit(
      PipelineSpec::FromKinds({PreprocessorKind::kStandardScaler}), train);
  ArtifactSchema schema;
  schema.dataset_name = "hostile";
  schema.input_cols = 3;
  schema.num_classes = 2;
  schema.transformed_cols = 3;
  const ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  const std::string path = ::testing::TempDir() + "/gbdt_hostile.afpa";

  // The same write path with a valid forest reads back: the CRCs and
  // sections are sound, so the rejection below is the model loader's.
  ASSERT_TRUE(WriteArtifact(path, schema, pipeline, config,
                            FixedStateClassifier(Blob(OneSplit())))
                  .ok());
  ASSERT_TRUE(ReadArtifact(path).ok());

  RefForest self_loop = OneSplit();
  self_loop.trees[0][0].right = 0;
  EXPECT_EQ(WriteArtifact(path, schema, pipeline, config,
                          FixedStateClassifier(Blob(self_loop)))
                .code(),
            StatusCode::kInvalidArgument);
  SpliceStateBlob(path, Blob(OneSplit()), Blob(self_loop));
  ArtifactReadResult read = ReadArtifact(path);
  EXPECT_EQ(read.error, ArtifactError::kBadState)
      << ArtifactErrorName(read.error) << ": " << read.status.ToString();
}

// ---------------------------------------------------------------------------
// DecisionTreeClassifier::LoadState: the same guarantees.

struct DtNode {
  int32_t feature = -1;
  int32_t left = -1;
  int32_t right = -1;
  int32_t label = 0;
};

std::string DtBlob(const std::vector<DtNode>& nodes,
                   uint64_t declared = 0) {
  std::ostringstream out(std::ios::binary);
  WritePod<uint64_t>(out, declared != 0 ? declared : nodes.size());
  for (const DtNode& node : nodes) {
    WritePod<int32_t>(out, node.feature);
    WritePod<double>(out, 0.0);  // threshold.
    WritePod<int32_t>(out, node.left);
    WritePod<int32_t>(out, node.right);
    WritePod<int32_t>(out, node.label);
  }
  return out.str();
}

Status LoadDecisionTree(const std::string& bytes) {
  DecisionTreeClassifier tree;
  std::istringstream in(bytes, std::ios::binary);
  return tree.LoadState(in);
}

TEST(DecisionTreeState, LoadRejectsHostileBlobs) {
  const std::vector<DtNode> valid = {{0, 1, 2, 0}, {-1, -1, -1, 0},
                                     {-1, -1, -1, 1}};
  {
    DecisionTreeClassifier tree;
    std::istringstream in(DtBlob(valid), std::ios::binary);
    ASSERT_TRUE(tree.LoadState(in).ok());
    const double below = -1.0, above = 1.0;
    EXPECT_EQ(tree.Predict(&below, 1), 0);
    EXPECT_EQ(tree.Predict(&above, 1), 1);
  }
  auto expect_rejected = [](std::vector<DtNode> nodes, const char* label) {
    EXPECT_EQ(LoadDecisionTree(DtBlob(nodes)).code(),
              StatusCode::kInvalidArgument)
        << label;
  };
  std::vector<DtNode> nodes = valid;
  nodes[0].left = 0;
  expect_rejected(nodes, "self-loop");
  nodes = valid;
  nodes[2] = {0, 0, 1, 1};
  expect_rejected(nodes, "cycle through the root");
  nodes = valid;
  nodes[0].right = 1;
  expect_rejected(nodes, "node reached twice");
  nodes = valid;
  nodes[0].right = 100000000;
  expect_rejected(nodes, "out-of-range child");
  nodes = valid;
  nodes[0].left = -3;
  expect_rejected(nodes, "negative child");

  g_largest_allocation = 0;
  Status status = LoadDecisionTree(
      DtBlob({{-1, -1, -1, 0}}, kMaxSerializedElements));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20);
}

// ---------------------------------------------------------------------------
// QuantileTransformer::LoadState: the same guarantees for its tables.

std::string QuantileBlob(int32_t effective,
                         const std::vector<std::vector<double>>& columns,
                         uint64_t declared = 0) {
  std::ostringstream out(std::ios::binary);
  WritePod<int32_t>(out, effective);
  WritePod<uint64_t>(out, declared != 0 ? declared : columns.size());
  for (const std::vector<double>& column : columns) WriteVec(out, column);
  return out.str();
}

Status LoadQuantile(const std::string& bytes) {
  QuantileTransformer step(
      PreprocessorConfig::Defaults(PreprocessorKind::kQuantileTransformer));
  std::istringstream in(bytes, std::ios::binary);
  return step.LoadState(in);
}

TEST(QuantileState, LoadRejectsHostileTables) {
  const std::vector<double> valid = {-1.0, 0.0, 0.0, 2.0};
  {
    QuantileTransformer step(
        PreprocessorConfig::Defaults(PreprocessorKind::kQuantileTransformer));
    std::istringstream in(QuantileBlob(4, {valid, valid}), std::ios::binary);
    ASSERT_TRUE(step.LoadState(in).ok());
    EXPECT_EQ(step.effective_quantiles(), 4);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    std::vector<double> column;
    const char* label;
  } hostile[] = {
      {{}, "empty column"},
      {{0.0}, "1-entry column"},
      {{-1.0, 0.0, 2.0}, "wrong-length column"},
      {{-1.0, 0.0, 2.0, 2.0, 3.0}, "over-long column"},
      {{2.0, 0.0, 0.0, -1.0}, "descending column"},
      {{-1.0, nan, 0.0, 2.0}, "NaN inside a column"},
      {{nan, 0.0, 1.0, 2.0}, "NaN leading a column"},
      {{-1.0, 0.0, 1.0, nan}, "NaN ending a column"},
  };
  for (const auto& [column, label] : hostile) {
    // The hostile column follows a valid one, so a loader that stops
    // checking after the first column would pass it.
    EXPECT_EQ(LoadQuantile(QuantileBlob(4, {valid, column})).code(),
              StatusCode::kInvalidArgument)
        << label;
  }
}

TEST(QuantileState, LoadBoundsMemoryByTheBytesPresent) {
  // A declared count of 2^28 columns with one column present.
  g_largest_allocation = 0;
  Status status = LoadQuantile(
      QuantileBlob(2, {{0.0, 1.0}}, kMaxSerializedElements));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_LT(g_largest_allocation.load(), size_t{1} << 20);
}

/// A Quantile step whose state is a fixed byte string: writes hostile
/// tables into otherwise valid artifacts.
class FixedStateQuantile : public QuantileTransformer {
 public:
  FixedStateQuantile(const PreprocessorConfig& config, std::string state)
      : QuantileTransformer(config), state_(std::move(state)) {}
  void SaveState(std::ostream& out) const override {
    out.write(state_.data(), static_cast<std::streamsize>(state_.size()));
  }

 private:
  std::string state_;
};

TEST(QuantileState, ArtifactWithHostileTableIsBadState) {
  const PipelineSpec spec =
      PipelineSpec::FromKinds({PreprocessorKind::kQuantileTransformer});
  ArtifactSchema schema;
  schema.dataset_name = "hostile";
  schema.input_cols = 3;
  schema.num_classes = 2;
  schema.transformed_cols = 3;
  const ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  const std::string path = ::testing::TempDir() + "/quantile_hostile.afpa";
  auto write = [&](const std::vector<std::vector<double>>& columns) {
    std::vector<std::unique_ptr<Preprocessor>> steps;
    steps.push_back(std::make_unique<FixedStateQuantile>(
        spec.steps[0], QuantileBlob(3, columns)));
    return WriteArtifact(path, schema,
                         FittedPipeline::FromFittedSteps(spec, std::move(steps)),
                         config, FixedStateClassifier(Blob(OneSplit())));
  };

  // The same write path with valid tables reads back: the CRCs and
  // sections are sound, so the rejection below is the step loader's.
  const std::vector<double> valid = {0.0, 1.0, 2.0};
  ASSERT_TRUE(write({valid, valid, valid}).ok());
  ASSERT_TRUE(ReadArtifact(path).ok());

  const std::vector<double> descending = {2.0, 1.0, 0.0};
  EXPECT_EQ(write({valid, descending, valid}).code(),
            StatusCode::kInvalidArgument);
  SpliceStateBlob(path, QuantileBlob(3, {valid, valid, valid}),
                  QuantileBlob(3, {valid, descending, valid}));
  ArtifactReadResult read = ReadArtifact(path);
  EXPECT_EQ(read.error, ArtifactError::kBadState)
      << ArtifactErrorName(read.error) << ": " << read.status.ToString();
}

}  // namespace
}  // namespace autofp
