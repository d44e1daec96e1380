#include "ml/model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/lda.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "nn/param.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace autofp {
namespace {

/// Linearly separable 2-class blobs.
Dataset Blobs(size_t n, int classes, uint64_t seed, double separation = 4.0) {
  SyntheticSpec spec;
  spec.name = "blobs";
  spec.family = SyntheticFamily::kScaledBlobs;
  spec.rows = n;
  spec.cols = 6;
  spec.num_classes = classes;
  spec.seed = seed;
  spec.separation = separation;
  spec.label_noise = 0.0;
  return GenerateSynthetic(spec);
}

/// Scaled-to-unit version of the same blobs (kind to LR/MLP).
Dataset NormalizedBlobs(size_t n, int classes, uint64_t seed) {
  Dataset d = Blobs(n, classes, seed);
  for (size_t c = 0; c < d.num_cols(); ++c) {
    std::vector<double> column = d.features.Column(c);
    double mean = 0.0, sq = 0.0;
    for (double v : column) mean += v;
    mean /= column.size();
    for (double v : column) sq += (v - mean) * (v - mean);
    double stddev = std::sqrt(sq / column.size());
    if (stddev == 0.0) stddev = 1.0;
    for (double& v : column) v = (v - mean) / stddev;
    d.features.SetColumn(c, column);
  }
  return d;
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1, 1}, {1, 0, 0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

class DownstreamModels : public ::testing::TestWithParam<ModelKind> {};

TEST_P(DownstreamModels, LearnsSeparableBinary) {
  Dataset train = NormalizedBlobs(300, 2, 21);
  Dataset test = NormalizedBlobs(100, 2, 21);  // same distribution.
  auto model = MakeClassifier(ModelConfig::Defaults(GetParam()));
  model->Train(train.features, train.labels, 2);
  double accuracy = EvaluateAccuracy(*model, test.features, test.labels);
  EXPECT_GT(accuracy, 0.9) << ModelKindName(GetParam());
}

TEST_P(DownstreamModels, LearnsMultiClass) {
  Dataset train = NormalizedBlobs(400, 4, 22);
  auto model = MakeClassifier(ModelConfig::Defaults(GetParam()));
  model->Train(train.features, train.labels, 4);
  double accuracy = EvaluateAccuracy(*model, train.features, train.labels);
  EXPECT_GT(accuracy, 0.85) << ModelKindName(GetParam());
}

TEST_P(DownstreamModels, CloneIsIndependent) {
  Dataset train = NormalizedBlobs(100, 2, 23);
  auto model = MakeClassifier(ModelConfig::Defaults(GetParam()));
  auto clone = model->Clone();
  model->Train(train.features, train.labels, 2);
  // Clone was created before training: it must not be trained.
  clone->Train(train.features, train.labels, 2);
  EXPECT_EQ(clone->PredictBatch(train.features).size(), train.num_rows());
}

TEST_P(DownstreamModels, DeterministicTraining) {
  Dataset train = NormalizedBlobs(150, 3, 24);
  auto a = MakeClassifier(ModelConfig::Defaults(GetParam()));
  auto b = MakeClassifier(ModelConfig::Defaults(GetParam()));
  a->Train(train.features, train.labels, 3);
  b->Train(train.features, train.labels, 3);
  EXPECT_EQ(a->PredictBatch(train.features), b->PredictBatch(train.features));
}

INSTANTIATE_TEST_SUITE_P(Kinds, DownstreamModels,
                         ::testing::Values(ModelKind::kLogisticRegression,
                                           ModelKind::kXgboost,
                                           ModelKind::kMlp),
                         [](const ::testing::TestParamInfo<ModelKind>& info) {
                           return ModelKindName(info.param);
                         });

TEST(LogisticRegression, ScaleSensitivity) {
  // The motivating property of the paper: LR trained on wildly-scaled
  // features underperforms LR trained on standardized features.
  Dataset raw = Blobs(400, 2, 25, 2.0);
  Dataset scaled = NormalizedBlobs(400, 2, 25);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kLogisticRegression);
  auto raw_model = MakeClassifier(config);
  auto scaled_model = MakeClassifier(config);
  raw_model->Train(raw.features, raw.labels, 2);
  scaled_model->Train(scaled.features, scaled.labels, 2);
  double raw_accuracy = EvaluateAccuracy(*raw_model, raw.features, raw.labels);
  double scaled_accuracy =
      EvaluateAccuracy(*scaled_model, scaled.features, scaled.labels);
  EXPECT_GT(scaled_accuracy, raw_accuracy + 0.03);
}

/// One row of an LR epoch's forward phase as a row loop computes it: the
/// logits w[d] + Dot(w, row, d), the softmax from the max logit (strict >
/// from -1e300) and the residuals, scaled by inv_n, into residuals[k].
void RowLoopResiduals(const double* row, size_t d, int label,
                      const double* weights, int num_classes, double inv_n,
                      double* residuals) {
  const size_t stride = d + 1;
  std::vector<double> logits(num_classes);
  std::vector<double> probs(num_classes);
  double max_logit = -1e300;
  for (int k = 0; k < num_classes; ++k) {
    const double* w = weights + k * stride;
    const double sum = w[d] + simd::Dot(w, row, d);
    logits[k] = sum;
    if (sum > max_logit) max_logit = sum;
  }
  double denom = 0.0;
  for (int k = 0; k < num_classes; ++k) {
    probs[k] = std::exp(std::clamp(logits[k] - max_logit, -500.0, 0.0));
    denom += probs[k];
  }
  for (int k = 0; k < num_classes; ++k) {
    residuals[k] = probs[k] / denom - (label == k ? 1.0 : 0.0);
    residuals[k] *= inv_n;
  }
}

/// LogisticRegression::Train as it was before its epochs split into a
/// row-block forward phase and a gradient sum over class and column-range
/// items: one loop per row computes the row's residuals, then adds them
/// into the gradient. Returns the SaveState bytes it would have written.
std::string RowLoopLrState(const ModelConfig& config, const Matrix& features,
                           const std::vector<int>& labels, int num_classes) {
  const size_t d = features.cols();
  const size_t n = features.rows();
  const size_t stride = d + 1;
  Param params;
  params.Resize(static_cast<size_t>(num_classes) * stride);
  AdamConfig adam;
  adam.learning_rate = config.lr_step;
  std::vector<double> residuals(num_classes);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (int epoch = 0; epoch < config.lr_epochs; ++epoch) {
    params.ZeroGrad();
    for (size_t r = 0; r < n; ++r) {
      const double* row = features.RowPtr(r);
      RowLoopResiduals(row, d, labels[r], params.value.data(), num_classes,
                       inv_n, residuals.data());
      for (int k = 0; k < num_classes; ++k) {
        const double residual = residuals[k];
        if (residual == 0.0) continue;
        double* g = params.grad.data() + k * stride;
        simd::Axpy(residual, row, g, d);
        g[d] += residual;
      }
    }
    if (config.lr_l2 > 0.0) {
      for (int k = 0; k < num_classes; ++k) {
        double* g = params.grad.data() + k * stride;
        const double* w = params.value.data() + k * stride;
        simd::Axpy(config.lr_l2, w, g, d);
      }
    }
    params.AdamStep(adam, epoch + 1);
  }
  std::ostringstream out;
  WritePod<int32_t>(out, num_classes);
  WritePod<uint64_t>(out, d);
  WriteVec(out, params.value);
  return out.str();
}

std::string TrainedLrState(const ModelConfig& config, const Matrix& features,
                           const std::vector<int>& labels, int num_classes) {
  LogisticRegression model(config);
  model.Train(features, labels, num_classes);
  std::ostringstream out;
  model.SaveState(out);
  return out.str();
}

/// Requires the SaveState bytes of today's Train to equal the row loop's,
/// trained plain, alone on a 4-thread pool with three idle workers to take
/// row blocks and gradient items, and as four concurrent fits that compete
/// for helpers. The widths give gradient ranges of whole vectors, ragged
/// last ranges and ranges narrower than one vector, over 2 to 5 classes.
/// The row counts leave 0 to 3 rows in the forward phase's last tile.
void ExpectTrainsMatchTheRowLoop() {
  ThreadPool pool(4);
  struct Shape {
    size_t n;
    double wide;  ///< the scale of the last column.
  };
  // 1300 rows is two full 512-row blocks and a partial third. A last
  // column near 1e300 gives it a gradient near 1e299, whose square
  // overflows Adam's second moment to Inf, so its weight stays 0 and the
  // logits stay finite; ExpectForwardMatchesTheRowLoop below drives them
  // off the finite range.
  const Shape shapes[] = {{1, 100.0},    {2, 100.0},    {3, 100.0},
                          {3, 1e300},    {1300, 100.0}, {1301, 100.0},
                          {1302, 100.0}, {1303, 100.0}, {1303, 1e300}};
  for (int classes : {2, 3, 4, 5}) {
    for (size_t d : {size_t{1}, size_t{5}, size_t{8}, size_t{9}, size_t{20}}) {
      for (double l2 : {0.0, 1e-4}) {
        for (const auto [n, wide] : shapes) {
          Rng rng(41 + classes + n + 100 * d);
          Matrix features(n, d);
          std::vector<int> labels(n);
          for (size_t r = 0; r < n; ++r) {
            for (size_t c = 0; c < d; ++c) features(r, c) = rng.Gaussian();
            // A wide column drives some softmaxes to exactly 1, so some
            // residuals are exactly 0 and skip the gradient.
            features(r, d - 1) *= wide;
            labels[r] = features(r, 0) + 0.5 * rng.Gaussian() > 0.0
                            ? classes - 1
                            : rng.UniformInt(0, classes - 2);
          }
          ModelConfig config =
              ModelConfig::Defaults(ModelKind::kLogisticRegression);
          config.lr_l2 = l2;
          const std::string reference =
              RowLoopLrState(config, features, labels, classes);
          const std::string where =
              std::to_string(classes) + " classes, " + std::to_string(d) +
              " columns, l2 " + std::to_string(l2) + ", n " +
              std::to_string(n) + ", wide " + std::to_string(wide);
          EXPECT_TRUE(TrainedLrState(config, features, labels, classes) ==
                      reference)
              << where << ", plain";
          for (size_t fits : {size_t{1}, size_t{4}}) {
            std::vector<std::string> states(fits);
            pool.ParallelFor(fits, [&](size_t i, int) {
              states[i] = TrainedLrState(config, features, labels, classes);
            });
            for (size_t i = 0; i < fits; ++i) {
              EXPECT_TRUE(states[i] == reference)
                  << where << ", " << fits << " fits in a pool, fit " << i;
            }
          }
        }
      }
    }
  }
}

TEST(LrEpochBlocks, TrainsMatchTheRowLoop) { ExpectTrainsMatchTheRowLoop(); }

TEST(LrEpochBlocks, ScalarTrainsMatchTheScalarRowLoop) {
  simd::ScopedForceScalar scalar(true);
  ExpectTrainsMatchTheRowLoop();
}

/// Requires Forward's residuals to equal RowLoopResiduals' byte for
/// byte where the logits leave the finite range. Column 0 weighs +1e10 in
/// even classes and -1e10 in odd ones, and with d >= 2 the last column
/// -1e10 in all, so in every other tile of four rows a row has:
///   - +Inf and -Inf logits (x0 = +-1e300), so the max is infinite and
///     every z is NaN or -Inf;
///   - Inf - Inf = NaN logits (x0 = x_last = 1e300);
///   - every logit near -1e301 (x_last = 1e291), under the -1e300 start
///     of the max, so no z is 0;
///   - a NaN cell.
/// The other tiles hold finite rows only. Each logit has at most one NaN
/// source, so its NaN payload does not depend on the order of an add. A
/// second pass, on finite rows only, gives each class's column-0 weight a
/// NaN of its own payload, so every logit is NaN, no z is 0, and each
/// residual keeps its class's payload only on the per-entry exp path.
void ExpectForwardMatchesTheRowLoop(int classes, size_t d, size_t n,
                                    bool nan_weights) {
  Rng rng(7 + classes + 10 * d + 100 * n);
  const size_t stride = d + 1;
  std::vector<double> weights(classes * stride);
  for (int k = 0; k < classes; ++k) {
    for (size_t j = 0; j < stride; ++j) {
      weights[k * stride + j] = rng.Uniform(-0.5, 0.5);
    }
    weights[k * stride] = k % 2 == 0 ? 1e10 : -1e10;
    if (d >= 2) weights[k * stride + d - 1] = -1e10;
    if (nan_weights) {
      weights[k * stride] =
          std::bit_cast<double>(0x7FF8000000000000ull | (k + 1));
    }
  }
  Matrix features(n, d);
  std::vector<int> labels(n);
  for (size_t r = 0; r < n; ++r) {
    labels[r] = static_cast<int>(r % classes);
    for (size_t c = 0; c < d; ++c) features(r, c) = rng.Gaussian();
    if (nan_weights || (r / 4) % 2 == 0) continue;
    switch (r % 5) {
      case 0: features(r, 0) = 1e300; break;
      case 1: features(r, 0) = -1e300; break;
      case 2:
        features(r, 0) = 1e300;
        features(r, d - 1) = 1e300;
        break;
      case 3: features(r, d - 1) = d >= 2 ? 1e291 : -1e291; break;
      default:
        features(r, d - 1) = std::numeric_limits<double>::quiet_NaN();
        break;
    }
  }
  std::vector<double> expected(n * classes);
  for (size_t r = 0; r < n; ++r) {
    RowLoopResiduals(features.RowPtr(r), d, labels[r], weights.data(),
                     classes, 1.0 / static_cast<double>(n),
                     expected.data() + r * classes);
  }
  std::vector<double> actual(n * classes);
  LogisticRegression::Forward(features, labels, weights.data(), classes,
                              actual.data());
  EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                        n * classes * sizeof(double)),
            0)
      << classes << " classes, " << d << " columns, n " << n
      << (nan_weights ? ", NaN weights" : "");
}

void ExpectForwardMatchesTheRowLoopOffTheFiniteRange() {
  for (int classes : {2, 3}) {
    for (size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                     size_t{8}, size_t{13}}) {
      for (size_t n : {size_t{1}, size_t{5}, size_t{10}, size_t{23}}) {
        for (bool nan_weights : {false, true}) {
          ExpectForwardMatchesTheRowLoop(classes, d, n, nan_weights);
        }
      }
    }
  }
}

TEST(LrEpochBlocks, ForwardMatchesTheRowLoopOffTheFiniteRange) {
  ExpectForwardMatchesTheRowLoopOffTheFiniteRange();
}

TEST(LrEpochBlocks, ScalarForwardMatchesTheScalarRowLoopOffTheFiniteRange) {
  simd::ScopedForceScalar scalar(true);
  ExpectForwardMatchesTheRowLoopOffTheFiniteRange();
}

TEST(Gbdt, ScaleInvarianceOfTrees) {
  // Monotone per-feature rescaling should barely change GBDT accuracy.
  Dataset raw = Blobs(400, 2, 26, 2.0);
  Dataset scaled = NormalizedBlobs(400, 2, 26);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  auto raw_model = MakeClassifier(config);
  auto scaled_model = MakeClassifier(config);
  raw_model->Train(raw.features, raw.labels, 2);
  scaled_model->Train(scaled.features, scaled.labels, 2);
  double raw_accuracy = EvaluateAccuracy(*raw_model, raw.features, raw.labels);
  double scaled_accuracy =
      EvaluateAccuracy(*scaled_model, scaled.features, scaled.labels);
  EXPECT_NEAR(raw_accuracy, scaled_accuracy, 0.05);
}

TEST(Gbdt, MoreRoundsFitTighter) {
  Dataset train = NormalizedBlobs(300, 2, 27);
  ModelConfig small = ModelConfig::Defaults(ModelKind::kXgboost);
  small.xgb_rounds = 2;
  ModelConfig large = small;
  large.xgb_rounds = 40;
  auto small_model = MakeClassifier(small);
  auto large_model = MakeClassifier(large);
  small_model->Train(train.features, train.labels, 2);
  large_model->Train(train.features, train.labels, 2);
  EXPECT_GE(EvaluateAccuracy(*large_model, train.features, train.labels),
            EvaluateAccuracy(*small_model, train.features, train.labels));
}

TEST(Gbdt, TreeCountMatchesConfig) {
  Dataset binary = NormalizedBlobs(100, 2, 28);
  ModelConfig config = ModelConfig::Defaults(ModelKind::kXgboost);
  config.xgb_rounds = 5;
  GbdtClassifier model(config);
  model.Train(binary.features, binary.labels, 2);
  EXPECT_EQ(model.num_trees(), 5u);  // one tree per round (binary).
  Dataset multi = NormalizedBlobs(100, 3, 29);
  GbdtClassifier multi_model(config);
  multi_model.Train(multi.features, multi.labels, 3);
  EXPECT_EQ(multi_model.num_trees(), 15u);  // rounds * classes.
}

TEST(DecisionTree, PerfectlySplitsAxisAlignedData) {
  Matrix features = {{1.0}, {2.0}, {3.0}, {10.0}, {11.0}, {12.0}};
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  DecisionTreeClassifier tree;
  tree.Train(features, labels, 2);
  EXPECT_EQ(tree.depth(), 1);
  double v0 = 2.0, v1 = 11.5;
  EXPECT_EQ(tree.Predict(&v0, 1), 0);
  EXPECT_EQ(tree.Predict(&v1, 1), 1);
}

TEST(DecisionTree, DepthLimitRespected) {
  Dataset train = NormalizedBlobs(200, 2, 30);
  TreeConfig config;
  config.max_depth = 2;
  DecisionTreeClassifier tree(config);
  tree.Train(train.features, train.labels, 2);
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecisionTree, PureNodeIsLeaf) {
  Matrix features = {{1.0}, {2.0}, {3.0}};
  std::vector<int> labels = {1, 1, 1};
  DecisionTreeClassifier tree;
  tree.Train(features, labels, 2);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(DecisionTreeRegressor, FitsStepFunction) {
  Matrix features = {{0.0}, {1.0}, {2.0}, {10.0}, {11.0}, {12.0}};
  std::vector<double> targets = {5.0, 5.0, 5.0, -3.0, -3.0, -3.0};
  DecisionTreeRegressor tree;
  tree.Train(features, targets);
  double lo = 1.0, hi = 11.0;
  EXPECT_DOUBLE_EQ(tree.Predict(&lo, 1), 5.0);
  EXPECT_DOUBLE_EQ(tree.Predict(&hi, 1), -3.0);
}

TEST(RandomForest, RegressionBeatsMeanBaseline) {
  Rng rng(31);
  Matrix features(200, 3);
  std::vector<double> targets(200);
  for (size_t r = 0; r < 200; ++r) {
    for (size_t c = 0; c < 3; ++c) features(r, c) = rng.Uniform(-1, 1);
    targets[r] = 2.0 * features(r, 0) - features(r, 1) +
                 0.1 * rng.Gaussian();
  }
  RandomForestRegressor forest;
  forest.Train(features, targets);
  double sse = 0.0, sse_mean = 0.0;
  double mean = 0.0;
  for (double t : targets) mean += t;
  mean /= targets.size();
  for (size_t r = 0; r < 200; ++r) {
    double prediction = forest.Predict(features.RowPtr(r), 3);
    sse += (prediction - targets[r]) * (prediction - targets[r]);
    sse_mean += (mean - targets[r]) * (mean - targets[r]);
  }
  EXPECT_LT(sse, 0.3 * sse_mean);
}

TEST(RandomForest, UncertaintyHigherOffDistribution) {
  Rng rng(32);
  Matrix features(150, 1);
  std::vector<double> targets(150);
  for (size_t r = 0; r < 150; ++r) {
    features(r, 0) = rng.Uniform(0.0, 1.0);
    targets[r] = std::sin(6.0 * features(r, 0));
  }
  RandomForestRegressor forest;
  forest.Train(features, targets);
  double inside = 0.5, outside = 5.0;
  auto p_in = forest.PredictWithUncertainty(&inside, 1);
  auto p_out = forest.PredictWithUncertainty(&outside, 1);
  EXPECT_GE(p_out.stddev, 0.0);
  EXPECT_TRUE(std::isfinite(p_in.mean));
}

TEST(Knn, OneNearestNeighborMemorizes) {
  Dataset train = NormalizedBlobs(100, 2, 33);
  KnnClassifier knn(1);
  knn.Train(train.features, train.labels, 2);
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(knn, train.features, train.labels), 1.0);
}

TEST(Knn, MajorityVote) {
  Matrix features = {{0.0}, {0.1}, {0.2}, {5.0}};
  std::vector<int> labels = {0, 0, 0, 1};
  KnnClassifier knn(3);
  knn.Train(features, labels, 2);
  double query = 0.15;
  EXPECT_EQ(knn.Predict(&query, 1), 0);
}

TEST(NaiveBayes, SeparatesGaussians) {
  Dataset train = NormalizedBlobs(300, 2, 34);
  GaussianNaiveBayes nb;
  nb.Train(train.features, train.labels, 2);
  EXPECT_GT(EvaluateAccuracy(nb, train.features, train.labels), 0.9);
}

TEST(Lda, SeparatesGaussians) {
  Dataset train = NormalizedBlobs(300, 3, 35);
  LdaClassifier lda;
  lda.Train(train.features, train.labels, 3);
  EXPECT_GT(EvaluateAccuracy(lda, train.features, train.labels), 0.85);
}

TEST(Lda, HandlesCollinearFeatures) {
  // Duplicate column: covariance is singular without regularization.
  Rng rng(36);
  Matrix features(100, 2);
  std::vector<int> labels(100);
  for (size_t r = 0; r < 100; ++r) {
    double v = rng.Gaussian(r % 2 == 0 ? -2.0 : 2.0);
    features(r, 0) = v;
    features(r, 1) = v;  // exact copy.
    labels[r] = static_cast<int>(r % 2);
  }
  LdaClassifier lda;
  lda.Train(features, labels, 2);
  EXPECT_GT(EvaluateAccuracy(lda, features, labels), 0.9);
}

TEST(CrossValidation, ReasonableScoreAndDeterminism) {
  Dataset data = NormalizedBlobs(200, 2, 37);
  double a = CrossValidationAccuracy(KnnClassifier(3), data, 5, 1);
  double b = CrossValidationAccuracy(KnnClassifier(3), data, 5, 1);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.8);
  EXPECT_LE(a, 1.0);
}

TEST(ModelConfig, ToStringMentionsKind) {
  EXPECT_NE(ModelConfig::Defaults(ModelKind::kXgboost).ToString().find("XGB"),
            std::string::npos);
}

}  // namespace
}  // namespace autofp
