#include "ml/decision_tree.h"

#include "util/serialize.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

namespace autofp {

namespace {

/// Candidate feature columns for a split: all of them, or a random subset
/// of size max_features when in random-forest mode.
std::vector<size_t> CandidateFeatures(size_t num_cols, int max_features,
                                      Rng* rng) {
  if (max_features <= 0 ||
      static_cast<size_t>(max_features) >= num_cols || rng == nullptr) {
    std::vector<size_t> all(num_cols);
    std::iota(all.begin(), all.end(), size_t{0});
    return all;
  }
  return rng->SampleWithoutReplacement(num_cols,
                                       static_cast<size_t>(max_features));
}

struct SplitCandidate {
  int feature = -1;
  double threshold = 0.0;
  double score = -std::numeric_limits<double>::infinity();
  bool valid() const { return feature >= 0; }
};

}  // namespace

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

void DecisionTreeClassifier::Train(const Matrix& features,
                                   const std::vector<int>& labels,
                                   int num_classes) {
  AUTOFP_CHECK_EQ(features.rows(), labels.size());
  AUTOFP_CHECK_GT(features.rows(), 0u);
  nodes_.clear();
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Build(features, labels, num_classes, &rows, 0, nullptr);
}

void DecisionTreeClassifier::TrainOnRows(const Matrix& features,
                                         const std::vector<int>& labels,
                                         int num_classes,
                                         const std::vector<size_t>& rows,
                                         Rng* rng) {
  AUTOFP_CHECK(!rows.empty());
  nodes_.clear();
  std::vector<size_t> mutable_rows = rows;
  Build(features, labels, num_classes, &mutable_rows, 0, rng);
}

int DecisionTreeClassifier::Build(const Matrix& features,
                                  const std::vector<int>& labels,
                                  int num_classes, std::vector<size_t>* rows,
                                  int depth, Rng* rng) {
  const size_t n = rows->size();
  std::vector<double> counts(num_classes, 0.0);
  for (size_t row : *rows) counts[labels[row]] += 1.0;
  int majority = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  auto make_leaf = [&]() {
    Node leaf;
    leaf.label = majority;
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size() - 1);
  };

  bool pure = counts[majority] == static_cast<double>(n);
  if (pure || n < config_.min_samples_split ||
      (config_.max_depth >= 0 && depth >= config_.max_depth)) {
    return make_leaf();
  }

  // Parent gini (unnormalized weighted form is enough for comparing gains).
  auto gini_sum = [&](const std::vector<double>& c, double total) {
    if (total <= 0.0) return 0.0;
    double sum_sq = 0.0;
    for (double v : c) sum_sq += v * v;
    return total - sum_sq / total;  // total * gini.
  };
  double parent_impurity = gini_sum(counts, static_cast<double>(n));

  SplitCandidate best;
  std::vector<std::pair<double, int>> sorted(n);
  std::vector<double> left_counts(num_classes);
  for (size_t feature : CandidateFeatures(features.cols(),
                                          config_.max_features, rng)) {
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = {features((*rows)[i], feature), labels[(*rows)[i]]};
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;
    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_total = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_counts[sorted[i].second] += 1.0;
      left_total += 1.0;
      if (sorted[i].first == sorted[i + 1].first) continue;
      if (left_total < config_.min_samples_leaf ||
          n - left_total < config_.min_samples_leaf) {
        continue;
      }
      std::vector<double> right_counts(num_classes);
      for (int k = 0; k < num_classes; ++k) {
        right_counts[k] = counts[k] - left_counts[k];
      }
      double impurity = gini_sum(left_counts, left_total) +
                        gini_sum(right_counts,
                                 static_cast<double>(n) - left_total);
      double gain = parent_impurity - impurity;
      if (gain > best.score) {
        best.score = gain;
        best.feature = static_cast<int>(feature);
        best.threshold = (sorted[i].first + sorted[i + 1].first) / 2.0;
      }
    }
  }

  if (!best.valid() || best.score <= 1e-12) return make_leaf();

  std::vector<size_t> left_rows, right_rows;
  for (size_t row : *rows) {
    if (features(row, best.feature) <= best.threshold) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();
  rows->clear();
  rows->shrink_to_fit();

  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.label = majority;
  nodes_.push_back(node);
  int index = static_cast<int>(nodes_.size() - 1);
  int left = Build(features, labels, num_classes, &left_rows, depth + 1, rng);
  int right =
      Build(features, labels, num_classes, &right_rows, depth + 1, rng);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

int DecisionTreeClassifier::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK(!nodes_.empty()) << "Predict before Train";
  // Root is always node 0 (Build pushes parents before children only for
  // leaves; the first node created by the outer call is the root when the
  // tree is a single leaf, otherwise the root split node is created first).
  int index = 0;
  while (nodes_[index].feature >= 0) {
    size_t feature = static_cast<size_t>(nodes_[index].feature);
    AUTOFP_CHECK_LT(feature, cols);
    index = row[feature] <= nodes_[index].threshold ? nodes_[index].left
                                                    : nodes_[index].right;
  }
  return nodes_[index].label;
}

int DecisionTreeClassifier::depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> walk = [&](int index) -> int {
    if (nodes_[index].feature < 0) return 0;
    return 1 + std::max(walk(nodes_[index].left), walk(nodes_[index].right));
  };
  return walk(0);
}

// ---------------------------------------------------------------------------
// Regressor
// ---------------------------------------------------------------------------

void DecisionTreeRegressor::Train(const Matrix& features,
                                  const std::vector<double>& targets) {
  AUTOFP_CHECK_EQ(features.rows(), targets.size());
  AUTOFP_CHECK_GT(features.rows(), 0u);
  nodes_.clear();
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Build(features, targets, &rows, 0, nullptr);
}

void DecisionTreeRegressor::TrainOnRows(const Matrix& features,
                                        const std::vector<double>& targets,
                                        const std::vector<size_t>& rows,
                                        Rng* rng) {
  AUTOFP_CHECK(!rows.empty());
  nodes_.clear();
  std::vector<size_t> mutable_rows = rows;
  Build(features, targets, &mutable_rows, 0, rng);
}

int DecisionTreeRegressor::Build(const Matrix& features,
                                 const std::vector<double>& targets,
                                 std::vector<size_t>* rows, int depth,
                                 Rng* rng) {
  const size_t n = rows->size();
  double sum = 0.0, sum_sq = 0.0;
  for (size_t row : *rows) {
    sum += targets[row];
    sum_sq += targets[row] * targets[row];
  }
  double mean = sum / static_cast<double>(n);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.value = mean;
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size() - 1);
  };

  double sse = sum_sq - sum * sum / static_cast<double>(n);
  if (sse <= 1e-12 || n < config_.min_samples_split ||
      (config_.max_depth >= 0 && depth >= config_.max_depth)) {
    return make_leaf();
  }

  SplitCandidate best;
  std::vector<std::pair<double, double>> sorted(n);
  for (size_t feature : CandidateFeatures(features.cols(),
                                          config_.max_features, rng)) {
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = {features((*rows)[i], feature), targets[(*rows)[i]]};
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_sum += sorted[i].second;
      if (sorted[i].first == sorted[i + 1].first) continue;
      double left_n = static_cast<double>(i + 1);
      double right_n = static_cast<double>(n) - left_n;
      if (left_n < config_.min_samples_leaf ||
          right_n < config_.min_samples_leaf) {
        continue;
      }
      double right_sum = sum - left_sum;
      // Maximizing sum of squared child means weighted by size minimizes
      // total SSE.
      double score =
          left_sum * left_sum / left_n + right_sum * right_sum / right_n;
      if (score > best.score) {
        best.score = score;
        best.feature = static_cast<int>(feature);
        best.threshold = (sorted[i].first + sorted[i + 1].first) / 2.0;
      }
    }
  }

  if (!best.valid()) return make_leaf();
  double gain = best.score - sum * sum / static_cast<double>(n);
  if (gain <= 1e-12) return make_leaf();

  std::vector<size_t> left_rows, right_rows;
  for (size_t row : *rows) {
    if (features(row, best.feature) <= best.threshold) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();
  rows->clear();
  rows->shrink_to_fit();

  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.value = mean;
  nodes_.push_back(node);
  int index = static_cast<int>(nodes_.size() - 1);
  int left = Build(features, targets, &left_rows, depth + 1, rng);
  int right = Build(features, targets, &right_rows, depth + 1, rng);
  nodes_[index].left = left;
  nodes_[index].right = right;
  return index;
}

double DecisionTreeRegressor::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK(!nodes_.empty()) << "Predict before Train";
  int index = 0;
  while (nodes_[index].feature >= 0) {
    size_t feature = static_cast<size_t>(nodes_[index].feature);
    AUTOFP_CHECK_LT(feature, cols);
    index = row[feature] <= nodes_[index].threshold ? nodes_[index].left
                                                    : nodes_[index].right;
  }
  return nodes_[index].value;
}

void DecisionTreeClassifier::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(!nodes_.empty()) << "SaveState before Train";
  WritePod<uint64_t>(out, nodes_.size());
  for (const Node& node : nodes_) {
    WritePod<int32_t>(out, node.feature);
    WritePod<double>(out, node.threshold);
    WritePod<int32_t>(out, node.left);
    WritePod<int32_t>(out, node.right);
    WritePod<int32_t>(out, node.label);
  }
}

Status DecisionTreeClassifier::LoadState(std::istream& in) {
  const Status malformed =
      Status::InvalidArgument("DecisionTreeClassifier: malformed state blob");
  uint64_t num_nodes = 0;
  if (!ReadPod(in, &num_nodes) || num_nodes == 0 ||
      num_nodes > kMaxSerializedElements) {
    return malformed;
  }
  // Nodes grow as their records arrive, as ReadElements does: the declared
  // count sizes at most one kReadChunkBytes chunk ahead.
  std::vector<Node> nodes;
  nodes.reserve(std::min<uint64_t>(num_nodes, kReadChunkBytes / sizeof(Node)));
  for (uint64_t i = 0; i < num_nodes; ++i) {
    Node node;
    if (!ReadPod(in, &node.feature) || !ReadPod(in, &node.threshold) ||
        !ReadPod(in, &node.left) || !ReadPod(in, &node.right) ||
        !ReadPod(in, &node.label)) {
      return malformed;
    }
    nodes.push_back(node);
  }
  // Every child Predict can follow is in range and reached once from the
  // root, so the walk from the root is a tree walk and always ends.
  std::vector<bool> reached(nodes.size(), false);
  std::vector<int> pending = {0};
  reached[0] = true;
  while (!pending.empty()) {
    const Node& node = nodes[pending.back()];
    pending.pop_back();
    if (node.feature < 0) continue;
    for (int child : {node.left, node.right}) {
      if (child < 0 || static_cast<uint64_t>(child) >= num_nodes ||
          reached[child]) {
        return malformed;
      }
      reached[child] = true;
      pending.push_back(child);
    }
  }
  nodes_ = std::move(nodes);
  return Status::OK();
}

}  // namespace autofp
