#include "ml/gbdt.h"

#include "util/serialize.h"
#include "util/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace autofp {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

int GbdtClassifier::Tree::Depth() const {
  std::vector<int> depth(nodes.size(), -1);
  depth[0] = 0;
  int deepest = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (depth[i] < 0) continue;  // unreachable from the root.
    deepest = std::max(deepest, depth[i]);
    if (nodes[i].feature < 0) continue;
    for (int child : {nodes[i].left, nodes[i].right}) {
      depth[child] = std::max(depth[child], depth[i] + 1);
    }
  }
  return deepest;
}

void GbdtClassifier::ScoringView::Append(const Tree& tree) {
  const int tree_depth = tree.Depth();
  const size_t width = size_t{1} << tree_depth;  // leaves; splits: width-1.
  const size_t base = leaf.size();
  offset.push_back(base);
  depth.push_back(tree_depth);
  feature.resize(base + width, 0);
  threshold.resize(base + width, 0.0);
  leaf.resize(base + width, 0.0);
  // A padding split keeps feature 0 and threshold 0: both its children
  // hold the same leaf, so where it sends a row does not matter.
  auto fill = [&](auto& self, int node, size_t heap, int level) -> void {
    const TreeNode& n = tree.nodes[node];
    if (level == tree_depth) {
      leaf[base + heap - (width - 1)] = n.weight;
      return;
    }
    const bool split = n.feature >= 0;
    if (split) {
      feature[base + heap] = n.feature;
      threshold[base + heap] = n.threshold;
    }
    self(self, split ? n.left : node, 2 * heap + 1, level + 1);
    self(self, split ? n.right : node, 2 * heap + 2, level + 1);
  };
  fill(fill, 0, 0, 0);
}

double GbdtClassifier::ScoringView::Score(size_t t, const double* row) const {
  const size_t base = offset[t];
  const int levels = depth[t];
  const int* split_feature = feature.data() + base;
  const double* split_threshold = threshold.data() + base;
  size_t index = 0;
  for (int level = 0; level < levels; ++level) {
    index = 2 * index + 1 +
            !(row[split_feature[index]] <= split_threshold[index]);
  }
  return leaf[base + index - ((size_t{1} << levels) - 1)];
}

void GbdtClassifier::ScoringView::AddTile(size_t t, const double* rows,
                                          size_t cols, size_t count,
                                          double* out, size_t stride) const {
  AUTOFP_CHECK_LE(count, kTileRows);
  const size_t base = offset[t];
  const int levels = depth[t];
  const int* split_feature = feature.data() + base;
  const double* split_threshold = threshold.data() + base;
  // Score's descent, one level for the whole tile at a time: a row's
  // loads wait on its own previous level, never on the other rows.
  size_t index[kTileRows] = {};
  for (int level = 0; level < levels; ++level) {
    for (size_t r = 0; r < count; ++r) {
      const size_t i = index[r];
      index[r] = 2 * i + 1 +
                 !(rows[r * cols + split_feature[i]] <= split_threshold[i]);
    }
  }
  const double* tree_leaf = leaf.data() + base;
  const size_t first_leaf = (size_t{1} << levels) - 1;
  for (size_t r = 0; r < count; ++r) {
    out[r * stride] += tree_leaf[index[r] - first_leaf];
  }
}

GbdtClassifier::Tree GbdtClassifier::BuildTree(
    const Matrix& features, const std::vector<std::vector<uint16_t>>& binned,
    const std::vector<double>& grad, const std::vector<double>& hess) {
  Tree tree;
  const double lambda = config_.xgb_lambda;
  const double eta = config_.xgb_eta;
  const size_t num_features = binned.size();

  struct WorkItem {
    std::vector<size_t> rows;
    int depth;
    int node_index;
  };

  auto leaf_weight = [&](double g, double h) {
    return -eta * g / (h + lambda);
  };

  // Root.
  std::vector<size_t> all_rows(grad.size());
  std::iota(all_rows.begin(), all_rows.end(), size_t{0});
  tree.nodes.emplace_back();
  std::vector<WorkItem> stack;
  stack.push_back({std::move(all_rows), 0, 0});

  while (!stack.empty()) {
    WorkItem item = std::move(stack.back());
    stack.pop_back();
    double g_total = 0.0, h_total = 0.0;
    for (size_t row : item.rows) {
      g_total += grad[row];
      h_total += hess[row];
    }
    TreeNode& node = tree.nodes[item.node_index];
    node.weight = leaf_weight(g_total, h_total);
    if (item.depth >= config_.xgb_max_depth || item.rows.size() < 2) continue;

    // Best histogram split across features. The (g, h) histogram is one
    // interleaved buffer reused across features and nodes: a bin's pair
    // shares a cache line, the zero-fill is vectorized, and the
    // per-feature allocations of the old two-array form are gone. The
    // accumulation order per bin is unchanged, so the resulting trees
    // are identical.
    double best_gain = 1e-10;
    int best_feature = -1;
    int best_bin = -1;
    const double parent_score = g_total * g_total / (h_total + lambda);
    for (size_t f = 0; f < num_features; ++f) {
      const size_t num_bins = bins_[f].size() + 1;
      if (num_bins < 2) continue;
      if (hist_.size() < 2 * num_bins) hist_.resize(2 * num_bins);
      simd::Fill(hist_.data(), 0.0, 2 * num_bins);
      const std::vector<uint16_t>& feature_bins = binned[f];
      for (size_t row : item.rows) {
        double* pair = hist_.data() + 2 * feature_bins[row];
        pair[0] += grad[row];
        pair[1] += hess[row];
      }
      double g_left = 0.0, h_left = 0.0;
      for (size_t b = 0; b + 1 < num_bins; ++b) {
        g_left += hist_[2 * b];
        h_left += hist_[2 * b + 1];
        double h_right = h_total - h_left;
        if (h_left < config_.xgb_min_child_weight ||
            h_right < config_.xgb_min_child_weight) {
          continue;
        }
        double g_right = g_total - g_left;
        double gain = g_left * g_left / (h_left + lambda) +
                      g_right * g_right / (h_right + lambda) - parent_score;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_bin = static_cast<int>(b);
        }
      }
    }
    if (best_feature < 0) continue;

    node.feature = best_feature;
    node.threshold = bins_[best_feature][best_bin];
    std::vector<size_t> left_rows, right_rows;
    const std::vector<uint16_t>& feature_bins = binned[best_feature];
    for (size_t row : item.rows) {
      if (feature_bins[row] <= static_cast<uint16_t>(best_bin)) {
        left_rows.push_back(row);
      } else {
        right_rows.push_back(row);
      }
    }
    item.rows.clear();
    item.rows.shrink_to_fit();
    tree.nodes.emplace_back();
    int left_index = static_cast<int>(tree.nodes.size() - 1);
    tree.nodes.emplace_back();
    int right_index = static_cast<int>(tree.nodes.size() - 1);
    tree.nodes[item.node_index].left = left_index;
    tree.nodes[item.node_index].right = right_index;
    stack.push_back({std::move(left_rows), item.depth + 1, left_index});
    stack.push_back({std::move(right_rows), item.depth + 1, right_index});
  }
  (void)features;
  return tree;
}

void GbdtClassifier::Train(const Matrix& features,
                           const std::vector<int>& labels, int num_classes) {
  AUTOFP_CHECK_EQ(features.rows(), labels.size());
  AUTOFP_CHECK_GE(num_classes, 2);
  AUTOFP_CHECK(config_.xgb_max_depth >= 0 &&
               config_.xgb_max_depth <= kMaxTreeDepth)
      << "xgb_max_depth " << config_.xgb_max_depth << " outside [0, "
      << kMaxTreeDepth << "]";
  num_classes_ = num_classes;
  num_outputs_ = num_classes == 2 ? 1 : num_classes;
  num_features_ = features.cols();
  trees_.clear();
  view_ = {};
  const size_t n = features.rows();

  // Quantile histogram bins per feature (computed once on training data).
  bins_.assign(num_features_, {});
  std::vector<std::vector<uint16_t>> binned(
      num_features_, std::vector<uint16_t>(n, 0));
  const int max_bins = std::max(config_.xgb_max_bins, 2);
  for (size_t f = 0; f < num_features_; ++f) {
    std::vector<double> column = features.Column(f);
    std::vector<double> sorted = column;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<double>& edges = bins_[f];
    if (static_cast<int>(sorted.size()) <= max_bins) {
      // One bin per distinct value; edge = value (left-inclusive).
      edges.assign(sorted.begin(), sorted.end() - (sorted.empty() ? 0 : 1));
    } else {
      for (int b = 1; b < max_bins; ++b) {
        size_t pos = sorted.size() * static_cast<size_t>(b) /
                     static_cast<size_t>(max_bins);
        edges.push_back(sorted[pos]);
      }
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
    for (size_t r = 0; r < n; ++r) {
      // bin index = count of edges strictly below the value, so that
      // "bin <= b" at training time is exactly "value <= edges[b]" — the
      // predicate the scoring view applies to raw feature values.
      binned[f][r] = static_cast<uint16_t>(
          simd::LowerBoundIndex(edges.data(), edges.size(), column[r]));
    }
  }

  std::vector<double> scores(n * num_outputs_, 0.0);
  std::vector<double> grad(n), hess(n);
  for (int round = 0; round < config_.xgb_rounds; ++round) {
    if (num_outputs_ == 1) {
      for (size_t i = 0; i < n; ++i) {
        double p = Sigmoid(scores[i]);
        grad[i] = p - (labels[i] == 1 ? 1.0 : 0.0);
        hess[i] = std::max(p * (1.0 - p), 1e-6);
      }
      trees_.push_back(BuildTree(features, binned, grad, hess));
      view_.Append(trees_.back());
      const size_t t = trees_.size() - 1;
      for (size_t i = 0; i < n; ++i) {
        // Tree routing on binned data must match value routing; use the
        // original features for consistency with prediction time.
        scores[i] += view_.Score(t, features.RowPtr(i));
      }
    } else {
      // Softmax probabilities for this round.
      std::vector<double> probs(n * num_outputs_);
      for (size_t i = 0; i < n; ++i) {
        const double* s = scores.data() + i * num_outputs_;
        double max_score = *std::max_element(s, s + num_outputs_);
        double denom = 0.0;
        for (int k = 0; k < num_outputs_; ++k) {
          probs[i * num_outputs_ + k] =
              std::exp(std::clamp(s[k] - max_score, -500.0, 0.0));
          denom += probs[i * num_outputs_ + k];
        }
        for (int k = 0; k < num_outputs_; ++k) {
          probs[i * num_outputs_ + k] /= denom;
        }
      }
      for (int k = 0; k < num_outputs_; ++k) {
        for (size_t i = 0; i < n; ++i) {
          double p = probs[i * num_outputs_ + k];
          grad[i] = p - (labels[i] == k ? 1.0 : 0.0);
          hess[i] = std::max(p * (1.0 - p), 1e-6);
        }
        trees_.push_back(BuildTree(features, binned, grad, hess));
        view_.Append(trees_.back());
        const size_t t = trees_.size() - 1;
        for (size_t i = 0; i < n; ++i) {
          scores[i * num_outputs_ + k] += view_.Score(t, features.RowPtr(i));
        }
      }
    }
  }
}

std::vector<double> GbdtClassifier::RawScores(const double* row,
                                              size_t cols) const {
  AUTOFP_CHECK_EQ(cols, num_features_);
  std::vector<double> scores(num_outputs_, 0.0);
  for (size_t t = 0; t < trees_.size(); ++t) {
    scores[t % num_outputs_] += view_.Score(t, row);
  }
  return scores;
}

int GbdtClassifier::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK(!trees_.empty()) << "Predict before Train";
  std::vector<double> scores = RawScores(row, cols);
  if (num_outputs_ == 1) return scores[0] > 0.0 ? 1 : 0;
  return static_cast<int>(std::max_element(scores.begin(), scores.end()) -
                          scores.begin());
}

std::vector<int> GbdtClassifier::PredictBatch(const Matrix& features) const {
  AUTOFP_CHECK(!trees_.empty()) << "Predict before Train";
  AUTOFP_CHECK_EQ(features.cols(), num_features_);
  // Tree-major over row tiles: every tree scores all rows of a tile
  // before the next tree, so its nodes stay in L1. Each row still adds
  // its trees in order t = 0..T-1, so the scores equal RawScores bit for
  // bit.
  constexpr size_t kTileRows = ScoringView::kTileRows;
  const size_t n = features.rows();
  const size_t cols = features.cols();
  const size_t outputs = static_cast<size_t>(num_outputs_);
  std::vector<int> predictions(n);
  std::vector<double> scores(kTileRows * outputs);
  for (size_t begin = 0; begin < n; begin += kTileRows) {
    const size_t rows = std::min(kTileRows, n - begin);
    std::fill(scores.begin(), scores.end(), 0.0);
    for (size_t t = 0; t < trees_.size(); ++t) {
      view_.AddTile(t, features.RowPtr(begin), cols, rows,
                    scores.data() + t % outputs, outputs);
    }
    for (size_t r = 0; r < rows; ++r) {
      const double* row_scores = scores.data() + r * outputs;
      predictions[begin + r] =
          outputs == 1 ? (row_scores[0] > 0.0 ? 1 : 0)
                       : static_cast<int>(
                             std::max_element(row_scores,
                                              row_scores + outputs) -
                             row_scores);
    }
  }
  return predictions;
}

void GbdtClassifier::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(!trees_.empty()) << "SaveState before Train";
  WritePod<int32_t>(out, num_classes_);
  WritePod<int32_t>(out, num_outputs_);
  WritePod<uint64_t>(out, num_features_);
  WritePod<double>(out, base_score_);
  WritePod<uint64_t>(out, trees_.size());
  // Nodes are written field-by-field: raw struct bytes would leak
  // indeterminate padding into the artifact's CRC-stable byte stream.
  for (const Tree& tree : trees_) {
    WritePod<uint64_t>(out, tree.nodes.size());
    for (const TreeNode& node : tree.nodes) {
      WritePod<int32_t>(out, node.feature);
      WritePod<double>(out, node.threshold);
      WritePod<int32_t>(out, node.left);
      WritePod<int32_t>(out, node.right);
      WritePod<double>(out, node.weight);
    }
  }
}

Status GbdtClassifier::LoadState(std::istream& in) {
  const Status malformed =
      Status::InvalidArgument("GbdtClassifier: malformed state blob");
  if (config_.xgb_max_depth < 0 || config_.xgb_max_depth > kMaxTreeDepth) {
    return malformed;
  }
  int32_t classes = 0, outputs = 0;
  uint64_t features = 0, num_trees = 0;
  double base_score = 0.0;
  if (!ReadPod(in, &classes) || classes < 2 || !ReadPod(in, &outputs) ||
      outputs != (classes == 2 ? 1 : classes) || !ReadPod(in, &features) ||
      !ReadPod(in, &base_score) || !ReadPod(in, &num_trees) ||
      num_trees == 0 || num_trees > kMaxSerializedElements ||
      num_trees % static_cast<uint64_t>(outputs) != 0) {
    return malformed;
  }
  // Trees and nodes grow as their records arrive, as ReadElements does: a
  // declared count sizes at most one kReadChunkBytes chunk ahead.
  std::vector<Tree> trees;
  for (uint64_t t = 0; t < num_trees; ++t) {
    uint64_t num_nodes = 0;
    if (!ReadPod(in, &num_nodes) || num_nodes == 0 ||
        num_nodes > kMaxSerializedElements) {
      return malformed;
    }
    Tree tree;
    tree.nodes.reserve(
        std::min<uint64_t>(num_nodes, kReadChunkBytes / sizeof(TreeNode)));
    for (uint64_t i = 0; i < num_nodes; ++i) {
      TreeNode node;
      if (!ReadPod(in, &node.feature) || !ReadPod(in, &node.threshold) ||
          !ReadPod(in, &node.left) || !ReadPod(in, &node.right) ||
          !ReadPod(in, &node.weight)) {
        return malformed;
      }
      // A split reads a feature the rows have, and its children follow it
      // (so every walk from the root ends) inside this tree.
      if (node.feature >= 0 &&
          (static_cast<uint64_t>(node.feature) >= features ||
           node.left <= static_cast<int64_t>(i) ||
           node.right <= static_cast<int64_t>(i) ||
           static_cast<uint64_t>(node.left) >= num_nodes ||
           static_cast<uint64_t>(node.right) >= num_nodes)) {
        return malformed;
      }
      tree.nodes.push_back(node);
    }
    if (tree.Depth() > config_.xgb_max_depth) return malformed;
    trees.push_back(std::move(tree));
  }
  num_classes_ = classes;
  num_outputs_ = outputs;
  num_features_ = features;
  base_score_ = base_score;
  trees_ = std::move(trees);
  bins_.clear();  // training-only state, not part of the artifact.
  view_ = {};
  for (const Tree& tree : trees_) view_.Append(tree);
  return Status::OK();
}

}  // namespace autofp
