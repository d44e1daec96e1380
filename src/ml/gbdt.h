#ifndef AUTOFP_ML_GBDT_H_
#define AUTOFP_ML_GBDT_H_

#include <memory>
#include <vector>

#include "ml/model.h"

namespace autofp {

/// Gradient-boosted decision trees in the XGBoost style: second-order
/// (gradient/hessian) boosting of histogram-split regression trees, with
/// L2-regularized leaf weights. Binary problems use a single sigmoid logit
/// per round; multi-class trains one tree per class per round (softmax).
/// Tree-based and therefore largely invariant to monotone feature scaling —
/// the contrast the paper's XGB results rely on.
class GbdtClassifier : public Classifier {
 public:
  explicit GbdtClassifier(const ModelConfig& config) : config_(config) {
    AUTOFP_CHECK(config.kind == ModelKind::kXgboost);
  }

  void Train(const Matrix& features, const std::vector<int>& labels,
             int num_classes) override;
  int Predict(const double* row, size_t cols) const override;
  std::vector<int> PredictBatch(const Matrix& features) const override;
  std::unique_ptr<Classifier> Clone() const override {
    return std::make_unique<GbdtClassifier>(config_);
  }
  void SaveState(std::ostream& out) const override;
  Status LoadState(std::istream& in) override;

  /// Raw additive scores (1 logit for binary, k for multi-class).
  std::vector<double> RawScores(const double* row, size_t cols) const;

  size_t num_trees() const { return trees_.size(); }

  /// Deepest tree LoadState accepts, and Train's limit on xgb_max_depth.
  /// It bounds the padded scoring view at 2^kMaxTreeDepth leaves a tree.
  static constexpr int kMaxTreeDepth = 10;

 private:
  struct TreeNode {
    int feature = -1;        ///< -1 = leaf.
    double threshold = 0.0;  ///< go left if value <= threshold.
    int left = -1;           ///< children always follow their parent.
    int right = -1;
    double weight = 0.0;     ///< leaf output.
  };
  /// The training and SaveState form of a tree; scoring reads view_.
  struct Tree {
    std::vector<TreeNode> nodes;
    /// Depth of the deepest node reachable from the root. Relies on
    /// children following their parent, as BuildTree appends them and
    /// LoadState enforces.
    int Depth() const;
  };

  /// Flat scoring view of the forest, derived from trees_ and never
  /// stored. Tree t is padded to a complete tree of depth `depth[t]` and
  /// laid out in heap order from `offset[t]`: internal node i (children
  /// 2i+1 and 2i+2) at offset + i in `feature`/`threshold`, leaf j (left
  /// to right) at offset + j in `leaf`. A leaf shallower than its tree
  /// becomes splits whose two children are that same leaf.
  struct ScoringView {
    std::vector<int> feature;
    std::vector<double> threshold;
    std::vector<double> leaf;
    std::vector<size_t> offset;
    std::vector<int> depth;

    /// Rows AddTile scores together.
    static constexpr size_t kTileRows = 64;

    void Append(const Tree& tree);
    /// Leaf weight tree t assigns to `row`. Goes right on
    /// !(value <= threshold), so NaN goes right.
    double Score(size_t t, const double* row) const;
    /// Adds Score(t, row r) to out[r * stride] for the `count` (at most
    /// kTileRows) contiguous rows of `cols` values at `rows`. The tile
    /// descends one level at a time, so its rows' loads are independent.
    void AddTile(size_t t, const double* rows, size_t cols, size_t count,
                 double* out, size_t stride) const;
  };

  /// Builds one regression tree on (grad, hess) using the per-feature bin
  /// edges in bins_; returns the tree and updates `scores` in place.
  Tree BuildTree(const Matrix& features,
                 const std::vector<std::vector<uint16_t>>& binned,
                 const std::vector<double>& grad,
                 const std::vector<double>& hess);

  ModelConfig config_;
  int num_classes_ = 0;
  int num_outputs_ = 0;  ///< 1 for binary, num_classes otherwise.
  size_t num_features_ = 0;
  double base_score_ = 0.0;
  /// trees_[round * num_outputs_ + output].
  std::vector<Tree> trees_;
  ScoringView view_;
  /// bins_[feature] = ascending bin upper edges (histogram split points).
  std::vector<std::vector<double>> bins_;
  /// Interleaved [g, h] split histogram, reused across features and
  /// nodes by BuildTree (training-only scratch).
  std::vector<double> hist_;
};

}  // namespace autofp

#endif  // AUTOFP_ML_GBDT_H_
