#include "ml/logistic_regression.h"

#include "util/serialize.h"
#include "util/simd.h"
#include "util/thread_pool.h"

#include <algorithm>
#include <cmath>

namespace autofp {

namespace {

/// Rows per HelpFor index in an epoch's forward phase: ~7 us of row tiles
/// at 8 features and 2 classes.
constexpr size_t kForwardBlockRows = 512;

using simd::VecD;
constexpr size_t kLanes = VecD::kLanes;

// SumGradientRange and ForwardTiles hold their sums in arrays. The unroll
// pragmas let GCC keep them in registers, as in nn/mlp_net.cc's tiles.

/// Sums class k's gradient over columns [begin, end), at most
/// LogisticRegression::kGradientRangeCols of them, into the class's row
/// `g` of the gradient. Every sum stays in a register for the whole pass
/// over the rows: whole V-vectors, then the ragged tail of < V::kLanes
/// columns, then the intercept, which is stored when the range is the
/// class's last. Each element is the chain of mul-then-add steps the
/// per-row Axpy made, in row order, and a zero residual skips its row as
/// it did there.
template <typename V>
void SumGradientRange(const Matrix& features, const double* residuals,
                      int num_classes, int k, size_t begin, size_t end,
                      double* g) {
  constexpr size_t kMaxVecs =
      LogisticRegression::kGradientRangeCols / V::kLanes;
  constexpr size_t kMaxTail = V::kLanes - 1;
  const size_t d = features.cols();
  const size_t vecs = (end - begin) / V::kLanes;
  const size_t tail_at = begin + vecs * V::kLanes;
  const size_t tail = end - tail_at;
  V acc[kMaxVecs];
  double tail_acc[kMaxTail > 0 ? kMaxTail : 1];
#pragma GCC unroll 8
  for (size_t j = 0; j < kMaxVecs; ++j) {
    acc[j] = j < vecs ? V::Load(g + begin + j * V::kLanes) : V::Zero();
  }
#pragma GCC unroll 4
  for (size_t t = 0; t < kMaxTail; ++t) {
    tail_acc[t] = t < tail ? g[tail_at + t] : 0.0;
  }
  // Only the class's last range touches the intercept: the other ranges
  // of the class run concurrently with it.
  const bool last = end == d;
  double intercept = last ? g[d] : 0.0;
  for (size_t r = 0; r < features.rows(); ++r) {
    const double residual = residuals[r * num_classes + k];
    if (residual == 0.0) continue;
    const double* row = features.RowPtr(r);
    const V scale = V::Set1(residual);
#pragma GCC unroll 8
    for (size_t j = 0; j < kMaxVecs; ++j) {
      if (j < vecs) {
        acc[j] = acc[j] + scale * V::Load(row + begin + j * V::kLanes);
      }
    }
#pragma GCC unroll 4
    for (size_t t = 0; t < kMaxTail; ++t) {
      if (t < tail) tail_acc[t] += residual * row[tail_at + t];
    }
    intercept += residual;
  }
#pragma GCC unroll 8
  for (size_t j = 0; j < kMaxVecs; ++j) {
    if (j < vecs) acc[j].Store(g + begin + j * V::kLanes);
  }
#pragma GCC unroll 4
  for (size_t t = 0; t < kMaxTail; ++t) {
    if (t < tail) g[tail_at + t] = tail_acc[t];
  }
  if (last) g[d] = intercept;
}

/// Writes the residuals of rows [begin, end) in tiles of V::kLanes rows,
/// lane r of a tile holding its row r. Each lane makes the row loop's IEEE
/// operations in the row loop's order, so every residual keeps its bits:
///   - the logit is w[d] + Dot(w, row, d), summed as Dot sums it on V:
///     whole V-vectors, V::SumEach for the horizontal add, then the tail;
///   - the max (strict > from -1e300, in class order), z = logit - max,
///     the denominator in class order, the division, the label term and
///     the 1/n scale are one lane op each;
///   - exp stays libm's std::exp of the clamped z, called only where
///     z != 0 (exp(0) is exactly 1), or once per row for two classes.
/// A ragged last tile repeats its last row in the spare lanes and stores
/// only its own rows.
template <typename V>
void ForwardTiles(const Matrix& features, const std::vector<int>& labels,
                  const double* weights, int num_classes, size_t begin,
                  size_t end, double* residuals) {
  constexpr size_t kL = V::kLanes;
  const size_t d = features.cols();
  const size_t stride = d + 1;
  const size_t vec_end = d - d % kL;
  const V inv_n = V::Set1(1.0 / static_cast<double>(features.rows()));
  const V zero = V::Zero();
  const V one = V::Set1(1.0);
  // Class k's lanes at tile + k * kL: its logits, then its z, its exps
  // and its residuals.
  std::vector<double> tile(static_cast<size_t>(num_classes) * kL);
  for (size_t base = begin; base < end; base += kL) {
    const size_t count = std::min(kL, end - base);
    const double* rows[kL];
    double row_labels[kL];
#pragma GCC unroll 4
    for (size_t r = 0; r < kL; ++r) {
      const size_t row = base + std::min(r, count - 1);
      rows[r] = features.RowPtr(row);
      row_labels[r] = labels[row];
    }
    V max_logit = V::Set1(-1e300);
    for (int k = 0; k < num_classes; ++k) {
      const double* w = weights + k * stride;
      V acc[kL];
#pragma GCC unroll 4
      for (size_t r = 0; r < kL; ++r) acc[r] = zero;
      for (size_t i = 0; i < vec_end; i += kL) {
        const V wv = V::Load(w + i);
#pragma GCC unroll 4
        for (size_t r = 0; r < kL; ++r) {
          acc[r] = acc[r] + wv * V::Load(rows[r] + i);
        }
      }
      V sum = V::SumEach(acc);
      for (size_t i = vec_end; i < d; ++i) {
        double column[kL];
#pragma GCC unroll 4
        for (size_t r = 0; r < kL; ++r) column[r] = rows[r][i];
        sum = sum + V::Set1(w[i]) * V::Load(column);
      }
      const V logit = V::Set1(w[d]) + sum;
      logit.Store(tile.data() + k * kL);
      max_logit = V::Select(V::Gt(logit, max_logit), logit, max_logit);
    }
    for (int k = 0; k < num_classes; ++k) {
      double* lanes = tile.data() + k * kL;
      (V::Load(lanes) - max_logit).Store(lanes);
    }
    // With two classes the max class's z is 0, so the other z is z0 + z1
    // exactly and one exp serves the row. A tile with a row that has no
    // zero z (NaN logits, or none above the -1e300 start) takes the
    // per-entry path. The test is branch-free: which class holds the max
    // varies from row to row.
    bool one_exp = num_classes == 2;
#pragma GCC unroll 4
    for (size_t r = 0; r < kL; ++r) {
      one_exp &= (tile[r] == 0.0) | (tile[kL + r] == 0.0);
    }
    if (one_exp) {
      double e[kL];
#pragma GCC unroll 4
      for (size_t r = 0; r < kL; ++r) {
        e[r] = std::exp(std::clamp(tile[r] + tile[kL + r], -500.0, 0.0));
      }
      const V exps = V::Load(e);
      for (int k = 0; k < 2; ++k) {
        double* lanes = tile.data() + k * kL;
        // z is <= 0 or NaN, so 0 <= z holds exactly where z == 0.
        const V z = V::Load(lanes);
        V::Select(V::Le(zero, z), one, exps).Store(lanes);
      }
    } else {
      for (double& z : tile) {
        z = z == 0.0 ? 1.0 : std::exp(std::clamp(z, -500.0, 0.0));
      }
    }
    V denom = zero;
    for (int k = 0; k < num_classes; ++k) {
      denom = denom + V::Load(tile.data() + k * kL);
    }
    const V label = V::Load(row_labels);
    for (int k = 0; k < num_classes; ++k) {
      double* lanes = tile.data() + k * kL;
      // Labels are small integers: |label - k| <= 0 only where they match.
      const V is_label =
          V::Select(V::Le((label - V::Set1(k)).Abs(), zero), one, zero);
      ((V::Load(lanes) / denom - is_label) * inv_n).Store(lanes);
    }
    for (size_t r = 0; r < count; ++r) {
      double* slot = residuals + (base + r) * num_classes;
      for (int k = 0; k < num_classes; ++k) slot[k] = tile[k * kL + r];
    }
  }
}

}  // namespace

void LogisticRegression::Forward(const Matrix& features,
                                 const std::vector<int>& labels,
                                 const double* weights, int num_classes,
                                 double* residuals) {
  const size_t n = features.rows();
  // simd::Dot sums in DotScalar's order when forced scalar; so does the
  // one-lane tile.
  const bool vectors = kLanes > 1 && !simd::ForceScalarEnabled();
  // Rows are independent, so idle pool workers may take blocks of them.
  ThreadPool::HelpFor((n + kForwardBlockRows - 1) / kForwardBlockRows,
                      [&](size_t block) {
    const size_t begin = block * kForwardBlockRows;
    const size_t end = std::min(n, begin + kForwardBlockRows);
    if (vectors) {
      ForwardTiles<VecD>(features, labels, weights, num_classes, begin, end,
                         residuals);
    } else {
      ForwardTiles<simd::ScalarD>(features, labels, weights, num_classes,
                                  begin, end, residuals);
    }
  });
}

void LogisticRegression::AccumulateGradient(const Matrix& features,
                                            const double* residuals,
                                            int num_classes, double* grad) {
  const size_t d = features.cols();
  const size_t ranges =
      std::max<size_t>(1, (d + kGradientRangeCols - 1) / kGradientRangeCols);
  const bool vectors = kLanes > 1 && !simd::ForceScalarEnabled();
  // Each item owns its gradient elements, so whichever thread runs it,
  // they get the same bits.
  ThreadPool::HelpFor(static_cast<size_t>(num_classes) * ranges,
                      [&](size_t item) {
    const int k = static_cast<int>(item / ranges);
    const size_t begin = (item % ranges) * kGradientRangeCols;
    const size_t end = std::min(d, begin + kGradientRangeCols);
    double* g = grad + k * (d + 1);
    if (vectors) {
      SumGradientRange<VecD>(features, residuals, num_classes, k, begin, end,
                             g);
    } else {
      SumGradientRange<simd::ScalarD>(features, residuals, num_classes, k,
                                      begin, end, g);
    }
  });
}

void LogisticRegression::Train(const Matrix& features,
                               const std::vector<int>& labels,
                               int num_classes) {
  AUTOFP_CHECK_EQ(features.rows(), labels.size());
  AUTOFP_CHECK_GE(num_classes, 2);
  num_classes_ = num_classes;
  num_features_ = features.cols();
  const size_t d = num_features_;
  const size_t n = features.rows();
  const size_t stride = d + 1;
  Param params;
  params.Resize(static_cast<size_t>(num_classes) * stride);

  AdamConfig adam;
  adam.learning_rate = config_.lr_step;
  std::vector<double> residuals(n * num_classes);
  for (int epoch = 0; epoch < config_.lr_epochs; ++epoch) {
    Forward(features, labels, params.value.data(), num_classes,
            residuals.data());
    // Each gradient element is summed by one thread in row order, so it
    // adds up in the same order whether or not helpers ran.
    params.ZeroGrad();
    AccumulateGradient(features, residuals.data(), num_classes,
                       params.grad.data());
    // L2 regularization on weights (not intercepts).
    if (config_.lr_l2 > 0.0) {
      for (int k = 0; k < num_classes; ++k) {
        double* g = params.grad.data() + k * stride;
        const double* w = params.value.data() + k * stride;
        simd::Axpy(config_.lr_l2, w, g, d);
      }
    }
    params.AdamStep(adam, epoch + 1);
  }
  weights_ = std::move(params.value);
}

int LogisticRegression::Predict(const double* row, size_t cols) const {
  AUTOFP_CHECK_EQ(cols, num_features_);
  AUTOFP_CHECK_GT(num_classes_, 0) << "Predict before Train";
  const size_t stride = num_features_ + 1;
  // The first maximum wins, as std::max_element picks it.
  int best = 0;
  double best_score = 0.0;
  for (int k = 0; k < num_classes_; ++k) {
    const double* w = weights_.data() + k * stride;
    const double score = w[num_features_] + simd::Dot(w, row, num_features_);
    if (k == 0 || best_score < score) {
      best = k;
      best_score = score;
    }
  }
  return best;
}

void LogisticRegression::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(!weights_.empty()) << "SaveState before Train";
  WritePod<int32_t>(out, num_classes_);
  WritePod<uint64_t>(out, num_features_);
  WriteVec(out, weights_);
}

Status LogisticRegression::LoadState(std::istream& in) {
  int32_t classes = 0;
  uint64_t features = 0;
  std::vector<double> weights;
  if (!ReadPod(in, &classes) || classes < 2 || !ReadPod(in, &features) ||
      !ReadVec(in, &weights) ||
      weights.size() != static_cast<size_t>(classes) * (features + 1)) {
    return Status::InvalidArgument("LogisticRegression: malformed state blob");
  }
  num_classes_ = classes;
  num_features_ = features;
  weights_ = std::move(weights);
  return Status::OK();
}

}  // namespace autofp
