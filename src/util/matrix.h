#ifndef AUTOFP_UTIL_MATRIX_H_
#define AUTOFP_UTIL_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <vector>

#include "util/aligned.h"
#include "util/logging.h"

namespace autofp {

/// Dense matrix of doubles. The workhorse container for feature tables:
/// rows are samples, columns are features. Deliberately minimal — models
/// and preprocessors implement their own math on top of raw access.
///
/// Storage is row-major — element (r, c) at data[r * cols + c] — in a
/// 64-byte aligned buffer (DESIGN.md "Kernel layer and memory layout").
///
/// A Matrix can also *borrow* read-only storage it does not own
/// (WrapConstRowMajor) — the zero-copy path for mmap'd shared datasets.
/// Borrowed matrices serve all const accessors; mutating accessors
/// CHECK-fail, and copying one materializes an owned deep copy (value
/// semantics are preserved everywhere else in the codebase).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer lists; all rows must have the
  /// same length. Intended for tests and small literals.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Copying a borrowed matrix materializes an owned copy; copying an
  /// owned matrix copies storage as before.
  Matrix(const Matrix& other);
  Matrix& operator=(const Matrix& other);
  Matrix(Matrix&& other) noexcept = default;
  Matrix& operator=(Matrix&& other) noexcept = default;

  /// Borrow external row-major storage (rows * cols doubles) without
  /// copying. `backing` keeps the storage alive (e.g. an mmap handle) and
  /// travels with the matrix; pass nullptr when the caller guarantees
  /// lifetime. The result is read-only: mutating accessors CHECK-fail.
  static Matrix WrapConstRowMajor(const double* data, size_t rows,
                                  size_t cols,
                                  std::shared_ptr<const void> backing);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  bool borrowed() const { return view_ != nullptr; }

  double& operator()(size_t r, size_t c) {
    AUTOFP_CHECK_LT(r, rows_);
    AUTOFP_CHECK_LT(c, cols_);
    return MutableRaw()[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    AUTOFP_CHECK_LT(r, rows_);
    AUTOFP_CHECK_LT(c, cols_);
    return Raw()[r * cols_ + c];
  }

  /// Flat row-major storage pointers. Raw() works for borrowed
  /// matrices; MutableRaw() requires owned storage.
  const double* Raw() const { return view_ != nullptr ? view_ : data_.data(); }
  double* MutableRaw() {
    AUTOFP_CHECK(view_ == nullptr) << "mutating a borrowed matrix";
    return data_.data();
  }

  /// Unchecked raw row access for hot loops.
  double* RowPtr(size_t r) { return MutableRaw() + r * cols_; }
  const double* RowPtr(size_t r) const { return Raw() + r * cols_; }

  /// Owned storage access (serialization, wire decode, tests). Borrowed
  /// matrices CHECK-fail: use Raw().
  AlignedVector<double>& data() {
    AUTOFP_CHECK(view_ == nullptr) << "mutating a borrowed matrix";
    return data_;
  }
  const AlignedVector<double>& data() const {
    AUTOFP_CHECK(view_ == nullptr) << "data() on a borrowed matrix";
    return data_;
  }

  /// Reshapes to rows x cols without initializing the new contents
  /// (existing element values are unspecified afterwards). Keeps the
  /// allocation when capacity suffices, so a reused scratch matrix stops
  /// allocating once it has seen its largest shape.
  void Resize(size_t rows, size_t cols);

  /// Returns a copy of column c (row order).
  std::vector<double> Column(size_t c) const;

  /// Overwrites column c with `values` (must have rows() entries).
  void SetColumn(size_t c, const std::vector<double>& values);

  /// Returns the sub-matrix consisting of the given row indices, in order.
  Matrix SelectRows(const std::vector<size_t>& indices) const;

  /// SelectRows into a caller-provided destination (resized to fit), so a
  /// hot loop can reuse one buffer. `out` must not alias this matrix.
  void SelectRowsInto(const std::vector<size_t>& indices, Matrix* out) const;

  /// Appends the rows of `other` (must have identical column count,
  /// unless this matrix is empty).
  void AppendRows(const Matrix& other);

  /// Move form: when this matrix is empty, adopts `other`'s storage
  /// instead of copying it.
  void AppendRows(Matrix&& other);

  /// Equality: same shape and element values, regardless of ownership.
  bool operator==(const Matrix& other) const;

 private:
  size_t rows_;
  size_t cols_;
  AlignedVector<double> data_;
  /// Borrowed storage (zero-copy views); nullptr when owned.
  const double* view_ = nullptr;
  std::shared_ptr<const void> backing_;
};

}  // namespace autofp

#endif  // AUTOFP_UTIL_MATRIX_H_
