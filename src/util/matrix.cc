#include "util/matrix.h"

#include <algorithm>
#include <utility>

namespace autofp {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  if (rows_ == 0) return;
  cols_ = rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    AUTOFP_CHECK_EQ(row.size(), cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix::Matrix(const Matrix& other)
    : rows_(other.rows_), cols_(other.cols_) {
  if (other.view_ != nullptr) {
    // Copying a borrowed matrix materializes owned storage.
    data_.assign(other.view_, other.view_ + rows_ * cols_);
  } else {
    data_ = other.data_;
  }
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  view_ = nullptr;
  backing_.reset();
  if (other.view_ != nullptr) {
    data_.assign(other.view_, other.view_ + rows_ * cols_);
  } else {
    data_ = other.data_;
  }
  return *this;
}

Matrix Matrix::WrapConstRowMajor(const double* data, size_t rows, size_t cols,
                                 std::shared_ptr<const void> backing) {
  AUTOFP_CHECK(data != nullptr || rows * cols == 0);
  Matrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.view_ = data;
  out.backing_ = std::move(backing);
  return out;
}

void Matrix::Resize(size_t rows, size_t cols) {
  view_ = nullptr;
  backing_.reset();
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

std::vector<double> Matrix::Column(size_t c) const {
  AUTOFP_CHECK_LT(c, cols_);
  std::vector<double> out(rows_);
  const double* p = Raw();
  for (size_t r = 0; r < rows_; ++r) out[r] = p[r * cols_ + c];
  return out;
}

void Matrix::SetColumn(size_t c, const std::vector<double>& values) {
  AUTOFP_CHECK_LT(c, cols_);
  AUTOFP_CHECK_EQ(values.size(), rows_);
  double* p = MutableRaw();
  for (size_t r = 0; r < rows_; ++r) p[r * cols_ + c] = values[r];
}

Matrix Matrix::SelectRows(const std::vector<size_t>& indices) const {
  Matrix out;
  SelectRowsInto(indices, &out);
  return out;
}

void Matrix::SelectRowsInto(const std::vector<size_t>& indices,
                            Matrix* out) const {
  AUTOFP_CHECK(out != this) << "SelectRowsInto destination aliases source";
  out->Resize(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    AUTOFP_CHECK_LT(indices[i], rows_);
    const double* src = RowPtr(indices[i]);
    std::copy(src, src + cols_, out->RowPtr(i));
  }
}

void Matrix::AppendRows(const Matrix& other) {
  if (empty() && rows_ == 0) {
    *this = other;
    return;
  }
  AUTOFP_CHECK_EQ(cols_, other.cols_) << "column count mismatch";
  AUTOFP_CHECK(view_ == nullptr) << "appending to a borrowed matrix";
  data_.reserve(data_.size() + other.size());
  for (size_t r = 0; r < other.rows_; ++r) {
    const double* src = other.RowPtr(r);
    data_.insert(data_.end(), src, src + other.cols_);
  }
  rows_ += other.rows_;
}

void Matrix::AppendRows(Matrix&& other) {
  if (empty() && rows_ == 0) {
    *this = std::move(other);
    return;
  }
  AppendRows(other);
}

bool Matrix::operator==(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  const double* a = Raw();
  return std::equal(a, a + size(), other.Raw());
}

}  // namespace autofp
