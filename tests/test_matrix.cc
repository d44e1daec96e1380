#include "util/matrix.h"

#include <utility>

#include <gtest/gtest.h>

namespace autofp {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructWithFill) {
  Matrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(r, c), 2.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, ReadWrite) {
  Matrix m(2, 2);
  m(0, 1) = 7.0;
  m(1, 0) = -3.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 0), -3.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, RowPtrMatchesIndexing) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  const double* row = m.RowPtr(1);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(Matrix, Column) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  std::vector<double> col = m.Column(1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[0], 2.0);
  EXPECT_DOUBLE_EQ(col[2], 6.0);
}

TEST(Matrix, SetColumn) {
  Matrix m(2, 2, 0.0);
  m.SetColumn(0, {9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, SelectRows) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  Matrix selected = m.SelectRows({2, 0});
  ASSERT_EQ(selected.rows(), 2u);
  EXPECT_DOUBLE_EQ(selected(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(selected(1, 1), 2.0);
}

TEST(Matrix, SelectRowsAllowsDuplicates) {
  Matrix m = {{1, 2}, {3, 4}};
  Matrix selected = m.SelectRows({1, 1, 1});
  ASSERT_EQ(selected.rows(), 3u);
  EXPECT_DOUBLE_EQ(selected(2, 0), 3.0);
}

TEST(Matrix, AppendRows) {
  Matrix a = {{1, 2}};
  Matrix b = {{3, 4}, {5, 6}};
  a.AppendRows(b);
  ASSERT_EQ(a.rows(), 3u);
  EXPECT_DOUBLE_EQ(a(2, 1), 6.0);
}

TEST(Matrix, AppendRowsToEmpty) {
  Matrix a;
  Matrix b = {{3, 4}};
  a.AppendRows(b);
  ASSERT_EQ(a.rows(), 1u);
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
}

TEST(Matrix, AppendRowsMoveIntoEmptyAdoptsStorage) {
  Matrix a;
  Matrix b = {{3, 4}, {5, 6}};
  const double* storage = b.RowPtr(0);
  a.AppendRows(std::move(b));
  ASSERT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.RowPtr(0), storage);  // adopted, not copied
  EXPECT_DOUBLE_EQ(a(1, 1), 6.0);
}

TEST(Matrix, AppendRowsMoveIntoNonEmptyCopies) {
  Matrix a = {{1, 2}};
  Matrix b = {{3, 4}};
  a.AppendRows(std::move(b));
  ASSERT_EQ(a.rows(), 2u);
  EXPECT_DOUBLE_EQ(a(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
}

TEST(Matrix, ResizeKeepsCapacityWhenShrinking) {
  Matrix m(4, 3, 1.0);
  const double* storage = m.RowPtr(0);
  m.Resize(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.RowPtr(0), storage);  // no reallocation on shrink
  m.Resize(4, 3);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.RowPtr(0), storage);  // regrow within old capacity
}

TEST(Matrix, ResizeChangesShape) {
  Matrix m;
  m.Resize(2, 5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 5u);
  m(1, 4) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 4), 7.0);
}

TEST(Matrix, SelectRowsIntoMatchesSelectRows) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  Matrix out(9, 9, -1.0);  // dirty destination of the wrong shape
  m.SelectRowsInto({2, 0, 2}, &out);
  EXPECT_TRUE(out == m.SelectRows({2, 0, 2}));
}

TEST(Matrix, SelectRowsIntoReusesCapacity) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  Matrix out;
  m.SelectRowsInto({0, 1, 2}, &out);
  const double* storage = out.RowPtr(0);
  m.SelectRowsInto({1, 0}, &out);
  ASSERT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.RowPtr(0), storage);  // smaller selection reuses buffer
  EXPECT_DOUBLE_EQ(out(0, 0), 3.0);
}

TEST(MatrixDeath, SelectRowsIntoSelfAborts) {
  Matrix m = {{1, 2}, {3, 4}};
  EXPECT_DEATH(m.SelectRowsInto({0}, &m), "CHECK failed");
}

TEST(Matrix, Equality) {
  Matrix a = {{1, 2}};
  Matrix b = {{1, 2}};
  Matrix c = {{1, 3}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(MatrixDeath, OutOfBoundsAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH(m(2, 0), "CHECK failed");
  EXPECT_DEATH(m(0, 2), "CHECK failed");
}

// --- Borrowed views ---------------------------------------------------------

TEST(MatrixView, WrapConstRowMajorIsZeroCopy) {
  const double storage[] = {1, 2, 3, 4, 5, 6};
  const Matrix view = Matrix::WrapConstRowMajor(storage, 2, 3, nullptr);
  EXPECT_TRUE(view.borrowed());
  EXPECT_EQ(view.Raw(), storage);
  EXPECT_DOUBLE_EQ(view(1, 2), 6.0);
  EXPECT_EQ(view.RowPtr(1), storage + 3);
}

TEST(MatrixView, CopyingAViewMaterializesOwnedStorage) {
  const double storage[] = {1, 2, 3, 4};
  const Matrix view = Matrix::WrapConstRowMajor(storage, 2, 2, nullptr);
  Matrix copy = view;
  EXPECT_FALSE(copy.borrowed());
  EXPECT_NE(copy.Raw(), storage);
  EXPECT_TRUE(copy == view);
  copy(0, 0) = 99.0;  // owned copies are mutable
  EXPECT_DOUBLE_EQ(view(0, 0), 1.0);
}

TEST(MatrixView, BackingKeepsStorageAlive) {
  auto owned = std::make_shared<std::vector<double>>(
      std::vector<double>{1, 2, 3, 4});
  const double* raw = owned->data();
  const Matrix view = Matrix::WrapConstRowMajor(
      raw, 2, 2, std::shared_ptr<const void>(owned, owned->data()));
  owned.reset();  // the view's backing still holds the vector
  EXPECT_DOUBLE_EQ(view(1, 1), 4.0);
}

TEST(MatrixDeath, MutatingABorrowedMatrixAborts) {
  const double storage[] = {1, 2, 3, 4};
  Matrix view = Matrix::WrapConstRowMajor(storage, 2, 2, nullptr);
  EXPECT_DEATH(view(0, 0) = 5.0, "borrowed");
  EXPECT_DEATH(view.MutableRaw(), "borrowed");
  EXPECT_DEATH(view.data(), "borrowed");
}

TEST(MatrixDeath, RaggedInitializerAborts) {
  EXPECT_DEATH((Matrix{{1.0, 2.0}, {3.0}}), "ragged");
}

}  // namespace
}  // namespace autofp
