#include "util/csv.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

namespace autofp {
namespace {

TEST(Csv, ParseSimple) {
  Result<CsvTable> table = ParseCsv("1,2\n3,4\n", /*has_header=*/false);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.value().header.empty());
  EXPECT_EQ(table.value().values.rows(), 2u);
  EXPECT_DOUBLE_EQ(table.value().values(1, 1), 4.0);
}

TEST(Csv, ParseHeader) {
  Result<CsvTable> table = ParseCsv("a,b\n1,2\n", /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.value().header.size(), 2u);
  EXPECT_EQ(table.value().header[0], "a");
  EXPECT_EQ(table.value().values.rows(), 1u);
}

TEST(Csv, ParseNegativeAndScientific) {
  Result<CsvTable> table = ParseCsv("-1.5,2e3\n", false);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table.value().values(0, 0), -1.5);
  EXPECT_DOUBLE_EQ(table.value().values(0, 1), 2000.0);
}

TEST(Csv, ParseCrLf) {
  Result<CsvTable> table = ParseCsv("1,2\r\n3,4\r\n", false);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().values.rows(), 2u);
}

TEST(Csv, EmptyContentYieldsEmptyTable) {
  Result<CsvTable> table = ParseCsv("", false);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.value().values.empty());
}

TEST(Csv, NonNumericCellFails) {
  Result<CsvTable> table = ParseCsv("1,apple\n", false);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(Csv, PaddedCellsAreTrimmed) {
  Result<CsvTable> table = ParseCsv("1 , 2\n\t3,4 \r\n", false);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_TRUE(table.value().values == Matrix({{1.0, 2.0}, {3.0, 4.0}}));
}

TEST(Csv, OverflowingCellFails) {
  for (const char* content : {"1,1e999\n", "-1e999,1\n"}) {
    Result<CsvTable> table = ParseCsv(content, false);
    ASSERT_FALSE(table.ok()) << content;
    EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Csv, RaggedRowFails) {
  Result<CsvTable> table = ParseCsv("1,2\n3\n", false);
  ASSERT_FALSE(table.ok());
}

TEST(Csv, MissingFileFails) {
  Result<CsvTable> table = ReadCsv("/nonexistent/file.csv", false);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

TEST(Csv, WriteThenReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/autofp_csv_roundtrip.csv";
  Matrix values = {{1.5, -2.0},
                   {3.0, 4.25},
                   {0.1, 1.0 / 3.0},
                   {-1e-300, 123456789.123456789},
                   {std::numeric_limits<double>::denorm_min(), -0.0}};
  ASSERT_TRUE(WriteCsv(path, {"x", "y"}, values).ok());
  Result<CsvTable> table = ReadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().header[1], "y");
  const Matrix& read = table.value().values;
  ASSERT_EQ(read.rows(), values.rows());
  ASSERT_EQ(read.cols(), values.cols());
  // Bit for bit: -0.0 == 0.0 would hide a lost sign.
  EXPECT_EQ(std::memcmp(read.RowPtr(0), values.RowPtr(0),
                        values.rows() * values.cols() * sizeof(double)),
            0);
  std::remove(path.c_str());
}

TEST(Status, ToStringIncludesCode) {
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status s = Status::NotFound("thing");
  EXPECT_NE(s.ToString().find("NotFound"), std::string::npos);
  EXPECT_NE(s.ToString().find("thing"), std::string::npos);
}

TEST(ResultType, ValueAndStatus) {
  {
    // Own scope: GCC 12 warns (-Wmaybe-uninitialized) when `ok` shares
    // one with `err`.
    Result<int> ok(5);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 5);
  }
  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTypeDeath, ValueOfErrorAborts) {
  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_DEATH(err.value(), "CHECK failed");
}

}  // namespace
}  // namespace autofp
