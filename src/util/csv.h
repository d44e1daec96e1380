#ifndef AUTOFP_UTIL_CSV_H_
#define AUTOFP_UTIL_CSV_H_

#include <string>
#include <vector>

#include "util/matrix.h"
#include "util/status.h"

namespace autofp {

/// A parsed CSV table: numeric matrix plus optional header names.
struct CsvTable {
  std::vector<std::string> header;
  Matrix values;
};

/// Parses one CSV line into numeric cells, trimming spaces, tabs and CRs
/// around each cell. Returns false (with a reason) on an empty,
/// non-numeric or overflowing cell ("1e999").
bool ParseCsvRow(const std::string& line, std::vector<double>* cells,
                 std::string* reason);

/// Parses a numeric CSV file. If `has_header` the first row is stored in
/// `header` and not parsed as data. Every data row must pass ParseCsvRow;
/// returns InvalidArgument otherwise. Empty files yield an empty table.
Result<CsvTable> ReadCsv(const std::string& path, bool has_header);

/// Parses CSV content from a string (same rules as ReadCsv).
Result<CsvTable> ParseCsv(const std::string& content, bool has_header);

/// Writes a matrix as CSV with 17 significant digits, so every double
/// reads back bit for bit; `header` may be empty to omit the header row.
Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header, const Matrix& values);

}  // namespace autofp

#endif  // AUTOFP_UTIL_CSV_H_
