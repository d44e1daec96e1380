#include "util/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace autofp {

namespace {

std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

}  // namespace

bool ParseCsvRow(const std::string& line, std::vector<double>* cells,
                 std::string* reason) {
  cells->clear();
  size_t start = 0;
  while (true) {
    size_t comma = line.find(',', start);
    std::string cell = line.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    // Trim surrounding whitespace so "1.0, 2.0" parses.
    size_t first = cell.find_first_not_of(" \t\r");
    size_t last = cell.find_last_not_of(" \t\r");
    if (first == std::string::npos) {
      *reason = "empty cell";
      return false;
    }
    cell = cell.substr(first, last - first + 1);
    errno = 0;
    char* end = nullptr;
    double value = std::strtod(cell.c_str(), &end);
    // ERANGE also flags underflow to a subnormal or zero, which is still
    // the nearest double; only overflow to +-inf is out of range.
    if (end != cell.c_str() + cell.size() ||
        (errno == ERANGE && std::isinf(value))) {
      *reason = "non-numeric cell '" + cell + "'";
      return false;
    }
    cells->push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

Result<CsvTable> ParseCsv(const std::string& content, bool has_header) {
  CsvTable table;
  std::stringstream stream(content);
  std::string line;
  std::vector<std::vector<double>> rows;
  std::vector<double> cells;
  std::string reason;
  size_t line_number = 0;
  size_t expected_cols = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line_number == 1 && has_header) {
      table.header = SplitLine(line);
      expected_cols = table.header.size();
      continue;
    }
    if (!ParseCsvRow(line, &cells, &reason)) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + reason);
    }
    if (expected_cols == 0) expected_cols = cells.size();
    if (cells.size() != expected_cols) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": expected " +
                                     std::to_string(expected_cols) +
                                     " cells, got " +
                                     std::to_string(cells.size()));
    }
    rows.push_back(cells);
  }
  if (rows.empty()) {
    table.values = Matrix();
    return table;
  }
  Matrix values(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) values(r, c) = rows[r][c];
  }
  table.values = std::move(values);
  return table;
}

Result<CsvTable> ReadCsv(const std::string& path, bool has_header) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  return ParseCsv(buffer.str(), has_header);
}

Status WriteCsv(const std::string& path,
                const std::vector<std::string>& header, const Matrix& values) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "' for writing");
  if (!header.empty()) {
    for (size_t i = 0; i < header.size(); ++i) {
      if (i > 0) file << ',';
      file << header[i];
    }
    file << '\n';
  }
  for (size_t r = 0; r < values.rows(); ++r) {
    for (size_t c = 0; c < values.cols(); ++c) {
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.17g", values(r, c));
      if (c > 0) file << ',';
      file << cell;
    }
    file << '\n';
  }
  if (!file) return Status::IoError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace autofp
