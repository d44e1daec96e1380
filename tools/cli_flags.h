#ifndef AUTOFP_TOOLS_CLI_FLAGS_H_
#define AUTOFP_TOOLS_CLI_FLAGS_H_

/// Shared flag-parsing helpers for the autofp command-line tools.
///
/// Every tool parses `--flag value` pairs in a hand-rolled loop; these
/// helpers keep the loops but make the value handling — advance, convert,
/// bounds-check, complain — one call per flag with uniform error messages:
///
///   for (int i = 2; i < argc; ++i) {
///     std::string arg = argv[i];
///     if (arg == "--threads") {
///       if (!cli::ParseInt(argc, argv, &i, "--threads", 1, &threads))
///         return false;
///     } else ...
///   }
///
/// All parsers print to stderr and return false on a missing value, a
/// non-numeric value, or a value outside the given bounds (a minimum for
/// the integer parsers, a Range for ParseDouble); the caller turns false
/// into its usage-error exit.

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace autofp {
namespace cli {

/// The value after argv[*i], advancing *i past it; nullptr (with
/// "error: FLAG needs a value") when the command line ends first.
inline const char* NextValue(int argc, char** argv, int* i,
                             const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", flag);
    return nullptr;
  }
  return argv[++*i];
}

inline bool ParseString(int argc, char** argv, int* i, const char* flag,
                        std::string* out) {
  const char* value = NextValue(argc, argv, i, flag);
  if (value == nullptr) return false;
  *out = value;
  return true;
}

/// Pass min_value = LONG_MIN for an unbounded flag.
inline bool ParseLong(int argc, char** argv, int* i, const char* flag,
                      long min_value, long* out) {
  const char* value = NextValue(argc, argv, i, flag);
  if (value == nullptr) return false;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag,
                 value);
    return false;
  }
  if (parsed < min_value) {
    std::fprintf(stderr, "error: %s must be >= %ld\n", flag, min_value);
    return false;
  }
  *out = parsed;
  return true;
}

inline bool ParseInt(int argc, char** argv, int* i, const char* flag,
                     long min_value, int* out) {
  long parsed = 0;
  if (!ParseLong(argc, argv, i, flag, min_value, &parsed)) return false;
  *out = static_cast<int>(parsed);
  return true;
}

inline bool ParseSize(int argc, char** argv, int* i, const char* flag,
                      long min_value, size_t* out) {
  long parsed = 0;
  if (!ParseLong(argc, argv, i, flag, min_value, &parsed)) return false;
  *out = static_cast<size_t>(parsed);
  return true;
}

inline bool ParseU64(int argc, char** argv, int* i, const char* flag,
                     uint64_t* out) {
  const char* value = NextValue(argc, argv, i, flag);
  if (value == nullptr) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "error: %s needs an integer, got '%s'\n", flag,
                 value);
    return false;
  }
  *out = static_cast<uint64_t>(parsed);
  return true;
}

/// Allowed values of a double flag: from `min` to `max`, each end closed
/// (the bound itself allowed) unless marked open. The default allows every
/// number but NaN.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  bool Contains(double value) const {
    return (min_open ? value > min : value >= min) &&
           (max_open ? value < max : value <= max);
  }
};

inline bool ParseDouble(int argc, char** argv, int* i, const char* flag,
                        const Range& range, double* out) {
  const char* value = NextValue(argc, argv, i, flag);
  if (value == nullptr) return false;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "error: %s needs a number, got '%s'\n", flag,
                 value);
    return false;
  }
  if (!range.Contains(parsed)) {
    const bool min_open = range.min_open || std::isinf(range.min);
    const bool max_open = range.max_open || std::isinf(range.max);
    std::fprintf(stderr, "error: %s must be in %c%g, %g%c, got '%s'\n", flag,
                 min_open ? '(' : '[', range.min, range.max,
                 max_open ? ')' : ']', value);
    return false;
  }
  *out = parsed;
  return true;
}

inline bool ParseDouble(int argc, char** argv, int* i, const char* flag,
                        double* out) {
  return ParseDouble(argc, argv, i, flag, Range{}, out);
}

}  // namespace cli
}  // namespace autofp

#endif  // AUTOFP_TOOLS_CLI_FLAGS_H_
