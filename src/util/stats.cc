#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace autofp {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  return sum_sq / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Skewness(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double m2 = 0.0, m3 = 0.0;
  for (double v : values) {
    double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  double n = static_cast<double>(values.size());
  m2 /= n;
  m3 /= n;
  if (m2 <= 0.0) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

double Kurtosis(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double m2 = 0.0, m4 = 0.0;
  for (double v : values) {
    double d = v - mean;
    double d2 = d * d;
    m2 += d2;
    m4 += d2 * d2;
  }
  double n = static_cast<double>(values.size());
  m2 /= n;
  m4 /= n;
  if (m2 <= 0.0) return 0.0;
  return m4 / (m2 * m2) - 3.0;
}

double QuantileSorted(const std::vector<double>& sorted_values, double q) {
  AUTOFP_CHECK(!sorted_values.empty());
  AUTOFP_CHECK_GE(q, 0.0);
  AUTOFP_CHECK_LE(q, 1.0);
  if (sorted_values.size() == 1) return sorted_values[0];
  double position = q * static_cast<double>(sorted_values.size() - 1);
  size_t lower = static_cast<size_t>(position);
  if (lower + 1 >= sorted_values.size()) return sorted_values.back();
  double fraction = position - static_cast<double>(lower);
  const double a = sorted_values[lower];
  const double b = sorted_values[lower + 1];
  const double gap = b - a;
  if (std::isfinite(gap)) return a + fraction * gap;
  // b - a overflowed (a and b straddle zero past DBL_MAX / 2, or one is
  // infinite). This form cannot overflow for finite a <= b.
  return (1.0 - fraction) * a + fraction * b;
}

namespace {

constexpr uint64_t kSignBit = 0x8000000000000000ull;

/// Unsigned order of the key is the numeric order of the double: negative
/// values flip every bit, the rest flip only the sign bit.
uint64_t SortKey(double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  return bits ^ ((0 - (bits >> 63)) | kSignBit);
}

double FromSortKey(uint64_t key) {
  return std::bit_cast<double>(key & kSignBit ? key ^ kSignBit : ~key);
}

}  // namespace

void RadixSort(std::vector<double>* values) {
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr int kPasses = 6;  // 66 bits cover the 64-bit key
  const size_t n = values->size();
  if (n < 2) return;
  const auto digit = [](uint64_t key, int pass) {
    return static_cast<size_t>(key >> (pass * kDigitBits)) & (kBuckets - 1);
  };
  std::vector<uint64_t> keys(n);
  std::vector<uint64_t> scratch(n);
  // Every pass's digit histogram, counted in one read of the keys.
  std::vector<size_t> counts(kPasses * kBuckets, 0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = SortKey((*values)[i]);
    keys[i] = key;
    for (int pass = 0; pass < kPasses; ++pass) {
      ++counts[pass * kBuckets + digit(key, pass)];
    }
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    size_t* offsets = counts.data() + pass * kBuckets;
    // One bucket holds every key: the pass would leave the order as is.
    if (offsets[digit(keys[0], pass)] == n) continue;
    size_t start = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t count = offsets[b];
      offsets[b] = start;
      start += count;
    }
    for (size_t i = 0; i < n; ++i) {
      scratch[offsets[digit(keys[i], pass)]++] = keys[i];
    }
    keys.swap(scratch);
  }
  for (size_t i = 0; i < n; ++i) (*values)[i] = FromSortKey(keys[i]);
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

double Entropy(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) {
    AUTOFP_CHECK_GE(c, 0.0);
    total += c;
  }
  if (total <= 0.0) return 0.0;
  double entropy = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    double p = c / total;
    entropy -= p * std::log(p);
  }
  return entropy;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  AUTOFP_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  double mx = Mean(x), my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

MeanStd ComputeMeanStd(const std::vector<double>& values) {
  MeanStd result;
  result.mean = Mean(values);
  result.stddev = StdDev(values);
  return result;
}

double NormalInverseCdf(double p) {
  AUTOFP_CHECK_GT(p, 0.0);
  AUTOFP_CHECK_LT(p, 1.0);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  const double p_high = 1.0 - p_low;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace autofp
