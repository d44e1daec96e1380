#ifndef AUTOFP_UTIL_STATS_H_
#define AUTOFP_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace autofp {

/// Descriptive statistics used by preprocessors, meta-features and the
/// synthetic generators. All functions tolerate empty input by returning 0
/// unless documented otherwise.

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Population variance (divides by n); 0 for fewer than 2 values.
double Variance(const std::vector<double>& values);

/// Population standard deviation.
double StdDev(const std::vector<double>& values);

/// Fisher-Pearson skewness g1 (biased, scipy.stats.skew default);
/// 0 when the standard deviation is 0.
double Skewness(const std::vector<double>& values);

/// Excess kurtosis g2 (biased, scipy.stats.kurtosis default);
/// 0 when the standard deviation is 0.
double Kurtosis(const std::vector<double>& values);

/// Linear-interpolation quantile, q in [0, 1]. Requires non-empty input.
/// Matches numpy.quantile's default "linear" interpolation.
double Quantile(std::vector<double> values, double q);

/// Same but assumes `sorted_values` is already ascending (no copy).
double QuantileSorted(const std::vector<double>& sorted_values, double q);

/// Sorts ascending with an LSD radix sort over order-preserving 64-bit
/// keys (11-bit digits, 6 passes, a pass skipped when one digit holds
/// every key). For non-NaN values it gives std::sort's order, with -0.0
/// before +0.0, where std::sort leaves the two in unspecified order.
/// NaNs go to the ends by their sign bit.
void RadixSort(std::vector<double>* values);

/// Shannon entropy (natural log) of a discrete distribution given by
/// non-negative counts; matches scipy.stats.entropy on normalized counts.
double Entropy(const std::vector<double>& counts);

/// Pearson correlation; 0 if either side has no variance.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Mean and standard deviation in a single pass.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd ComputeMeanStd(const std::vector<double>& values);

/// Inverse CDF of the standard normal distribution (Acklam's rational
/// approximation, |relative error| < 1.15e-9). p must be in (0, 1).
double NormalInverseCdf(double p);

/// CDF of the standard normal distribution.
double NormalCdf(double x);

}  // namespace autofp

#endif  // AUTOFP_UTIL_STATS_H_
