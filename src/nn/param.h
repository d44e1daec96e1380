#ifndef AUTOFP_NN_PARAM_H_
#define AUTOFP_NN_PARAM_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/logging.h"
#include "util/random.h"
#include "util/simd.h"

namespace autofp {

/// Hyperparameters of the Adam optimizer (defaults match Kingma & Ba).
struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// A flat parameter array with its gradient and Adam moment estimates.
/// All neural components in the library (MLP classifier, Progressive-NAS
/// surrogates, ENAS controller, REINFORCE policy) are built from these.
struct Param {
  std::vector<double> value;
  std::vector<double> grad;
  std::vector<double> m;  ///< Adam first moment.
  std::vector<double> v;  ///< Adam second moment.

  void Resize(size_t n) {
    value.assign(n, 0.0);
    grad.assign(n, 0.0);
    m.assign(n, 0.0);
    v.assign(n, 0.0);
  }

  size_t size() const { return value.size(); }

  void ZeroGrad() { std::fill(grad.begin(), grad.end(), 0.0); }

  /// Glorot-uniform initialization for a (fan_out x fan_in) weight block.
  void InitGlorot(size_t fan_in, size_t fan_out, Rng* rng) {
    double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (double& w : value) w = rng->Uniform(-limit, limit);
  }

  /// One Adam update using the stored gradient; `step` is the 1-based
  /// global update counter used for bias correction. Each lane op is one
  /// IEEE operation in the scalar loop's order, so the vector and scalar
  /// paths write the same bits.
  void AdamStep(const AdamConfig& config, long step) {
    AUTOFP_CHECK_GE(step, 1);
    const double b1 = config.beta1;
    const double b2 = config.beta2;
    const double lr = config.learning_rate;
    const double eps = config.epsilon;
    const double bias1 = 1.0 - std::pow(b1, static_cast<double>(step));
    const double bias2 = 1.0 - std::pow(b2, static_cast<double>(step));
    const size_t n = value.size();
    size_t i = 0;
    if (simd::VecD::kLanes > 1 && !simd::ForceScalarEnabled()) {
      using simd::VecD;
      const VecD vb1 = VecD::Set1(b1), vc1 = VecD::Set1(1.0 - b1);
      const VecD vb2 = VecD::Set1(b2), vc2 = VecD::Set1(1.0 - b2);
      const VecD vbias1 = VecD::Set1(bias1), vbias2 = VecD::Set1(bias2);
      const VecD vlr = VecD::Set1(lr), veps = VecD::Set1(eps);
      for (; i + VecD::kLanes <= n; i += VecD::kLanes) {
        const VecD g = VecD::Load(grad.data() + i);
        const VecD mi = vb1 * VecD::Load(m.data() + i) + vc1 * g;
        const VecD vi = vb2 * VecD::Load(v.data() + i) + (vc2 * g) * g;
        mi.Store(m.data() + i);
        vi.Store(v.data() + i);
        const VecD m_hat = mi / vbias1;
        const VecD v_hat = vi / vbias2;
        (VecD::Load(value.data() + i) - vlr * m_hat / (v_hat.Sqrt() + veps))
            .Store(value.data() + i);
      }
    }
    for (; i < n; ++i) {
      m[i] = b1 * m[i] + (1.0 - b1) * grad[i];
      v[i] = b2 * v[i] + (1.0 - b2) * grad[i] * grad[i];
      double m_hat = m[i] / bias1;
      double v_hat = v[i] / bias2;
      value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
  }
};

}  // namespace autofp

#endif  // AUTOFP_NN_PARAM_H_
