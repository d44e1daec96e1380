#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/benchmark_suite.h"
#include "data/splits.h"
#include "ml/mlp_classifier.h"
#include "nn/lstm.h"
#include "nn/mlp_net.h"
#include "nn/param.h"
#include "util/serialize.h"
#include "util/simd.h"

namespace autofp {
namespace {

TEST(Param, AdamDecreasesQuadratic) {
  // Minimize f(x) = (x - 3)^2 with Adam.
  Param p;
  p.Resize(1);
  p.value[0] = 0.0;
  AdamConfig adam;
  adam.learning_rate = 0.1;
  for (long step = 1; step <= 500; ++step) {
    p.grad[0] = 2.0 * (p.value[0] - 3.0);
    p.AdamStep(adam, step);
  }
  EXPECT_NEAR(p.value[0], 3.0, 0.05);
}

TEST(Param, ZeroGrad) {
  Param p;
  p.Resize(3);
  p.grad = {1.0, 2.0, 3.0};
  p.ZeroGrad();
  for (double g : p.grad) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Param, GlorotInitWithinBounds) {
  Param p;
  p.Resize(100);
  Rng rng(1);
  p.InitGlorot(10, 10, &rng);
  double limit = std::sqrt(6.0 / 20.0);
  bool any_nonzero = false;
  for (double w : p.value) {
    EXPECT_LE(std::abs(w), limit);
    if (w != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

// Numerical gradient check for the MLP.
TEST(MlpNet, GradientMatchesFiniteDifference) {
  MlpNetConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 2;
  Rng rng(2);
  MlpNet net(config, &rng);

  Matrix inputs = {{0.5, -1.0, 2.0}, {1.5, 0.3, -0.7}};
  Matrix targets = {{1.0, 0.0}, {0.0, 1.0}};
  auto loss_fn = [&](MlpNet* n) {
    Matrix out = n->Infer(inputs);
    double loss = 0.0;
    for (size_t r = 0; r < out.rows(); ++r) {
      for (size_t c = 0; c < out.cols(); ++c) {
        double d = out(r, c) - targets(r, c);
        loss += d * d;
      }
    }
    return loss;
  };

  // Analytic gradients.
  Matrix out = net.Forward(inputs);
  Matrix grad(out.rows(), out.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      grad(r, c) = 2.0 * (out(r, c) - targets(r, c));
    }
  }
  net.ZeroGrads();
  net.Backward(grad);

  // Spot-check dLoss/dOutput consistency via a perturbed copy: a single
  // Adam step with a tiny learning rate must decrease the loss.
  double before = loss_fn(&net);
  AdamConfig adam;
  adam.learning_rate = 1e-3;
  net.Step(adam);
  double after = loss_fn(&net);
  EXPECT_LT(after, before);
}

TEST(MlpNet, LearnsXor) {
  MlpNetConfig config;
  config.input_dim = 2;
  config.hidden_dims = {16};
  config.output_dim = 1;
  Rng rng(12);
  MlpNet net(config, &rng);
  Matrix inputs = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  std::vector<double> targets = {0.0, 1.0, 1.0, 0.0};
  AdamConfig adam;
  adam.learning_rate = 0.05;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    Matrix out = net.Forward(inputs);
    Matrix grad(4, 1);
    for (size_t r = 0; r < 4; ++r) {
      grad(r, 0) = 2.0 * (out(r, 0) - targets[r]) / 4.0;
    }
    net.ZeroGrads();
    net.Backward(grad);
    net.Step(adam);
  }
  Matrix out = net.Infer(inputs);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_NEAR(out(r, 0), targets[r], 0.2) << "row " << r;
  }
}

TEST(MlpNet, InferMatchesForward) {
  MlpNetConfig config;
  config.input_dim = 5;
  config.hidden_dims = {7, 3};
  config.output_dim = 2;
  Rng rng(4);
  MlpNet net(config, &rng);
  Matrix inputs(6, 5);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < 5; ++c) inputs(r, c) = rng.Gaussian();
  }
  EXPECT_TRUE(net.Forward(inputs) == net.Infer(inputs));
}

TEST(MlpNet, NumParameters) {
  MlpNetConfig config;
  config.input_dim = 3;
  config.hidden_dims = {4};
  config.output_dim = 2;
  Rng rng(5);
  MlpNet net(config, &rng);
  // (3*4 + 4) + (4*2 + 2) = 16 + 10.
  EXPECT_EQ(net.num_parameters(), 26u);
}

// --- MlpNet's kernels against the loops they replaced -------------------

/// The loops MlpNet ran before its register-tiled kernels, kept as the
/// reference: one simd::Dot per (row, unit), a branchy ReLU gate, one
/// simd::Axpy per (row, unit) in Backward, and scalar Adam.
struct RefParam {
  std::vector<double> value, grad, m, v;

  void AdamStep(const AdamConfig& config, long step) {
    double bias1 = 1.0 - std::pow(config.beta1, static_cast<double>(step));
    double bias2 = 1.0 - std::pow(config.beta2, static_cast<double>(step));
    for (size_t i = 0; i < value.size(); ++i) {
      m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * grad[i];
      v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * grad[i] * grad[i];
      double m_hat = m[i] / bias1;
      double v_hat = v[i] / bias2;
      value[i] -=
          config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
    }
  }
};

class RefNet {
 public:
  /// Copies `net`'s parameter values (through its SaveState bytes).
  explicit RefNet(const MlpNet& net) {
    std::vector<size_t> dims = {net.config().input_dim};
    for (size_t h : net.config().hidden_dims) dims.push_back(h);
    dims.push_back(net.config().output_dim);
    std::stringstream state;
    net.SaveState(state);
    uint64_t num_layers = 0;
    AUTOFP_CHECK(ReadPod(state, &num_layers));
    AUTOFP_CHECK_EQ(num_layers + 1, dims.size());
    for (size_t l = 0; l < num_layers; ++l) {
      Layer layer;
      layer.in_dim = dims[l];
      layer.out_dim = dims[l + 1];
      AUTOFP_CHECK(ReadVec(state, &layer.weights.value));
      AUTOFP_CHECK(ReadVec(state, &layer.bias.value));
      for (RefParam* p : {&layer.weights, &layer.bias}) {
        p->grad.assign(p->value.size(), 0.0);
        p->m.assign(p->value.size(), 0.0);
        p->v.assign(p->value.size(), 0.0);
      }
      layers_.push_back(std::move(layer));
    }
  }

  Matrix Forward(const Matrix& inputs) {
    activations_.clear();
    activations_.push_back(inputs);
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const Matrix& in = activations_.back();
      Matrix out(in.rows(), layer.out_dim);
      const bool is_last = (l + 1 == layers_.size());
      for (size_t r = 0; r < in.rows(); ++r) {
        const double* in_row = in.RowPtr(r);
        double* out_row = out.RowPtr(r);
        for (size_t o = 0; o < layer.out_dim; ++o) {
          const double* w = layer.weights.value.data() + o * layer.in_dim;
          const double sum =
              layer.bias.value[o] + simd::Dot(w, in_row, layer.in_dim);
          out_row[o] = is_last ? sum : std::max(sum, 0.0);
        }
      }
      activations_.push_back(std::move(out));
    }
    return activations_.back();
  }

  void Backward(const Matrix& grad_outputs) {
    Matrix grad = grad_outputs;
    for (size_t l = layers_.size(); l-- > 0;) {
      Layer& layer = layers_[l];
      const Matrix& in = activations_[l];
      const Matrix& out = activations_[l + 1];
      const bool is_last = (l + 1 == layers_.size());
      if (!is_last) {
        for (size_t r = 0; r < grad.rows(); ++r) {
          double* g = grad.RowPtr(r);
          const double* a = out.RowPtr(r);
          for (size_t o = 0; o < layer.out_dim; ++o) {
            if (a[o] <= 0.0) g[o] = 0.0;
          }
        }
      }
      for (size_t r = 0; r < grad.rows(); ++r) {
        const double* g = grad.RowPtr(r);
        const double* in_row = in.RowPtr(r);
        for (size_t o = 0; o < layer.out_dim; ++o) {
          if (g[o] == 0.0) continue;
          double* wg = layer.weights.grad.data() + o * layer.in_dim;
          simd::Axpy(g[o], in_row, wg, layer.in_dim);
          layer.bias.grad[o] += g[o];
        }
      }
      if (l > 0) {
        Matrix grad_in(grad.rows(), layer.in_dim, 0.0);
        for (size_t r = 0; r < grad.rows(); ++r) {
          const double* g = grad.RowPtr(r);
          double* gi = grad_in.RowPtr(r);
          for (size_t o = 0; o < layer.out_dim; ++o) {
            if (g[o] == 0.0) continue;
            const double* w = layer.weights.value.data() + o * layer.in_dim;
            simd::Axpy(g[o], w, gi, layer.in_dim);
          }
        }
        grad = std::move(grad_in);
      }
    }
  }

  void ZeroGrads() {
    for (Layer& layer : layers_) {
      std::fill(layer.weights.grad.begin(), layer.weights.grad.end(), 0.0);
      std::fill(layer.bias.grad.begin(), layer.bias.grad.end(), 0.0);
    }
  }

  void Step(const AdamConfig& adam) {
    ++adam_step_;
    for (Layer& layer : layers_) {
      layer.weights.AdamStep(adam, adam_step_);
      layer.bias.AdamStep(adam, adam_step_);
    }
  }

  /// The bytes MlpNet::SaveState writes for these values.
  void SaveState(std::ostream& out) const {
    WritePod<uint64_t>(out, layers_.size());
    for (const Layer& layer : layers_) {
      WriteVec(out, layer.weights.value);
      WriteVec(out, layer.bias.value);
    }
  }

  const RefParam& weights(size_t l) const { return layers_[l].weights; }
  /// Hidden activations of the last Forward that the ReLU clipped to 0.
  size_t ClippedActivations() const {
    size_t clipped = 0;
    for (size_t l = 1; l + 1 < activations_.size(); ++l) {
      const Matrix& a = activations_[l];
      clipped += std::count(a.Raw(), a.Raw() + a.size(), 0.0);
    }
    return clipped;
  }
  const RefParam& bias(size_t l) const { return layers_[l].bias; }

 private:
  struct Layer {
    RefParam weights, bias;
    size_t in_dim = 0;
    size_t out_dim = 0;
  };
  std::vector<Layer> layers_;
  std::vector<Matrix> activations_;
  long adam_step_ = 0;
};

/// Bitwise equality of two arrays: tells +0.0 from -0.0 and compares NaN
/// payloads.
::testing::AssertionResult BitsEqual(const double* got, const double* want,
                                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a = std::bit_cast<uint64_t>(got[i]);
    const uint64_t b = std::bit_cast<uint64_t>(want[i]);
    if (a != b) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << " vs " << want[i]
             << " (bits " << std::hex << a << " vs " << b << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitsEqual(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  return BitsEqual(got.Raw(), want.Raw(), got.size());
}

::testing::AssertionResult BitsEqual(const Param& got, const RefParam& want) {
  if (got.size() != want.value.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  const size_t n = got.size();
  for (auto [g, w, what] :
       {std::tuple{&got.value, &want.value, "value"},
        std::tuple{&got.grad, &want.grad, "grad"},
        std::tuple{&got.m, &want.m, "m"}, std::tuple{&got.v, &want.v, "v"}}) {
    ::testing::AssertionResult same = BitsEqual(g->data(), w->data(), n);
    if (!same) return same << " in " << what;
  }
  return ::testing::AssertionSuccess();
}

/// Gaussian entries with exact 0.0 and -0.0 mixed in.
Matrix MixedInputs(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const int pick = rng->UniformInt(0, 9);
      m(r, c) = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng->Gaussian();
    }
  }
  return m;
}

struct KernelCase {
  size_t input_dim;
  std::vector<size_t> hidden;
  size_t output_dim;
  size_t batch;
  bool scalar;
};

std::string CaseName(const KernelCase& c) {
  std::string name = "in" + std::to_string(c.input_dim);
  for (size_t h : c.hidden) name += "_h" + std::to_string(h);
  return name + "_out" + std::to_string(c.output_dim) + "_batch" +
         std::to_string(c.batch) + (c.scalar ? "_scalar" : "_vector");
}

void PrintTo(const KernelCase& c, std::ostream* os) { *os << CaseName(c); }

class MlpKernels : public ::testing::TestWithParam<KernelCase> {};

// Several training steps on the new kernels and on the reference loops:
// outputs, gradients, Adam moments and weights must be the same bits
// after every step. The gradients hold exact zeros (skipped rows), -0.0,
// and, on one row, an input of +Inf whose gradient is zero: that row is
// skipped everywhere, so a kernel that adds its zero gradient writes NaN.
TEST_P(MlpKernels, MatchTheReferenceLoopsBitForBit) {
  const KernelCase& c = GetParam();
  simd::ScopedForceScalar scalar(c.scalar);
  MlpNetConfig config;
  config.input_dim = c.input_dim;
  config.hidden_dims = c.hidden;
  config.output_dim = c.output_dim;
  Rng rng(31);
  MlpNet net(config, &rng);
  RefNet ref(net);
  AdamConfig adam;
  adam.learning_rate = 0.01;
  const size_t layers = c.hidden.size() + 1;
  size_t clipped = 0;
  for (int step = 0; step < 6; ++step) {
    Matrix inputs = MixedInputs(c.batch, c.input_dim, &rng);
    const size_t inf_row = c.batch - 1;
    if (step == 2) inputs(inf_row, 0) = std::numeric_limits<double>::infinity();
    const Matrix out = net.Forward(inputs);
    ASSERT_TRUE(BitsEqual(out, ref.Forward(inputs))) << "step " << step;
    ASSERT_TRUE(BitsEqual(net.Infer(inputs), out)) << "step " << step;
    Matrix grad(out.rows(), out.cols());
    for (size_t r = 0; r < grad.rows(); ++r) {
      for (size_t k = 0; k < grad.cols(); ++k) {
        const int pick = rng.UniformInt(0, 5);
        grad(r, k) = pick == 0 ? 0.0 : pick == 1 ? -0.0 : rng.Gaussian();
        if (step == 2 && r == inf_row) grad(r, k) = 0.0;
      }
    }
    net.ZeroGrads();
    ref.ZeroGrads();
    net.Backward(grad);
    ref.Backward(grad);
    for (size_t l = 0; l < layers; ++l) {
      ASSERT_TRUE(BitsEqual(net.weights(l), ref.weights(l)))
          << "weights of layer " << l << " after Backward, step " << step;
      ASSERT_TRUE(BitsEqual(net.bias(l), ref.bias(l)))
          << "bias of layer " << l << " after Backward, step " << step;
    }
    net.Step(adam);
    ref.Step(adam);
    for (size_t l = 0; l < layers; ++l) {
      ASSERT_TRUE(BitsEqual(net.weights(l), ref.weights(l)))
          << "weights of layer " << l << " after Step, step " << step;
      ASSERT_TRUE(BitsEqual(net.bias(l), ref.bias(l)))
          << "bias of layer " << l << " after Step, step " << step;
    }
    clipped += ref.ClippedActivations();
  }
  // The hidden ReLUs clip, so the gate is exercised.
  EXPECT_GT(clipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpKernels,
    ::testing::Values(KernelCase{20, {32}, 2, 1, false},
                      KernelCase{20, {32}, 2, 61, false},
                      KernelCase{13, {7, 5}, 3, 1, false},
                      KernelCase{13, {7, 5}, 3, 61, false},
                      KernelCase{20, {32}, 2, 1, true},
                      KernelCase{20, {32}, 2, 61, true},
                      KernelCase{13, {7, 5}, 3, 1, true},
                      KernelCase{13, {7, 5}, 3, 61, true}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return CaseName(info.param);
    });

// A NaN activation keeps its gradient through the ReLU gate (NaN <= 0 is
// false), as the reference's branch does.
TEST(MlpKernels, NanActivationKeepsItsGradient) {
  for (bool force_scalar : {false, true}) {
    simd::ScopedForceScalar scalar(force_scalar);
    MlpNetConfig config;
    config.input_dim = 13;
    config.hidden_dims = {7, 5};
    config.output_dim = 3;
    Rng rng(32);
    MlpNet net(config, &rng);
    RefNet ref(net);
    Matrix inputs = MixedInputs(9, 13, &rng);
    inputs(4, 3) = std::numeric_limits<double>::quiet_NaN();
    const Matrix out = net.Forward(inputs);
    ASSERT_TRUE(BitsEqual(out, ref.Forward(inputs)));
    Matrix grad(out.rows(), out.cols(), 0.5);
    net.ZeroGrads();
    ref.ZeroGrads();
    net.Backward(grad);
    ref.Backward(grad);
    for (size_t l = 0; l < 3; ++l) {
      ASSERT_TRUE(BitsEqual(net.weights(l), ref.weights(l))) << "layer " << l;
      ASSERT_TRUE(BitsEqual(net.bias(l), ref.bias(l))) << "layer " << l;
    }
    // Row 4's layer-1 units all read NaN; kept gradients times the NaN
    // layer-0 activations make NaN weight gradients.
    const std::vector<double>& g1 = net.weights(1).grad;
    EXPECT_TRUE(std::any_of(g1.begin(), g1.end(),
                            [](double g) { return std::isnan(g); }));
  }
}

/// MlpClassifier::Train's loop, on the reference net: the state bytes
/// the classifier wrote before its kernels changed.
std::string RefClassifierState(const Matrix& features,
                               const std::vector<int>& labels,
                               int num_classes, const ModelConfig& config) {
  Rng rng(config.seed);
  MlpNetConfig net_config;
  net_config.input_dim = features.cols();
  net_config.hidden_dims = {static_cast<size_t>(config.mlp_hidden)};
  net_config.output_dim = static_cast<size_t>(num_classes);
  RefNet net(MlpNet(net_config, &rng));
  AdamConfig adam;
  adam.learning_rate = config.mlp_step;
  const size_t n = features.rows();
  const size_t batch_size =
      std::min<size_t>(static_cast<size_t>(config.mlp_batch), n);
  for (int epoch = 0; epoch < config.mlp_epochs; ++epoch) {
    std::vector<size_t> order = rng.Permutation(n);
    for (size_t start = 0; start < n; start += batch_size) {
      size_t end = std::min(start + batch_size, n);
      std::vector<size_t> batch(order.begin() + start, order.begin() + end);
      Matrix logits = net.Forward(features.SelectRows(batch));
      Matrix grad(logits.rows(), logits.cols());
      const double inv_batch = 1.0 / static_cast<double>(batch.size());
      for (size_t r = 0; r < logits.rows(); ++r) {
        const double* z = logits.RowPtr(r);
        double* g = grad.RowPtr(r);
        double max_logit = *std::max_element(z, z + num_classes);
        double denom = 0.0;
        for (int k = 0; k < num_classes; ++k) {
          g[k] = std::exp(std::clamp(z[k] - max_logit, -500.0, 0.0));
          denom += g[k];
        }
        int label = labels[batch[r]];
        for (int k = 0; k < num_classes; ++k) {
          g[k] = (g[k] / denom - (k == label ? 1.0 : 0.0)) * inv_batch;
        }
      }
      net.ZeroGrads();
      net.Backward(grad);
      net.Step(adam);
    }
  }
  std::ostringstream out;
  WritePod<int32_t>(out, num_classes);
  WritePod<uint64_t>(out, net_config.input_dim);
  WritePod<uint64_t>(out, net_config.hidden_dims.size());
  for (size_t h : net_config.hidden_dims) WritePod<uint64_t>(out, h);
  WritePod<uint64_t>(out, net_config.output_dim);
  net.SaveState(out);
  return out.str();
}

// The classifier the MLP search cells train writes the reference's state
// bytes: default config on 1000 training rows of sylvine_syn.
TEST(MlpKernels, ClassifierStateBytesMatchTheReference) {
  const Dataset data = GetSuiteDataset("sylvine_syn").value();
  Rng split_rng(7);
  const TrainValidSplit split = SplitTrainValid(data, 0.8, &split_rng);
  std::vector<size_t> rows(1000);
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  const Matrix features = split.train.features.SelectRows(rows);
  const std::vector<int> labels(split.train.labels.begin(),
                                split.train.labels.begin() + 1000);
  const ModelConfig config = ModelConfig::Defaults(ModelKind::kMlp);
  for (bool force_scalar : {false, true}) {
    simd::ScopedForceScalar scalar(force_scalar);
    MlpClassifier model(config);
    model.Train(features, labels, 2);
    std::ostringstream state;
    model.SaveState(state);
    EXPECT_TRUE(state.str() == RefClassifierState(features, labels, 2, config))
        << (force_scalar ? "scalar" : "vector");
  }
}

TEST(LstmNet, OutputShapes) {
  LstmNetConfig config;
  config.vocab_size = 5;
  config.embed_dim = 4;
  config.hidden_dim = 6;
  config.output_dim = 3;
  Rng rng(6);
  LstmNet net(config, &rng);
  std::vector<std::vector<double>> outputs = net.Forward({0, 2, 4});
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& output : outputs) EXPECT_EQ(output.size(), 3u);
}

TEST(LstmNet, DeterministicForward) {
  LstmNetConfig config;
  config.vocab_size = 4;
  Rng rng_a(7), rng_b(7);
  LstmNet a(config, &rng_a), b(config, &rng_b);
  std::vector<std::vector<double>> out_a = a.Forward({1, 2, 3});
  std::vector<std::vector<double>> out_b = b.Forward({1, 2, 3});
  for (size_t t = 0; t < out_a.size(); ++t) {
    EXPECT_DOUBLE_EQ(out_a[t][0], out_b[t][0]);
  }
}

TEST(LstmNet, SequenceOrderMatters) {
  LstmNetConfig config;
  config.vocab_size = 4;
  Rng rng(8);
  LstmNet net(config, &rng);
  double last_a = net.Forward({1, 2}).back()[0];
  double last_b = net.Forward({2, 1}).back()[0];
  EXPECT_NE(last_a, last_b);
}

TEST(LstmNet, GradientDescentReducesRegressionLoss) {
  // Learn to output +1 for sequences ending in token 1, -1 for token 2.
  LstmNetConfig config;
  config.vocab_size = 3;
  config.embed_dim = 4;
  config.hidden_dim = 8;
  config.output_dim = 1;
  Rng rng(9);
  LstmNet net(config, &rng);
  std::vector<std::pair<std::vector<int>, double>> examples = {
      {{0, 1}, 1.0}, {{0, 2}, -1.0}, {{2, 1}, 1.0}, {{1, 2}, -1.0},
      {{0, 0, 1}, 1.0}, {{1, 1, 2}, -1.0}};
  AdamConfig adam;
  adam.learning_rate = 0.02;
  auto total_loss = [&]() {
    double loss = 0.0;
    for (const auto& [tokens, target] : examples) {
      double out = net.Forward(tokens).back()[0];
      loss += (out - target) * (out - target);
    }
    return loss;
  };
  double before = total_loss();
  for (int epoch = 0; epoch < 150; ++epoch) {
    for (const auto& [tokens, target] : examples) {
      std::vector<std::vector<double>> outputs = net.Forward(tokens);
      std::vector<std::vector<double>> grads(tokens.size(),
                                             std::vector<double>(1, 0.0));
      grads.back()[0] = 2.0 * (outputs.back()[0] - target);
      net.ZeroGrads();
      net.Backward(tokens, grads);
      net.Step(adam);
    }
  }
  double after = total_loss();
  EXPECT_LT(after, before * 0.1);
  // Check the learned separation.
  EXPECT_GT(net.Forward({2, 0, 1}).back()[0], 0.0);
  EXPECT_LT(net.Forward({0, 1, 2}).back()[0], 0.0);
}

TEST(LstmNet, NumParametersPositive) {
  LstmNetConfig config;
  config.vocab_size = 3;
  Rng rng(10);
  LstmNet net(config, &rng);
  EXPECT_GT(net.num_parameters(), 0u);
}

}  // namespace
}  // namespace autofp
