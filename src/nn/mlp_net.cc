#include "nn/mlp_net.h"

#include "util/serialize.h"
#include "util/simd.h"

#include <algorithm>
#include <iterator>
#include <vector>

namespace autofp {

MlpNet::MlpNet(const MlpNetConfig& config, Rng* rng) : config_(config) {
  AUTOFP_CHECK_GT(config.input_dim, 0u);
  AUTOFP_CHECK_GT(config.output_dim, 0u);
  std::vector<size_t> dims;
  dims.push_back(config.input_dim);
  for (size_t h : config.hidden_dims) dims.push_back(h);
  dims.push_back(config.output_dim);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    Layer layer;
    layer.in_dim = dims[i];
    layer.out_dim = dims[i + 1];
    layer.weights.Resize(layer.in_dim * layer.out_dim);
    layer.weights.InitGlorot(layer.in_dim, layer.out_dim, rng);
    layer.bias.Resize(layer.out_dim);
    layers_.push_back(std::move(layer));
  }
}

namespace {

using simd::VecD;
constexpr size_t kLanes = VecD::kLanes;

/// Vector paths on unless the build is scalar or ForceScalar is set.
bool UseVectors() { return kLanes > 1 && !simd::ForceScalarEnabled(); }

// The tiles below hold their accumulators in VecD arrays. The unroll
// pragmas let GCC keep them in registers: at -O2 it otherwise leaves the
// loops over a tile rolled and the arrays on the stack, which measured
// ~1.5-2x slower per kernel.

/// sums[o] = Dot(w + o * in_dim, x, in_dim) for kOuts outputs at one
/// load of x per vector: each sum keeps its own register in exactly
/// simd::Dot's order (lane-striped, Sum(), then the scalar tail), so each
/// is the bits Dot returns.
template <size_t kOuts>
void DotTile(const double* x, const double* w, size_t in_dim, double* sums) {
  const size_t vec_end = in_dim - in_dim % kLanes;
  VecD acc[kOuts];
#pragma GCC unroll 4
  for (size_t o = 0; o < kOuts; ++o) acc[o] = VecD::Zero();
  for (size_t i = 0; i < vec_end; i += kLanes) {
    const VecD xv = VecD::Load(x + i);
#pragma GCC unroll 4
    for (size_t o = 0; o < kOuts; ++o) {
      acc[o] = acc[o] + VecD::Load(w + o * in_dim + i) * xv;
    }
  }
#pragma GCC unroll 4
  for (size_t o = 0; o < kOuts; ++o) {
    double sum = acc[o].Sum();
    const double* wo = w + o * in_dim;
    for (size_t i = vec_end; i < in_dim; ++i) sum += wo[i] * x[i];
    sums[o] = sum;
  }
}

/// out(r, o) = bias[o] + Dot(w row o, in row r), ReLU'd when `relu`: the
/// one dense-layer kernel of Forward and Infer, in tiles of up to 4
/// outputs per row load. A lone output and the scalar path call Dot.
void DenseLayer(const Matrix& in, const double* w, const double* bias,
                size_t in_dim, size_t out_dim, bool relu, Matrix* out) {
  const size_t tile = UseVectors() ? 4 : 1;
  double sums[4] = {};
  for (size_t r = 0; r < in.rows(); ++r) {
    const double* x = in.RowPtr(r);
    double* y = out->RowPtr(r);
    for (size_t o = 0; o < out_dim;) {
      const double* wo = w + o * in_dim;
      const size_t outs = std::min(tile, out_dim - o);
      switch (outs) {
        case 4: DotTile<4>(x, wo, in_dim, sums); break;
        case 3: DotTile<3>(x, wo, in_dim, sums); break;
        case 2: DotTile<2>(x, wo, in_dim, sums); break;
        default: sums[0] = simd::Dot(wo, x, in_dim); break;
      }
      for (size_t k = 0; k < outs; ++k, ++o) {
        const double sum = bias[o] + sums[k];
        y[o] = relu ? std::max(sum, 0.0) : sum;
      }
    }
  }
}

/// dst[i] += scale[j] * src[j][i] for j = 0..count-1 in order, over
/// kVecs vectors from dst + at: each element is a chain of Axpy's
/// mul-then-add steps, held in a register across the whole chain.
template <size_t kVecs>
void AddScaledBlock(const double* const* src, const double* scale,
                    size_t count, size_t at, double* dst) {
  VecD acc[kVecs];
#pragma GCC unroll 8
  for (size_t k = 0; k < kVecs; ++k) {
    acc[k] = VecD::Load(dst + at + k * kLanes);
  }
  for (size_t j = 0; j < count; ++j) {
    const VecD s = VecD::Set1(scale[j]);
    const double* x = src[j] + at;
#pragma GCC unroll 8
    for (size_t k = 0; k < kVecs; ++k) {
      acc[k] = acc[k] + s * VecD::Load(x + k * kLanes);
    }
  }
#pragma GCC unroll 8
  for (size_t k = 0; k < kVecs; ++k) acc[k].Store(dst + at + k * kLanes);
}

/// dst[i] += scale[j] * src[j][i] over i < n and, per element, over j in
/// order: the bits of `count` Axpy calls in a row, at one dst load and
/// store per element.
void AddScaledRows(const double* const* src, const double* scale,
                   size_t count, double* dst, size_t n) {
  using Block = void (*)(const double* const*, const double*, size_t, size_t,
                         double*);
  static constexpr Block kBlocks[] = {
      nullptr,           AddScaledBlock<1>, AddScaledBlock<2>,
      AddScaledBlock<3>, AddScaledBlock<4>, AddScaledBlock<5>,
      AddScaledBlock<6>, AddScaledBlock<7>, AddScaledBlock<8>};
  constexpr size_t kMaxVecs = std::size(kBlocks) - 1;
  size_t i = 0;
  if (UseVectors()) {
    for (size_t vecs = (n - i) / kLanes; vecs > 0; vecs = (n - i) / kLanes) {
      const size_t take = std::min(vecs, kMaxVecs);
      kBlocks[take](src, scale, count, i, dst);
      i += take * kLanes;
    }
  }
  for (; i < n; ++i) {
    double sum = dst[i];
    for (size_t j = 0; j < count; ++j) sum += scale[j] * src[j][i];
    dst[i] = sum;
  }
}

/// ReLU gate: zero each gradient whose activation was clipped (a <= 0).
/// A NaN activation keeps its gradient, as the compare is false.
void ReluGate(const Matrix& activations, Matrix* grad) {
  const double* a = activations.RowPtr(0);
  double* g = grad->RowPtr(0);
  const size_t n = grad->size();
  size_t i = 0;
  if (UseVectors()) {
    const VecD zero = VecD::Zero();
    for (; i + kLanes <= n; i += kLanes) {
      VecD::Select(VecD::Le(VecD::Load(a + i), zero), zero, VecD::Load(g + i))
          .Store(g + i);
    }
  }
  for (; i < n; ++i) g[i] = a[i] <= 0.0 ? 0.0 : g[i];
}

}  // namespace

Matrix MlpNet::Forward(const Matrix& inputs) {
  AUTOFP_CHECK_EQ(inputs.cols(), config_.input_dim);
  activations_.clear();
  activations_.push_back(inputs);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Matrix out(inputs.rows(), layer.out_dim);
    DenseLayer(activations_.back(), layer.weights.value.data(),
               layer.bias.value.data(), layer.in_dim, layer.out_dim,
               /*relu=*/l + 1 < layers_.size(), &out);
    activations_.push_back(std::move(out));
  }
  return activations_.back();
}

Matrix MlpNet::Infer(const Matrix& inputs) const {
  AUTOFP_CHECK_EQ(inputs.cols(), config_.input_dim);
  Matrix current = inputs;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    Matrix out(inputs.rows(), layer.out_dim);
    DenseLayer(current, layer.weights.value.data(), layer.bias.value.data(),
               layer.in_dim, layer.out_dim, /*relu=*/l + 1 < layers_.size(),
               &out);
    current = std::move(out);
  }
  return current;
}

void MlpNet::Backward(const Matrix& grad_outputs) {
  AUTOFP_CHECK_EQ(activations_.size(), layers_.size() + 1)
      << "Backward without matching Forward";
  AUTOFP_CHECK_EQ(grad_outputs.rows(), activations_.back().rows());
  AUTOFP_CHECK_EQ(grad_outputs.cols(), config_.output_dim);
  const size_t rows = grad_outputs.rows();
  size_t widest = 0;
  for (const Layer& layer : layers_) widest = std::max(widest, layer.out_dim);
  // The rows (or units) whose gradient is nonzero, with that gradient,
  // gathered without branches. Zero gradients are skipped, so a
  // non-finite input times a zero gradient adds no NaN.
  std::vector<const double*> src(std::max(rows, widest));
  std::vector<double> scale(src.size());
  Matrix grad = grad_outputs;
  for (size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const Matrix& in = activations_[l];
    const size_t in_dim = layer.in_dim;
    const size_t out_dim = layer.out_dim;
    const double* g = grad.RowPtr(0);
    // Parameter gradients, one output unit at a time, rows in order.
    for (size_t o = 0; o < out_dim; ++o) {
      size_t count = 0;
      for (size_t r = 0; r < rows; ++r) {
        const double gv = g[r * out_dim + o];
        src[count] = in.RowPtr(r);
        scale[count] = gv;
        count += gv != 0.0;
      }
      AddScaledRows(src.data(), scale.data(), count,
                    layer.weights.grad.data() + o * in_dim, in_dim);
      double& bias_grad = layer.bias.grad[o];
      for (size_t j = 0; j < count; ++j) bias_grad += scale[j];
    }
    // Input gradient for the next (earlier) layer, units in order, then
    // that layer's ReLU gate.
    if (l > 0) {
      Matrix grad_in(rows, in_dim, 0.0);
      const double* w = layer.weights.value.data();
      for (size_t r = 0; r < rows; ++r) {
        const double* g_row = g + r * out_dim;
        size_t count = 0;
        for (size_t o = 0; o < out_dim; ++o) {
          const double gv = g_row[o];
          src[count] = w + o * in_dim;
          scale[count] = gv;
          count += gv != 0.0;
        }
        AddScaledRows(src.data(), scale.data(), count, grad_in.RowPtr(r),
                      in_dim);
      }
      ReluGate(in, &grad_in);
      grad = std::move(grad_in);
    }
  }
}

void MlpNet::ZeroGrads() {
  for (Layer& layer : layers_) {
    layer.weights.ZeroGrad();
    layer.bias.ZeroGrad();
  }
}

void MlpNet::Step(const AdamConfig& adam) {
  ++adam_step_;
  for (Layer& layer : layers_) {
    layer.weights.AdamStep(adam, adam_step_);
    layer.bias.AdamStep(adam, adam_step_);
  }
}

size_t MlpNet::num_parameters() const {
  size_t total = 0;
  for (const Layer& layer : layers_) {
    total += layer.weights.size() + layer.bias.size();
  }
  return total;
}

void MlpNet::SaveState(std::ostream& out) const {
  WritePod<uint64_t>(out, layers_.size());
  for (const Layer& layer : layers_) {
    WriteVec(out, layer.weights.value);
    WriteVec(out, layer.bias.value);
  }
}

Status MlpNet::LoadState(std::istream& in) {
  const Status malformed =
      Status::InvalidArgument("MlpNet: malformed state blob");
  uint64_t num_layers = 0;
  if (!ReadPod(in, &num_layers) || num_layers != layers_.size()) {
    return malformed;
  }
  for (Layer& layer : layers_) {
    std::vector<double> weights, bias;
    if (!ReadVec(in, &weights) || weights.size() != layer.weights.size() ||
        !ReadVec(in, &bias) || bias.size() != layer.bias.size()) {
      return malformed;
    }
    layer.weights.value = std::move(weights);
    layer.bias.value = std::move(bias);
    layer.weights.ZeroGrad();
    layer.bias.ZeroGrad();
  }
  adam_step_ = 0;
  return Status::OK();
}

}  // namespace autofp
