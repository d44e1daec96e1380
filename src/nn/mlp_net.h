#ifndef AUTOFP_NN_MLP_NET_H_
#define AUTOFP_NN_MLP_NET_H_

#include <cstddef>
#include <vector>

#include "nn/param.h"
#include "util/matrix.h"
#include "util/status.h"
#include "util/random.h"

namespace autofp {

/// Architecture of a fully-connected net: ReLU on hidden layers, identity
/// on the output layer (losses are applied by the caller, so the same net
/// serves softmax classification and MSE regression).
struct MlpNetConfig {
  size_t input_dim = 0;
  std::vector<size_t> hidden_dims = {64};
  size_t output_dim = 1;
};

/// Minimal feed-forward network with manual backprop and Adam. Used by the
/// downstream MLP classifier and by the Progressive-NAS MLP surrogate.
class MlpNet {
 public:
  MlpNet(const MlpNetConfig& config, Rng* rng);

  /// Batch forward pass; returns (batch x output_dim) raw outputs.
  /// Caches activations for a subsequent Backward().
  Matrix Forward(const Matrix& inputs);

  /// Inference-only forward pass: no caching, usable on const nets.
  Matrix Infer(const Matrix& inputs) const;

  /// Accumulates parameter gradients for dLoss/dOutput `grad_outputs`
  /// (same shape as the last Forward's return value). Must be called after
  /// Forward on the same inputs.
  void Backward(const Matrix& grad_outputs);

  void ZeroGrads();

  /// Applies one Adam update to every parameter block.
  void Step(const AdamConfig& adam);

  size_t num_parameters() const;

  /// Serializes the parameter values (weights and biases; optimizer
  /// moments are training-only state and are not persisted). Encoding per
  /// util/serialize.h.
  void SaveState(std::ostream& out) const;
  /// Restores parameter values written by SaveState into a net built with
  /// the same MlpNetConfig; shape mismatches are InvalidArgument.
  Status LoadState(std::istream& in);

  const MlpNetConfig& config() const { return config_; }

  /// Layer `l`'s weights (out_dim x in_dim, row-major) and bias, with
  /// their gradients and Adam moments, for inspection.
  const Param& weights(size_t l) const { return layers_.at(l).weights; }
  const Param& bias(size_t l) const { return layers_.at(l).bias; }

 private:
  struct Layer {
    Param weights;  ///< out_dim x in_dim, row-major.
    Param bias;     ///< out_dim.
    size_t in_dim = 0;
    size_t out_dim = 0;
  };

  MlpNetConfig config_;
  std::vector<Layer> layers_;
  /// Forward caches: activations_[0] is the input, activations_[i] the
  /// post-ReLU output of layer i-1 (post-identity for the last layer).
  std::vector<Matrix> activations_;
  long adam_step_ = 0;
};

}  // namespace autofp

#endif  // AUTOFP_NN_MLP_NET_H_
