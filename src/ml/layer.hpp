#pragma once

#include <span>
#include <string>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace airfedga::ml {

/// View over one learnable parameter block and its gradient accumulator.
struct ParamView {
  std::span<float> value;
  std::span<float> grad;
};

/// Base class for all layers.
///
/// Layers own their output and input-gradient buffers and return them by
/// reference from forward/backward: the buffers are resized in place
/// (capacity reused) every call, so steady-state training allocates
/// nothing. A layer instance therefore serves one in-flight (forward,
/// backward) pair at a time, which matches the sequential training loop
/// used by the federated workers (each mechanism keeps a single scratch
/// model and swaps worker weights in and out as flat vectors).
///
/// Train/eval mode: in training mode (the default) `forward` caches
/// whatever `backward` needs (inputs, masks, argmaxes); in eval mode those
/// caches are skipped entirely, so inference does no gradient bookkeeping
/// and `backward` throws until a training-mode forward runs.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output into an internal buffer and returns it. The
  /// reference is valid until the next forward call on this instance.
  virtual const Tensor& forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input) (internal buffer, valid until the next backward call;
  /// may be empty when `input_grad()` is off). Must be called after a
  /// *training-mode* `forward`.
  virtual const Tensor& backward(const Tensor& grad_out) = 0;

  /// Learnable parameter blocks (empty for stateless layers).
  virtual std::vector<ParamView> params() { return {}; }

  /// Re-draws the initial weights.
  virtual void init(util::Rng&) {}

  /// Switches between training mode (backward caches kept) and eval mode
  /// (no gradient bookkeeping).
  void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const { return training_; }

  /// Whether `backward` computes dL/d(input). On by default; `Model::add`
  /// turns it off for a model's first layer, whose input gradient nothing
  /// reads. Layers with parameters then skip that work and `backward`
  /// returns an empty tensor; parameter gradients are unaffected.
  void set_input_grad(bool on) { input_grad_ = on; }
  [[nodiscard]] bool input_grad() const { return input_grad_; }

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// What `backward` returns when `input_grad()` is off.
  static const Tensor& no_input_grad() {
    static const Tensor empty;
    return empty;
  }

  bool training_ = true;
  bool input_grad_ = true;
};

}  // namespace airfedga::ml
