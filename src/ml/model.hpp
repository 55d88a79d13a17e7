#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/layer.hpp"
#include "ml/loss.hpp"
#include "ml/tensor.hpp"

namespace airfedga::ml {

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Unnormalized partial evaluation sums over a row range: loss and correct
/// predictions, each already weighted by the number of rows. Partial sums
/// from disjoint ranges are combined by plain addition in range order, so
/// a sharded evaluation reproduces the serial batch loop bit-for-bit.
struct EvalSums {
  double loss_sum = 0.0;
  double acc_sum = 0.0;
};

/// Sequential model with a softmax cross-entropy head.
///
/// The federated mechanisms treat a model as an opaque flat parameter
/// vector (that is exactly what is transmitted over the air, Eq. 9), so the
/// central API here is `parameters()` / `set_parameters()` round-tripping,
/// plus gradient evaluation at the currently-loaded parameters.
///
/// Allocation discipline: layers reuse their output/gradient buffers, the
/// flat-vector helpers have `_into` variants, and parameter views are
/// cached after the first walk — so once shapes reach steady state, a
/// train_step performs zero heap allocations (gemm_test pins this down).
class Model {
 public:
  Model() = default;

  // Move-only: layers own per-instance caches.
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Appends a layer. The first layer added gets `set_input_grad(false)`:
  /// training never reads dL/d(input), so its backward skips that work.
  void add(std::unique_ptr<Layer> layer);

  /// Re-draws all layer weights from `rng`.
  void init(util::Rng& rng);

  /// Runs the layer stack; the returned reference points at the last
  /// layer's output buffer (valid until the next forward on this model).
  const Tensor& forward(const Tensor& x);

  /// Training mode caches backward state in the layers; eval mode skips all
  /// gradient bookkeeping (train_step/compute_gradient switch to training,
  /// evaluate/evaluate_range to eval, so explicit calls are rarely needed).
  void set_training(bool training);
  [[nodiscard]] bool is_training() const { return training_; }

  [[nodiscard]] std::size_t num_parameters() const;

  /// Flattened copy of all parameter blocks, in layer order.
  [[nodiscard]] std::vector<float> parameters() const;
  /// `parameters()` into a reused vector (no allocation at steady capacity).
  void parameters_into(std::vector<float>& out) const;
  void set_parameters(std::span<const float> flat);

  /// Flattened copy of the accumulated gradients.
  [[nodiscard]] std::vector<float> gradients() const;
  /// `gradients()` into a reused vector (no allocation at steady capacity).
  void gradients_into(std::vector<float>& out) const;
  void zero_grad();

  /// Computes mean loss on (x, y), leaves gradients accumulated in the
  /// layers, and writes the flattened gradient to `grad_out`.
  double compute_gradient(const Tensor& x, std::span<const int> y, std::vector<float>& grad_out);

  /// One plain SGD step (Eq. 4): w <- w - lr * grad(batch). Returns loss.
  double train_step(const Tensor& x, std::span<const int> y, float lr);

  /// Mean loss/accuracy over the full (xs, ys), processed in mini-batches.
  EvalResult evaluate(const Tensor& xs, std::span<const int> ys, std::size_t batch_size = 256);

  /// One evaluation shard: unnormalized loss/accuracy sums over rows
  /// [begin, end) of (xs, ys), computed as a single forward pass. This is
  /// the batch body of `evaluate`, exposed so the driver can spread shards
  /// across training lanes and reduce the sums in fixed shard order with
  /// results identical to the serial loop.
  EvalSums evaluate_range(const Tensor& xs, std::span<const int> ys, std::size_t begin,
                          std::size_t end);

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  /// Parameter views walked once and cached (layer buffers are stable).
  const std::vector<ParamView>& views() const;

  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
  bool training_ = true;
  mutable std::vector<ParamView> views_;
  mutable std::size_t num_params_ = 0;
  Tensor eval_batch_;  ///< reused row-range buffer for evaluate_range
};

/// Builds fresh model instances; every FL mechanism owns one factory so all
/// workers share one architecture while exchanging flat weight vectors.
using ModelFactory = std::function<Model()>;

/// Extracts rows `indices` of `xs` along dimension 0 (works for 2-D and 4-D).
Tensor gather_rows(const Tensor& xs, std::span<const std::size_t> indices);

/// `gather_rows` into a reused tensor (no allocation at steady capacity).
void gather_rows_into(Tensor& out, const Tensor& xs, std::span<const std::size_t> indices);

/// Checkpointing: writes/reads a flat parameter vector in a small binary
/// format (magic + length + raw floats). `load_parameters` validates the
/// header and length so a truncated or foreign file fails loudly instead
/// of silently corrupting a model.
void save_parameters(const std::string& path, std::span<const float> params);
std::vector<float> load_parameters(const std::string& path);

}  // namespace airfedga::ml
