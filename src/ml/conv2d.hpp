#pragma once

#include "ml/layer.hpp"

namespace airfedga::ml {

/// 2-D convolution over NCHW activations (stride 1, symmetric zero padding),
/// implemented as *batched* im2col + one GEMM per batch: the whole batch is
/// lowered into a single (C*k*k, N*OH*OW) patch matrix in the thread-local
/// workspace arena, so a forward/backward pass costs one large blocked GEMM
/// instead of N small ones and allocates nothing in steady state.
///
/// Kernel tensor shape: (out_channels, in_channels, k, k).
class Conv2D : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding = 0);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<ParamView> params() override;
  void init(util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  [[nodiscard]] std::size_t out_height(std::size_t h) const { return h + 2 * pad_ - k_ + 1; }
  [[nodiscard]] std::size_t out_width(std::size_t w) const { return w + 2 * pad_ - k_ + 1; }

 private:
  /// Lowers samples [s0, s1) to a (C*k*k, (s1-s0)*OH*OW) patch matrix at
  /// `cols` (columns ordered sample-major, then row-major spatial). With
  /// "same" padding each (channel, ki, kj, sample) block is one shifted
  /// span of the input plane plus re-zeroed borders; other shapes copy per
  /// output row.
  void im2col_batched(const Tensor& x, std::size_t s0, std::size_t s1, float* cols) const;
  /// Scatters a patch-matrix gradient for samples [s0, s1) back onto `dx`
  /// (+=).
  void col2im_batched(const float* cols, std::size_t s0, std::size_t s1, Tensor& dx) const;

  std::size_t cin_, cout_, k_, pad_;
  Tensor weight_;       // (cout, cin*k*k) flattened kernel matrix
  Tensor bias_;         // (cout)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor input_cache_;  // (N, C, H, W), training mode only
  Tensor out_;          // (N, cout, OH, OW) forward output buffer
  Tensor dx_;           // (N, C, H, W) backward output buffer
};

}  // namespace airfedga::ml
