#pragma once

#include <array>

#include "ml/layer.hpp"

namespace airfedga::ml {

/// 2-D convolution over NCHW activations (stride 1, symmetric zero padding),
/// implemented as batched im2col + GEMM over cache-sized chunks of the
/// batch: each chunk of samples is lowered into one (C*k*k, chunk*OH*OW)
/// patch matrix and multiplied by the kernel matrix in one blocked GEMM.
/// One chunk rule (`chunk_samples`) serves the training forward, the eval
/// forward and backward. A training forward keeps every chunk's patch
/// matrix in a per-layer buffer, and backward runs dW, dcols and col2im
/// over those same chunks instead of lowering the input again. The
/// eval forward lowers into the thread-local workspace arena, so it pins
/// at most one chunk there. Steady-state steps allocate nothing.
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
  /// Samples per lowering chunk for a batch of `batch` samples with `np`
  /// output pixels each: the most whose patch matrix fits in 2^16 floats
  /// (256 KiB, L2-sized), rounded down to a multiple of the smallest count
  /// `a` with a*np % KC == 0 and never below `a`, so every chunk boundary
  /// falls on a KC slice boundary of the whole batch's dW depth. The whole
  /// batch when `a` exceeds it.
  [[nodiscard]] std::size_t chunk_samples(std::size_t batch, std::size_t np) const;

  std::size_t cin_, cout_, k_, pad_;
  Tensor weight_;       // (cout, cin*k*k) flattened kernel matrix
  Tensor bias_;         // (cout)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cols_;         // training forward's patch matrices, chunk after chunk
  std::array<std::size_t, 4> in_shape_{};  // training forward's input shape
  Tensor out_;          // (N, cout, OH, OW) forward output buffer
  Tensor dx_;           // (N, C, H, W) backward output buffer
};

}  // namespace airfedga::ml
