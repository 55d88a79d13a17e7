#pragma once

#include <array>

#include "ml/layer.hpp"

namespace airfedga::ml {

/// The patch matrix of a stride-1 convolution as a GEMM B operand, packed
/// straight from a zero-padded NCHW input (`xpad`, planes of hp x wp)
/// without being stored. The matrix has one row per (channel, ki, kj) and
/// one column per (sample, oi, oj) of the (hp-k+1) x (wp-k+1) output, and
/// entry xpad[sample][channel][oi+ki][oj+kj]. As a `PanelPacker` it writes
/// the panels `pack_b_panels` would write for the stored matrix (N), or,
/// with `transposed`, for its transpose (T: the B operand of dW).
class PatchPanels {
 public:
  PatchPanels(const float* xpad, std::size_t channels, std::size_t kernel, std::size_t hp,
              std::size_t wp, bool transposed);

  void operator()(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                  float* bp) const;

 private:
  /// Offset into xpad of patch row r's entries, relative to its column's.
  [[nodiscard]] std::size_t row_offset(std::size_t r) const;
  /// Offset into xpad of column q's entry in patch row 0.
  [[nodiscard]] std::size_t col_offset(std::size_t q) const;
  void pack(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc, float* bp) const;
  void pack_transposed(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                       float* bp) const;

  const float* xpad_;
  std::size_t cin_, k_, hp_, wp_, ow_, np_;
  bool transposed_;
};

/// 2-D convolution over NCHW activations (stride 1, symmetric zero padding)
/// as implicit GEMMs: the GEMMs pack their patch-matrix panels straight
/// from a zero-padded copy of the input (`PatchPanels`), so no patch matrix
/// is ever stored.
///
/// A training forward pads the whole batch into a per-layer buffer, which
/// backward's dW GEMM reads again: one N.T GEMM over the whole batch's
/// columns. The forward GEMM runs per chunk of samples, and so do dcols and
/// col2im in backward, which scatter-adds into a zero-padded dx chunk and
/// crops it. The chunk is only a budget on workspace floats: each forward
/// output sums over patch rows, each dcols entry over output channels, and
/// each dx pixel belongs to one sample, so any chunking gives the same
/// bits. An eval forward pads chunk by chunk into the thread-local
/// workspace arena, so it pins at most one chunk there. Steady-state steps
/// allocate nothing.
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
  /// Writes samples [s0, s1) of `x`, zero-padded, to `xp`.
  void pad_samples(const Tensor& x, std::size_t s0, std::size_t s1, float* xp) const;
  /// Scatter-adds the patch-matrix gradient of samples [s0, s1) into the
  /// zero-padded scratch `dxp`, then crops it into dx_.
  void col2im(const float* dcols, std::size_t s0, std::size_t s1, float* dxp);

  std::size_t cin_, cout_, k_, pad_;
  Tensor weight_;       // (cout, cin*k*k) flattened kernel matrix
  Tensor bias_;         // (cout)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor xpad_;         // training forward's zero-padded input, for dW
  std::array<std::size_t, 4> in_shape_{};  // training forward's input shape
  Tensor out_;          // (N, cout, OH, OW) forward output buffer
  Tensor dx_;           // (N, C, H, W) backward output buffer
};

}  // namespace airfedga::ml
