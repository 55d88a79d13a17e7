#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ml/layer.hpp"
#include "ml/tile.hpp"

namespace airfedga::ml {

/// 2-D convolution over NCHW activations (stride 1, symmetric zero padding)
/// as implicit GEMMs: no patch matrix is ever stored or packed. Every pass
/// runs ml::sgemm's register tile (src/ml/tile.hpp: NR columns, and as many
/// rows as its channel count and the registers allow) with its B operand
/// read in place, each depth row as pieces at per-row offsets, staged once
/// for all rows: four of NR/4 floats, or on the wide body six of 5
/// (see dW):
///  * forward: W times the patch matrix, B read from the zero-padded input.
///    The pieces cover output rows in the padded grid; their columns past
///    the row are computed and dropped. The tile stores NCHW plus the bias,
///    through ReLU (`t > 0 ? t : 0`) when the layer folds one in.
///  * dW: gy (grad_out as a cout x N*OH*OW matrix, packed from grad_out)
///    times the transposed patch matrix, over the whole batch's output
///    pixels in KC slices, B read from the padded input the training
///    forward kept. The tile columns are each channel's k x k window cells
///    in the padded grid, a window row a piece; at k = 5 the wide body
///    packs three into each 16-float half (30 of 32 columns live, not 20).
///  * dx: col2im(W^T gy) one tile of input channels x dx pixels at a time
///    (tile::Operands::shift set): for each kernel offset, the chain over
///    output channels from a zero-padded copy of the gradient planes, kept
///    with the running sums in registers and summed in col2im's order.
///  * db: every channel's sum in column order, side by side.
/// Every output float comes from the operations, in the order, of ml::sgemm
/// over the stored patch matrix followed by col2im: the bits are the same.
/// With ReLU folded in (the zoo's conv blocks), gy is grad_out times ReLU's
/// mask (1 where the training output is positive, else 0), as ReLU::backward
/// has it, applied where gy is read: dW's packing, which db reads, and dx's
/// gradient copy.
/// Each pass splits its tiles over util::parallel_for into units that write
/// disjoint outputs, so the split moves no bits either.
///
/// A training forward pads the whole batch into xpad_, which dW reads
/// again. An eval forward pads chunk by chunk into the thread-local
/// workspace arena, at most 2^16 floats a chunk; dx copies the whole
/// batch's gradient planes there, zero-padded. All three keep NR/4 zeroed
/// floats after the last sample for the pieces' reads. An eval forward
/// writes its own output buffer, so the training output (ReLU's mask)
/// survives it. Steady-state steps allocate nothing.
///
/// Kernel tensor shape: (out_channels, in_channels, k, k).
class Conv2D : public Layer {
 public:
  /// `relu` folds a following ReLU layer in: the same bits, fewer passes.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t padding = 0, bool relu = false);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  std::vector<ParamView> params() override;
  void init(util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  [[nodiscard]] std::size_t out_height(std::size_t h) const { return h + 2 * pad_ - k_ + 1; }
  [[nodiscard]] std::size_t out_width(std::size_t w) const { return w + 2 * pad_ - k_ + 1; }

 private:
  /// Writes samples [s0, s1) of `x`, zero-padded, to `xp`, followed by the
  /// zeroed slack the tiles' reads run into.
  void pad_samples(const Tensor& x, std::size_t s0, std::size_t s1, float* xp) const;
  /// Fills row_off_ for padded planes of hp x wp.
  void set_row_offsets(std::size_t hp, std::size_t wp);
  /// Plans tiles over `planes` grids of plane_rows x width positions whose
  /// live cells are the first live_cols columns of the first live_rows
  /// rows: each of a tile's pieces covers `len` consecutive positions from
  /// a live one (four pieces of NR/4, or six of 5), and a live cell's C
  /// offset is its index among the live cells.
  void plan_grid(std::size_t width, std::size_t plane_rows, std::size_t live_rows,
                 std::size_t live_cols, std::size_t planes, std::size_t len);
  /// Computes samples [s0, s1) of the output `y`, padded at `xp`, from the
  /// packed weights `ap`, on the body `kern`.
  void forward_samples(const tile::Kernel& kern, const float* ap, const float* xp, float* y,
                       std::size_t s0, std::size_t s1, std::size_t np, std::size_t padded);
  /// Computes dx_ from the output gradient `pg` (before ReLU's mask).
  void backward_input(const float* pg, std::size_t hp, std::size_t wp);

  /// One register tile of a pass: its B pieces start at offsets `at` of
  /// the operand (plus each depth row's offset), and runs_[run0, run1) say
  /// where its columns go. A tile with fewer pieces re-reads its first.
  struct Tile {
    std::array<std::size_t, 6> at;
    std::size_t run0, run1;
  };

  std::size_t cin_, cout_, k_, pad_;
  bool relu_;
  Tensor weight_;       // (cout, cin*k*k) flattened kernel matrix
  Tensor bias_;         // (cout)
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor xpad_;         // training forward's zero-padded input, for dW
  std::array<std::size_t, 4> in_shape_{};  // training forward's input shape
  Tensor out_;          // (N, cout, OH, OW) training forward's output
  Tensor eval_out_;     // (N, cout, OH, OW) eval forward's output
  Tensor dx_;           // (N, C, H, W) backward output buffer

  /// Offset in a padded input sample of each patch row (c, ki, kj).
  std::vector<std::size_t> row_off_;
  /// dx's B offsets: each gradient plane in gpad, then each kernel offset.
  std::vector<std::size_t> offsets_;
  /// dx's lane coordinates per tile: NR padded rows, then NR padded columns.
  std::vector<std::uint32_t> lanes_;
  /// The running pass's tile plan.
  std::vector<Tile> tiles_;
  std::vector<tile::Run> runs_;
};

}  // namespace airfedga::ml
