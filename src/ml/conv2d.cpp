#include "ml/conv2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "ml/workspace.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::ml {

using namespace tile;

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t padding, bool relu)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      pad_(padding),
      relu_(relu),
      weight_({out_channels, in_channels * kernel * kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels * kernel * kernel}),
      bias_grad_({out_channels}) {
  if (kernel == 0 || in_channels == 0 || out_channels == 0)
    throw std::invalid_argument("Conv2D: zero-sized configuration");
}

void Conv2D::init(util::Rng& rng) {
  const float fan_in = static_cast<float>(cin_ * k_ * k_);
  const float stddev = std::sqrt(2.0f / fan_in);
  rng.normal_fill(weight_.data(), 0.0, stddev);
  bias_.fill(0.0f);
}

namespace {

/// Zeroed floats after the last plane a pass reads B from in place: a
/// piece starts on a position its tile uses and reads kPiece floats.
constexpr std::size_t kSlack = kPiece;

/// Workspace floats an eval forward chunk may take (256 KiB, L2-sized).
constexpr std::size_t kChunkFloats = std::size_t{1} << 16;

/// Samples per chunk when each sample takes `per_sample` workspace floats:
/// as many as fit the budget, at least one, at most the batch.
std::size_t chunk_samples(std::size_t batch, std::size_t per_sample) {
  const std::size_t fit = kChunkFloats / std::max<std::size_t>(per_sample, 1);
  return std::max<std::size_t>(1, std::min(batch, fit));
}

/// out[j] = g[j] * relu_mask(y[j]) for j < n; a copy of g without y.
void relu_grad(const float* g, const float* y, std::size_t n, float* out) {
  if (y == nullptr) return (void)std::memcpy(out, g, n * sizeof(float));
  std::size_t j = 0;
#if defined(__SSE__)
  for (; j + 4 <= n; j += 4)
    _mm_storeu_ps(out + j, _mm_mul_ps(_mm_loadu_ps(g + j), relu_mask(_mm_loadu_ps(y + j))));
#endif
  for (; j < n; ++j) out[j] = g[j] * relu_mask(y[j]);
}

using Quad = float __attribute__((vector_size(kMR * sizeof(float))));

/// sums[l] += a[p * ld + l] over the rows p < kc in order for the first
/// kQuads * kMR columns l, one chain per column, all side by side.
template <std::size_t kQuads>
void add_rows(const float* a, std::size_t ld, std::size_t kc, float* sums) {
  Quad sum[kQuads];
  std::memcpy(sum, sums, sizeof sum);
  for (std::size_t p = 0; p < kc; ++p)
    for (std::size_t q = 0; q < kQuads; ++q) {
      Quad x;
      std::memcpy(&x, a + p * ld + q * kMR, sizeof x);
      sum[q] += x;
    }
  std::memcpy(sums, sum, sizeof sum);
}

}  // namespace

void Conv2D::pad_samples(const Tensor& x, std::size_t s0, std::size_t s1, float* xp) const {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t planes = (s1 - s0) * cin_;
  const float* px = x.data().data() + s0 * cin_ * h * w;
  std::memset(xp, 0, (planes * hp * wp + kSlack) * sizeof(float));
  for (std::size_t pl = 0; pl < planes; ++pl)
    for (std::size_t i = 0; i < h; ++i)
      std::memcpy(xp + (pl * hp + pad_ + i) * wp + pad_, px + (pl * h + i) * w,
                  w * sizeof(float));
}

void Conv2D::set_row_offsets(std::size_t hp, std::size_t wp) {
  row_off_.resize(cin_ * k_ * k_);
  for (std::size_t r = 0; r < row_off_.size(); ++r)
    row_off_[r] = r / (k_ * k_) * hp * wp + r % (k_ * k_) / k_ * wp + r % k_;
}

void Conv2D::plan_grid(std::size_t width, std::size_t plane_rows, std::size_t live_rows,
                       std::size_t live_cols, std::size_t planes, std::size_t len) {
  tiles_.clear();
  runs_.clear();
  const std::size_t plane = plane_rows * width;
  const std::size_t pieces = piece_count(len);
  std::size_t pl = 0, row = 0, col = 0;  // the first position no piece covers yet
  std::size_t piece = pieces;            // pieces placed in the last tile
  while (pl < planes) {
    // Skip to the next live position: a piece starts on one.
    if (row >= live_rows) {
      row = col = 0;
      ++pl;
      continue;
    }
    if (col >= live_cols) {
      col = 0;
      ++row;
      continue;
    }
    const std::size_t start = pl * plane + row * width + col;
    if (piece == pieces) {
      // Pieces the tile never gets re-read its first one.
      tiles_.push_back({{}, runs_.size(), 0});
      tiles_.back().at.fill(start);
      piece = 0;
    }
    tiles_.back().at[piece] = start;
    for (std::size_t j = 0; j < len && pl < planes;) {
      std::size_t step = std::min(len - j, width - col);
      if (row < live_rows && col < live_cols) {
        step = std::min(step, live_cols - col);
        runs_.push_back(
            {piece_col(len, piece) + j, step, (pl * live_rows + row) * live_cols + col});
      }
      j += step;
      col += step;
      if (col == width) {
        col = 0;
        if (++row == plane_rows) {
          row = 0;
          ++pl;
        }
      }
    }
    tiles_.back().run1 = runs_.size();
    ++piece;
  }
}

void Conv2D::forward_samples(const Kernel& kern, const float* ap, const float* xp, float* y,
                             std::size_t s0, std::size_t s1, std::size_t np, std::size_t padded) {
  const std::size_t rows = cin_ * k_ * k_;
  const std::size_t lda = packed_stride(cout_);
  const float* pb = bias_.data().data();
  const Panels panels(kern.wide, cout_, kWideRows);
  const std::size_t tiles = tiles_.size();
  const std::size_t units = (s1 - s0) * tiles;
  // Units (sample, tile) write disjoint outputs, so how parallel_for splits
  // them cannot move bits.
  util::parallel_for(
      units,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) {
          const std::size_t n = s0 + u / tiles;
          const Tile& t = tiles_[u % tiles];
          const float* xs = xp + (n - s0) * padded;
          float* ys = y + n * cout_ * np;
          for (std::size_t i = 0; i < panels.n; ++i) {
            const std::size_t o0 = panels.start(i);
            const TileStore store{ys + o0 * np, np, panels.rows(i), runs_.data() + t.run0,
                                  runs_.data() + t.run1, nullptr, pb + o0, false, relu_};
            tile_over_depth(kern, {ap + o0, xs, t.at.data(), row_off_.data(), lda, rows}, store);
          }
        }
      },
      task_grain(units, 2 * cout_ * rows * kNR));
}

const Tensor& Conv2D::forward(const Tensor& x) {
  obs::Span span("conv", "conv.forward");
  if (x.rank() != 4 || x.dim(1) != cin_)
    throw std::invalid_argument("Conv2D::forward: bad input shape " + x.shape_string());
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t padded = cin_ * hp * wp;  // floats per padded sample
  const std::size_t rows = cin_ * k_ * k_;
  Tensor& y = training_ ? out_ : eval_out_;
  y.resize_uninitialized({batch, cout_, oh, ow});
  set_row_offsets(hp, wp);
  // A tile's columns are four pieces of the padded grid (row stride wp),
  // each starting at an output pixel's top-left input: a piece covers a
  // whole output row when ow is a multiple of the piece, else it runs into
  // the row's padding or the next row, whose columns are computed and
  // dropped.
  plan_grid(wp, oh, oh, ow, 1, kPiece);

  const Kernel& kern = kernel();
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* ap = ws.floats(packed_stride(cout_) * rows);
  pack_a(weight_.data().data(), rows, cout_, rows, packed_stride(cout_), ap);
  // A training forward pads the whole batch into xpad_, where dW reads it
  // again; an eval forward pads each chunk into the workspace.
  if (training_) {
    in_shape_ = {batch, cin_, h, w};
    xpad_.resize_uninitialized({batch * padded + kSlack});
    pad_samples(x, 0, batch, xpad_.data().data());
    forward_samples(kern, ap, xpad_.data().data(), y.data().data(), 0, batch, oh * ow, padded);
    return y;
  }
  const std::size_t chunk = chunk_samples(batch, padded);
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t s1 = std::min(batch, s0 + chunk);
    Workspace::Scope chunk_scope(ws);
    float* xp = ws.floats((s1 - s0) * padded + kSlack);
    pad_samples(x, s0, s1, xp);
    forward_samples(kern, ap, xp, y.data().data(), s0, s1, oh * ow, padded);
  }
  return y;
}

const Tensor& Conv2D::backward(const Tensor& grad_out) {
  obs::Span span("conv", "conv.backward");
  if (!training_ || in_shape_[0] == 0)
    throw std::logic_error("Conv2D::backward: requires a training-mode forward");
  const std::size_t batch = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t oh = out_height(h), ow = out_width(w);
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch || grad_out.dim(1) != cout_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow)
    throw std::invalid_argument("Conv2D::backward: bad gradient shape");
  const std::size_t np = oh * ow;
  const std::size_t ncols = batch * np;
  const std::size_t rows = cin_ * k_ * k_;
  const std::size_t padded = cin_ * hp * wp;
  const float* pg = grad_out.data().data();
  // dW += gy . patches^T, where gy is grad_out viewed as the (cout,
  // N*OH*OW) matrix: the depth runs over the whole batch's output pixels in
  // KC slices, and B is read in place from the input the training forward
  // padded: depth row q starts at q's top-left input pixel, and the tile
  // columns are runs of each channel's padded grid from there, whose
  // positions past the k x k window are computed and dropped (none at k =
  // 5 on the wide body, whose pieces are the 5-float window rows).
  const Kernel& kern = kernel();
  const std::size_t len = kern.wide && k_ == 5 ? kWindowRow : kPiece;
  plan_grid(wp, hp, k_, k_, cin_, len);
  const Panels panels(kern.wide, cout_, kWideRows);
  const std::size_t lda = packed_stride(cout_);
  const std::size_t units = tiles_.size() * panels.n;
  float* pdw = weight_grad_.data().data();
  const float* xp = xpad_.data().data();
  const float* py = relu_ ? out_.data().data() : nullptr;  // ReLU's mask
  // The bias gradient sums each channel's gy row in column order from +0,
  // one accumulator per channel, all of them side by side: the chunk that
  // holds unit 0 adds each packed gy slice's depth rows into db.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* db = ws.floats(lda);
  std::fill_n(db, lda, 0.0f);
  // Units (tile, row panel) write disjoint dW entries, and each walks the
  // slices in ascending order, so how parallel_for splits them cannot move
  // bits. Each chunk packs gy's slices into its own thread's arena.
  util::parallel_for(
      units,
      [&](std::size_t lo, std::size_t hi) {
        Workspace& chunk_ws = Workspace::tls();
        Workspace::Scope chunk_scope(chunk_ws);
        float* ap = chunk_ws.floats(lda * std::min(kKC, ncols));
        std::array<std::size_t, kKC> coff;
        std::size_t n = 0, oi = 0, oj = 0;  // the pixel of the next depth row
        for (std::size_t p0 = 0; p0 < ncols; p0 += kKC) {
          const std::size_t kc = std::min(kKC, ncols - p0);
          for (std::size_t p = 0; p < kc;) {
            // A run of the slice within sample n: gy's rows there are
            // grad_out's planes of sample n.
            const std::size_t pix = oi * ow + oj;
            const std::size_t run = std::min(kc - p, np - pix);
            const std::size_t at = n * cout_ * np + pix;
            pack_a(pg + at, np, cout_, run, lda, ap + p * lda, py ? py + at : nullptr);
            for (const std::size_t end = p + run; p < end; ++p) {
              coff[p] = n * padded + oi * wp + oj;
              if (++oj == ow) {
                oj = 0;
                if (++oi == oh) {
                  oi = 0;
                  ++n;
                }
              }
            }
          }
          for (std::size_t o0 = 0; lo == 0 && o0 < lda; o0 += 2 * kMR)
            (o0 + 2 * kMR <= lda ? add_rows<2> : add_rows<1>)(ap + o0, lda, kc, db + o0);
          for (std::size_t u = lo; u < hi; ++u) {
            const Tile& t = tiles_[u / panels.n];
            const std::size_t o0 = panels.start(u % panels.n);
            TileStore store{pdw + o0 * rows, rows, panels.rows(u % panels.n), runs_.data() + t.run0,
                            runs_.data() + t.run1};
            store.add = true;
            const Operands op{ap + o0, xp, t.at.data(), coff.data(), lda, kc, len != kPiece};
            kern.tile(op, store);
          }
        }
      },
      task_grain(units, 2 * panels.base * kNR * ncols));
  for (std::size_t o = 0; o < cout_; ++o) bias_grad_.data()[o] += db[o];
  // A model's first layer skips dx: nothing reads its input gradient.
  if (!input_grad_) return no_input_grad();
  backward_input(pg, hp, wp);
  return dx_;
}

void Conv2D::backward_input(const float* pg, std::size_t hp, std::size_t wp) {
  const std::size_t batch = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
  const std::size_t oh = hp - k_ + 1, ow = wp - k_ + 1;
  const std::size_t kk = k_ * k_;
  // dx pixel (c, y, x) sums, over the kernel offsets (ki, kj) in ascending
  // order and starting from zero, the patch-matrix gradient entry of row
  // (c, ki, kj) at output pixel (y + pad - ki, x + pad - kj) where that
  // pixel exists: col2im's sum. Each entry is W^T gy's fma chain over the
  // output channels, so a tile of a panel's channels x NR dx pixels runs
  // one chain per offset and keeps the running sums in registers. B reads the
  // gradient planes in place from a copy `gpad` (gh x gw cells a plane) in
  // which offset (ki, kj) of pixel (y, x) is cell (y + k-1 - ki, x + k-1 -
  // kj): gradient row or column q sits at q - skip + lead, where the first
  // `skip` ones (padding wider than k - 1) are never read.
  const std::size_t gh = h + k_ - 1, gw = w + k_ - 1, plane = gh * gw;
  const std::size_t skip = pad_ > k_ - 1 ? pad_ - (k_ - 1) : 0;
  const std::size_t lead = k_ - 1 + skip - pad_;
  const std::size_t rows_end = std::min(oh, h + pad_), cols_end = std::min(ow, w + pad_);
  plan_grid(gw, h, h, w, 1, kPiece);
  lanes_.resize(2 * kNR * tiles_.size());
  for (std::size_t t = 0; t < tiles_.size(); ++t)
    for (std::size_t j = 0; j < kNR; ++j) {
      const std::size_t g = tiles_[t].at[j / kPiece] + j % kPiece;
      lanes_[2 * kNR * t + j] = static_cast<std::uint32_t>(g / gw + pad_);
      lanes_[2 * kNR * t + kNR + j] = static_cast<std::uint32_t>(g % gw + pad_);
    }
  offsets_.resize(cout_ + kk);
  for (std::size_t o = 0; o < cout_; ++o) offsets_[o] = o * plane;
  for (std::size_t t = 0; t < kk; ++t)
    offsets_[cout_ + t] = (k_ - 1 - t / k_) * gw + (k_ - 1 - t % k_);
  dx_.resize_uninitialized(in_shape_);
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  // A: for each offset t, W[o][c][t] at depth o of input channel c, packed
  // as pack_a packs (rows past cin zero).
  const std::size_t lda = packed_stride(cin_);
  float* ap = ws.floats(kk * cout_ * lda);
  const float* pw = weight_.data().data();
  for (std::size_t t = 0; t < kk; ++t)
    for (std::size_t o = 0; o < cout_; ++o)
      for (std::size_t c = 0; c < lda; ++c)
        ap[(t * cout_ + o) * lda + c] = c < cin_ ? pw[(o * cin_ + c) * kk + t] : 0.0f;
  // gpad holds every sample's planes, filled before the tiles run: a
  // plane's gradient cells (times ReLU's mask) at rows and columns [lead,
  // lead + live), zeros around them, and kSlack zeros after the last plane.
  const std::size_t live_rows = rows_end - skip, live_cols = cols_end - skip;
  float* gpad = ws.floats(batch * cout_ * plane + kSlack);
  for (std::size_t pl = 0; pl < batch * cout_; ++pl) {
    float* g = gpad + pl * plane;
    const float* src = pg + pl * oh * ow + skip * ow + skip;
    const float* y = out_.data().data() + (src - pg);
    std::memset(g, 0, lead * gw * sizeof(float));
    for (std::size_t r = lead; r < lead + live_rows; ++r, src += ow, y += ow) {
      std::memset(g + r * gw, 0, lead * sizeof(float));
      relu_grad(src, relu_ ? y : nullptr, live_cols, g + r * gw + lead);
      std::memset(g + r * gw + lead + live_cols, 0, (gw - lead - live_cols) * sizeof(float));
    }
    std::memset(g + (lead + live_rows) * gw, 0, (gh - lead - live_rows) * gw * sizeof(float));
  }
  std::memset(gpad + batch * cout_ * plane, 0, kSlack * sizeof(float));
  const Kernel& kern = kernel();
  const Panels panels(kern.wide, cin_, kWideDxRows);
  const std::size_t tiles = tiles_.size();
  const std::size_t units = batch * tiles * panels.n;
  // Units (sample, tile, channel panel) write disjoint dx pixels, so how
  // parallel_for splits them cannot move bits.
  util::parallel_for(
      units,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) {
          const std::size_t n = u / (tiles * panels.n);
          const std::size_t t = u / panels.n % tiles;
          const std::size_t c0 = panels.start(u % panels.n);
          const Tile& tile = tiles_[t];
          const std::uint32_t* lane = lanes_.data() + 2 * kNR * t;
          const TileStore store{dx_.data().data() + (n * cin_ + c0) * h * w, h * w,
                                panels.rows(u % panels.n), runs_.data() + tile.run0,
                                runs_.data() + tile.run1};
          const Operands op{ap + c0, gpad + n * cout_ * plane, tile.at.data(), offsets_.data(),
                            lda, cout_, false, static_cast<std::uint32_t>(k_),
                            static_cast<std::uint32_t>(oh), static_cast<std::uint32_t>(ow),
                            offsets_.data() + cout_, lane, lane + kNR};
          kern.dx(op, store);
        }
      },
      task_grain(units, 2 * panels.base * kNR * kk * cout_));
}

std::vector<ParamView> Conv2D::params() {
  return {{weight_.data(), weight_grad_.data()}, {bias_.data(), bias_grad_.data()}};
}

}  // namespace airfedga::ml
