#include "ml/conv2d.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/gemm.hpp"
#include "ml/workspace.hpp"
#include "obs/trace.hpp"

namespace airfedga::ml {

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t padding)
    : cin_(in_channels),
      cout_(out_channels),
      k_(kernel),
      pad_(padding),
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

void Conv2D::im2col_batched(const Tensor& x, std::size_t s0, std::size_t s1,
                            float* cols) const {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t np = oh * ow;             // patches per sample
  const std::size_t ncols = (s1 - s0) * np;   // patch-matrix width
  const float* px = x.data().data();
  // With "same" padding (ow == w, every preset conv) output pixel t of a
  // (ki, kj) row reads input pixel t + (ki - pad) * w + (kj - pad) of its
  // plane, so the valid rows of a (c, ki, kj, sample) block are one shifted
  // span of the input. Other widths copy row by row.
  const bool one_span = ow == w;
  for (std::size_t c = 0; c < cin_; ++c) {
    for (std::size_t ki = 0; ki < k_; ++ki) {
      // Output rows [oi_lo, oi_hi) read input rows inside the image.
      const std::size_t oi_lo = pad_ > ki ? pad_ - ki : 0;
      const std::size_t oi_hi = std::min(oh, h + pad_ > ki ? h + pad_ - ki : 0);
      for (std::size_t kj = 0; kj < k_; ++kj) {
        const std::size_t row = (c * k_ + ki) * k_ + kj;
        // For fixed (ki, kj) the valid output columns map to a contiguous
        // input span, so each output row is a copy plus zeroed borders.
        const std::size_t oj_lo = pad_ > kj ? pad_ - kj : 0;
        const std::size_t oj_hi = std::min(ow, w + pad_ > kj ? w + pad_ - kj : 0);
        for (std::size_t n = s0; n < s1; ++n) {
          float* dst0 = cols + row * ncols + (n - s0) * np;
          const float* src_plane = px + (n * cin_ + c) * h * w;
          if (oi_lo >= oi_hi || oj_lo >= oj_hi) {
            std::memset(dst0, 0, np * sizeof(float));
            continue;
          }
          if (one_span) {
            // Copy from the first valid pixel to the last, then re-zero the
            // border columns the span wrapped into. The span starts and
            // ends on valid pixels, so it never reads outside the plane.
            const std::size_t first = oi_lo * ow + oj_lo;
            const std::size_t last = (oi_hi - 1) * ow + oj_hi;
            std::memset(dst0, 0, first * sizeof(float));
            std::memcpy(dst0 + first, src_plane + (oi_lo + ki - pad_) * w + (oj_lo + kj - pad_),
                        (last - first) * sizeof(float));
            std::memset(dst0 + last, 0, (np - last) * sizeof(float));
            for (std::size_t oi = oi_lo; oi < oi_hi; ++oi) {
              float* dst = dst0 + oi * ow;
              for (std::size_t oj = 0; oj < oj_lo; ++oj) dst[oj] = 0.0f;
              for (std::size_t oj = oj_hi; oj < ow; ++oj) dst[oj] = 0.0f;
            }
            continue;
          }
          for (std::size_t oi = 0; oi < oh; ++oi) {
            float* dst = dst0 + oi * ow;
            if (oi < oi_lo || oi >= oi_hi) {
              std::memset(dst, 0, ow * sizeof(float));
              continue;
            }
            if (oj_lo > 0) std::memset(dst, 0, oj_lo * sizeof(float));
            std::memcpy(dst + oj_lo, src_plane + (oi + ki - pad_) * w + (oj_lo + kj - pad_),
                        (oj_hi - oj_lo) * sizeof(float));
            if (oj_hi < ow) std::memset(dst + oj_hi, 0, (ow - oj_hi) * sizeof(float));
          }
        }
      }
    }
  }
}

void Conv2D::col2im_batched(const float* cols, std::size_t s0, std::size_t s1,
                            Tensor& dx) const {
  const std::size_t h = dx.dim(2), w = dx.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t np = oh * ow;
  const std::size_t ncols = (s1 - s0) * np;
  float* pdx = dx.data().data();
  for (std::size_t c = 0; c < cin_; ++c) {
    for (std::size_t ki = 0; ki < k_; ++ki) {
      for (std::size_t kj = 0; kj < k_; ++kj) {
        const std::size_t row = (c * k_ + ki) * k_ + kj;
        const std::size_t oj_lo = pad_ > kj ? pad_ - kj : 0;
        const std::size_t oj_hi = std::min(ow, w + pad_ > kj ? w + pad_ - kj : 0);
        if (oj_lo >= oj_hi) continue;
        for (std::size_t n = s0; n < s1; ++n) {
          const float* src0 = cols + row * ncols + (n - s0) * np;
          float* dst_plane = pdx + (n * cin_ + c) * h * w;
          for (std::size_t oi = 0; oi < oh; ++oi) {
            const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi + ki) -
                                      static_cast<std::ptrdiff_t>(pad_);
            if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) continue;
            const float* src = src0 + oi * ow;
            float* dst = dst_plane + static_cast<std::size_t>(ii) * w + (oj_lo + kj - pad_);
            for (std::size_t oj = oj_lo; oj < oj_hi; ++oj) dst[oj - oj_lo] += src[oj];
          }
        }
      }
    }
  }
}

const Tensor& Conv2D::forward(const Tensor& x) {
  obs::Span span("conv", "conv.forward");
  if (x.rank() != 4 || x.dim(1) != cin_)
    throw std::invalid_argument("Conv2D::forward: bad input shape " + x.shape_string());
  if (training_) input_cache_ = x;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t np = oh * ow;
  const std::size_t rows = cin_ * k_ * k_;

  // Chunk the batch so the lowered patch matrix never exceeds a fixed
  // float budget: evaluation batches are an order of magnitude larger than
  // training batches, and the workspace arena retains its peak block set
  // for the thread's lifetime, so an uncapped eval forward would pin
  // eval-sized buffers on every lane forever. Chunk boundaries depend only
  // on the layer shape, and the GEMM's per-element k-order is unchanged,
  // so chunked and unchunked forwards are bit-identical.
  constexpr std::size_t kMaxLoweredFloats = std::size_t{1} << 22;  // 16 MiB
  const std::size_t per_sample = rows * np;
  const std::size_t chunk =
      std::max<std::size_t>(1, kMaxLoweredFloats / std::max<std::size_t>(per_sample, 1));

  out_.resize_uninitialized({batch, cout_, oh, ow});
  float* py = out_.data().data();
  const float* pb = bias_.data().data();
  Workspace& ws = Workspace::tls();
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t s1 = std::min(batch, s0 + chunk);
    const std::size_t ncols = (s1 - s0) * np;
    Workspace::Scope scope(ws);
    float* cols = ws.floats(rows * ncols);
    im2col_batched(x, s0, s1, cols);
    float* gemm_out = ws.floats(cout_ * ncols);  // (cout, (s1-s0)*OH*OW)
    sgemm(Trans::N, Trans::N, cout_, ncols, rows, weight_.data().data(), rows, cols, ncols, 0.0f,
          gemm_out, ncols);

    // Scatter (cout, chunk, OH*OW) -> NCHW and add the bias.
    for (std::size_t n = s0; n < s1; ++n) {
      for (std::size_t c = 0; c < cout_; ++c) {
        const float* src = gemm_out + c * ncols + (n - s0) * np;
        float* dst = py + (n * cout_ + c) * np;
        const float b = pb[c];
        for (std::size_t i = 0; i < np; ++i) dst[i] = src[i] + b;
      }
    }
  }
  return out_;
}

const Tensor& Conv2D::backward(const Tensor& grad_out) {
  obs::Span span("conv", "conv.backward");
  if (!training_ || input_cache_.size() == 0)
    throw std::logic_error("Conv2D::backward: requires a training-mode forward");
  const Tensor& x = input_cache_;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch || grad_out.dim(1) != cout_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow)
    throw std::invalid_argument("Conv2D::backward: bad gradient shape");
  const std::size_t np = oh * ow;
  const std::size_t ncols = batch * np;
  const std::size_t rows = cin_ * k_ * k_;

  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);

  // Gather NCHW grad_out into the (cout, N*OH*OW) matrix the GEMMs want.
  float* gy = ws.floats(cout_ * ncols);
  const float* pg = grad_out.data().data();
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t c = 0; c < cout_; ++c)
      std::memcpy(gy + c * ncols + n * np, pg + (n * cout_ + c) * np, np * sizeof(float));

  // Recompute the patch matrix. It is not cheap: for fig05's conv layers at
  // batch 16 it measured 80-105 us per call, 40-85% of the dW GEMM (shared
  // 4-core x86-64 AVX-512 box, Release, one lane). Caching it from forward
  // would cost rows*ncols floats per layer per training model instead:
  // ~1.8 MB for fig05. Workers do not own models; fl::Driver trains on
  // min(lanes, population) per-lane scratch models (plus one for
  // evaluation, which runs no backward), so that is ~1.8 MB per lane.
  float* cols = ws.floats(rows * ncols);
  im2col_batched(x, 0, batch, cols);

  // dW += gy * cols^T over the whole batch in one accumulating GEMM.
  sgemm(Trans::N, Trans::T, cout_, rows, ncols, gy, ncols, cols, ncols, 1.0f,
        weight_grad_.data().data(), rows);

  float* pbg = bias_grad_.data().data();
  for (std::size_t c = 0; c < cout_; ++c) {
    const float* row = gy + c * ncols;
    float acc = 0.0f;
    for (std::size_t i = 0; i < ncols; ++i) acc += row[i];
    pbg[c] += acc;
  }

  // A model's first layer stops here: nothing reads its input gradient.
  if (!input_grad_) return no_input_grad();

  // dcols = W^T gy, then scatter-add back to input layout.
  float* dcols = ws.floats(rows * ncols);
  sgemm(Trans::T, Trans::N, rows, ncols, cout_, weight_.data().data(), rows, gy, ncols, 0.0f,
        dcols, ncols);
  dx_.resize_zero(x.shape());
  col2im_batched(dcols, 0, batch, dx_);
  return dx_;
}

std::vector<ParamView> Conv2D::params() {
  return {{weight_.data(), weight_grad_.data()}, {bias_.data(), bias_grad_.data()}};
}

}  // namespace airfedga::ml
