#include "ml/conv2d.hpp"

#include <cmath>
#include <cstring>
#include <numeric>
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

std::size_t Conv2D::chunk_samples(std::size_t batch, std::size_t np) const {
  constexpr std::size_t kChunkFloats = std::size_t{1} << 16;  // 256 KiB
  const std::size_t kc = gemm_blocking().kc;
  const std::size_t align = kc / std::gcd(np, kc);
  if (align > batch) return batch;
  const std::size_t fit = kChunkFloats / std::max<std::size_t>(cin_ * k_ * k_ * np, 1);
  return std::max(align, fit / align * align);
}

const Tensor& Conv2D::forward(const Tensor& x) {
  obs::Span span("conv", "conv.forward");
  if (x.rank() != 4 || x.dim(1) != cin_)
    throw std::invalid_argument("Conv2D::forward: bad input shape " + x.shape_string());
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t np = oh * ow;
  const std::size_t rows = cin_ * k_ * k_;

  // Lower the batch chunk by chunk. Each output column's GEMM sum runs over
  // patch rows only, so the chunking cannot change a bit of the output; it
  // keeps an eval batch (an order of magnitude larger than a training
  // batch) from pinning an eval-sized patch matrix in every evaluating
  // thread's arena for the rest of the run. A training forward writes its
  // chunks into cols_ for backward instead.
  const std::size_t chunk = chunk_samples(batch, np);
  if (training_) {
    in_shape_ = {batch, cin_, h, w};
    cols_.resize_uninitialized({rows * batch * np});
  }
  out_.resize_uninitialized({batch, cout_, oh, ow});
  float* py = out_.data().data();
  const float* pb = bias_.data().data();
  Workspace& ws = Workspace::tls();
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t s1 = std::min(batch, s0 + chunk);
    const std::size_t ncols = (s1 - s0) * np;
    Workspace::Scope scope(ws);
    float* cols = training_ ? cols_.data().data() + rows * s0 * np : ws.floats(rows * ncols);
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
  if (!training_ || in_shape_[0] == 0)
    throw std::logic_error("Conv2D::backward: requires a training-mode forward");
  const std::size_t batch = in_shape_[0], h = in_shape_[2], w = in_shape_[3];
  const std::size_t oh = out_height(h), ow = out_width(w);
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch || grad_out.dim(1) != cout_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow)
    throw std::invalid_argument("Conv2D::backward: bad gradient shape");
  const std::size_t np = oh * ow;
  const std::size_t rows = cin_ * k_ * k_;
  const float* pg = grad_out.data().data();

  // The bias gradient sums each channel's (N*OH*OW) gradient row in column
  // order, one accumulator per channel.
  float* pbg = bias_grad_.data().data();
  for (std::size_t c = 0; c < cout_; ++c) {
    float acc = 0.0f;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* row = pg + (n * cout_ + c) * np;
      for (std::size_t i = 0; i < np; ++i) acc += row[i];
    }
    pbg[c] += acc;
  }

  // dW, dcols and col2im run over the training forward's chunks, whose
  // patch matrices are still in cols_. dW's depth is the whole batch's
  // columns: every chunk starts on a KC slice boundary of it, so each
  // chunk's accumulating GEMM adds the same KC slice sums to dW, in the
  // same order, as one GEMM over the whole batch. dcols sums over output
  // channels only, and col2im scatters each chunk onto its own samples.
  // A model's first layer skips dcols and col2im: nothing reads its input
  // gradient.
  if (input_grad_) dx_.resize_zero(in_shape_);
  const std::size_t chunk = chunk_samples(batch, np);
  Workspace& ws = Workspace::tls();
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t s1 = std::min(batch, s0 + chunk);
    const std::size_t ncols = (s1 - s0) * np;
    Workspace::Scope scope(ws);

    // Gather the chunk's NCHW grad_out into the (cout, chunk*OH*OW) matrix
    // the GEMMs want.
    float* gy = ws.floats(cout_ * ncols);
    for (std::size_t n = s0; n < s1; ++n)
      for (std::size_t c = 0; c < cout_; ++c)
        std::memcpy(gy + c * ncols + (n - s0) * np, pg + (n * cout_ + c) * np,
                    np * sizeof(float));

    const float* cols = cols_.data().data() + rows * s0 * np;
    sgemm(Trans::N, Trans::T, cout_, rows, ncols, gy, ncols, cols, ncols, 1.0f,
          weight_grad_.data().data(), rows);
    if (!input_grad_) continue;

    // dcols = W^T gy, then scatter-add back to input layout.
    float* dcols = ws.floats(rows * ncols);
    sgemm(Trans::T, Trans::N, rows, ncols, cout_, weight_.data().data(), rows, gy, ncols, 0.0f,
          dcols, ncols);
    col2im_batched(dcols, s0, s1, dx_);
  }
  return input_grad_ ? dx_ : no_input_grad();
}

std::vector<ParamView> Conv2D::params() {
  return {{weight_.data(), weight_grad_.data()}, {bias_.data(), bias_grad_.data()}};
}

}  // namespace airfedga::ml
