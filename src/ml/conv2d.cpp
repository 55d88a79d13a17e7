#include "ml/conv2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

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

namespace {

constexpr std::size_t kNR = gemm_blocking().nr;

/// Workspace floats a forward or backward chunk may take (256 KiB, L2-sized).
constexpr std::size_t kChunkFloats = std::size_t{1} << 16;

/// Samples per chunk when each sample takes `per_sample` workspace floats:
/// as many as fit the budget, at least one, at most the batch.
std::size_t chunk_samples(std::size_t batch, std::size_t per_sample) {
  const std::size_t fit = kChunkFloats / std::max<std::size_t>(per_sample, 1);
  return std::max<std::size_t>(1, std::min(batch, fit));
}

}  // namespace

PatchPanels::PatchPanels(const float* xpad, std::size_t channels, std::size_t kernel,
                         std::size_t hp, std::size_t wp, bool transposed)
    : xpad_(xpad),
      cin_(channels),
      k_(kernel),
      hp_(hp),
      wp_(wp),
      ow_(wp - kernel + 1),
      np_((hp - kernel + 1) * (wp - kernel + 1)),
      transposed_(transposed) {}

std::size_t PatchPanels::row_offset(std::size_t r) const {
  const std::size_t kk = k_ * k_;
  return r / kk * hp_ * wp_ + r % kk / k_ * wp_ + r % k_;
}

std::size_t PatchPanels::col_offset(std::size_t q) const {
  const std::size_t t = q % np_;
  return q / np_ * cin_ * hp_ * wp_ + t / ow_ * wp_ + t % ow_;
}

void PatchPanels::operator()(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                             float* bp) const {
  if (transposed_)
    pack_transposed(p0, kc, j0, nc, bp);
  else
    pack(p0, kc, j0, nc, bp);
  // Zero the last panel's columns past nc.
  if (const std::size_t tail = nc % kNR; tail != 0) {
    float* panel = bp + nc / kNR * kc * kNR;
    for (std::size_t p = 0; p < kc; ++p)
      std::fill(panel + p * kNR + tail, panel + (p + 1) * kNR, 0.0f);
  }
}

void PatchPanels::pack(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                       float* bp) const {
  std::array<std::size_t, gemm_blocking().kc> roff;
  for (std::size_t p = 0; p < kc; ++p) roff[p] = row_offset(p0 + p);
  // Walk the block's columns in runs that stay inside one output row and
  // one micro-panel: along a run, every patch row reads one contiguous
  // span of a padded input row.
  for (std::size_t j = 0; j < nc;) {
    const std::size_t q = j0 + j;
    const std::size_t len = std::min({ow_ - q % np_ % ow_, kNR - j % kNR, nc - j});
    const float* src = xpad_ + col_offset(q);
    float* dst = bp + j / kNR * kc * kNR + j % kNR;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* s = src + roff[p];
      float* d = dst + p * kNR;
      std::size_t t = 0;
#if defined(__SSE__)
      for (; t + 4 <= len; t += 4) _mm_storeu_ps(d + t, _mm_loadu_ps(s + t));
#endif
      for (; t < len; ++t) d[t] = s[t];
    }
    j += len;
  }
}

void PatchPanels::pack_transposed(std::size_t p0, std::size_t kc, std::size_t j0,
                                  std::size_t nc, float* bp) const {
  std::array<std::size_t, gemm_blocking().nc> roff;
  for (std::size_t j = 0; j < nc; ++j) roff[j] = row_offset(j0 + j);
  const std::size_t panels = (nc + kNR - 1) / kNR;
  // Walk the block's depth in runs inside one output row. Along a run each
  // panel column (a patch row) reads one contiguous input span, so four
  // columns at a time go through a 4x4 register transpose, as in
  // pack_b_panels' transposed path.
  for (std::size_t p = 0; p < kc;) {
    const std::size_t q = p0 + p;
    const std::size_t len = std::min(ow_ - q % np_ % ow_, kc - p);
    const float* src = xpad_ + col_offset(q);
    for (std::size_t jr = 0; jr < panels; ++jr) {
      float* dst = bp + (jr * kc + p) * kNR;
      const std::size_t* ro = roff.data() + jr * kNR;
      const std::size_t cols = std::min(kNR, nc - jr * kNR);
      std::size_t c = 0;
#if defined(__SSE__)
      for (; c + 4 <= cols; c += 4) {
        const float* s0 = src + ro[c];
        const float* s1 = src + ro[c + 1];
        const float* s2 = src + ro[c + 2];
        const float* s3 = src + ro[c + 3];
        std::size_t t = 0;
        for (; t + 4 <= len; t += 4) {
          __m128 x0 = _mm_loadu_ps(s0 + t);
          __m128 x1 = _mm_loadu_ps(s1 + t);
          __m128 x2 = _mm_loadu_ps(s2 + t);
          __m128 x3 = _mm_loadu_ps(s3 + t);
          _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
          float* d = dst + t * kNR + c;
          _mm_storeu_ps(d, x0);
          _mm_storeu_ps(d + kNR, x1);
          _mm_storeu_ps(d + 2 * kNR, x2);
          _mm_storeu_ps(d + 3 * kNR, x3);
        }
        for (; t < len; ++t) {
          float* d = dst + t * kNR + c;
          d[0] = s0[t];
          d[1] = s1[t];
          d[2] = s2[t];
          d[3] = s3[t];
        }
      }
#endif
      for (; c < cols; ++c) {
        const float* s = src + ro[c];
        for (std::size_t t = 0; t < len; ++t) dst[t * kNR + c] = s[t];
      }
    }
    p += len;
  }
}

void Conv2D::pad_samples(const Tensor& x, std::size_t s0, std::size_t s1, float* xp) const {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t planes = (s1 - s0) * cin_;
  const float* px = x.data().data() + s0 * cin_ * h * w;
  std::memset(xp, 0, planes * hp * wp * sizeof(float));
  for (std::size_t pl = 0; pl < planes; ++pl)
    for (std::size_t i = 0; i < h; ++i)
      std::memcpy(xp + (pl * hp + pad_ + i) * wp + pad_, px + (pl * h + i) * w,
                  w * sizeof(float));
}

void Conv2D::col2im(const float* dcols, std::size_t s0, std::size_t s1, float* dxp) {
  const std::size_t h = in_shape_[2], w = in_shape_[3];
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t np = oh * ow;
  const std::size_t ncols = (s1 - s0) * np;
  const std::size_t planes = (s1 - s0) * cin_;
  std::memset(dxp, 0, planes * hp * wp * sizeof(float));
  // Every patch entry lands inside the padded planes, so the scatter needs
  // no bounds checks. Each pixel receives its additions in ascending
  // (ki, kj) order, starting from zero, whatever the chunking.
  for (std::size_t pl = 0; pl < planes; ++pl) {
    const std::size_t n = pl / cin_, c = pl % cin_;
    float* plane = dxp + pl * hp * wp;
    for (std::size_t ki = 0; ki < k_; ++ki)
      for (std::size_t kj = 0; kj < k_; ++kj) {
        const float* src = dcols + ((c * k_ + ki) * k_ + kj) * ncols + n * np;
        float* dst = plane + ki * wp + kj;
        for (std::size_t oi = 0; oi < oh; ++oi)
          for (std::size_t oj = 0; oj < ow; ++oj) dst[oi * wp + oj] += src[oi * ow + oj];
      }
  }
  float* pdx = dx_.data().data() + s0 * cin_ * h * w;
  for (std::size_t pl = 0; pl < planes; ++pl)
    for (std::size_t i = 0; i < h; ++i)
      std::memcpy(pdx + (pl * h + i) * w, dxp + (pl * hp + pad_ + i) * wp + pad_,
                  w * sizeof(float));
}

const Tensor& Conv2D::forward(const Tensor& x) {
  obs::Span span("conv", "conv.forward");
  if (x.rank() != 4 || x.dim(1) != cin_)
    throw std::invalid_argument("Conv2D::forward: bad input shape " + x.shape_string());
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t np = oh * ow;
  const std::size_t padded = cin_ * hp * wp;  // floats per padded sample
  const std::size_t rows = cin_ * k_ * k_;

  // A training forward pads the whole batch into xpad_, where dW reads it
  // again; an eval forward pads each chunk into the workspace. The chunk
  // budget covers the workspace a chunk takes: its GEMM output, plus its
  // padded input when evaluating.
  const std::size_t chunk = chunk_samples(batch, cout_ * np + (training_ ? 0 : padded));
  if (training_) {
    in_shape_ = {batch, cin_, h, w};
    xpad_.resize_uninitialized({batch * padded});
  }
  out_.resize_uninitialized({batch, cout_, oh, ow});
  float* py = out_.data().data();
  const float* pb = bias_.data().data();
  Workspace& ws = Workspace::tls();
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t s1 = std::min(batch, s0 + chunk);
    const std::size_t ncols = (s1 - s0) * np;
    Workspace::Scope scope(ws);
    float* xp = training_ ? xpad_.data().data() + s0 * padded : ws.floats((s1 - s0) * padded);
    pad_samples(x, s0, s1, xp);
    float* gemm_out = ws.floats(cout_ * ncols);  // (cout, (s1-s0)*OH*OW)
    const PatchPanels patches(xp, cin_, k_, hp, wp, /*transposed=*/false);
    sgemm(Trans::N, cout_, ncols, rows, weight_.data().data(), rows, patches, 0.0f, gemm_out,
          ncols);

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
  const std::size_t hp = h + 2 * pad_, wp = w + 2 * pad_;
  const std::size_t oh = out_height(h), ow = out_width(w);
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch || grad_out.dim(1) != cout_ ||
      grad_out.dim(2) != oh || grad_out.dim(3) != ow)
    throw std::invalid_argument("Conv2D::backward: bad gradient shape");
  const std::size_t np = oh * ow;
  const std::size_t ncols = batch * np;
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

  // Gather the NCHW grad_out into the (cout, N*OH*OW) matrix the GEMMs
  // want.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* gy = ws.floats(cout_ * ncols);
  for (std::size_t n = 0; n < batch; ++n)
    for (std::size_t c = 0; c < cout_; ++c)
      std::memcpy(gy + c * ncols + n * np, pg + (n * cout_ + c) * np, np * sizeof(float));

  // dW = gy . patches^T over the whole batch's columns, with the patch
  // panels packed from the input the training forward padded.
  const PatchPanels patches(xpad_.data().data(), cin_, k_, hp, wp, /*transposed=*/true);
  sgemm(Trans::N, cout_, rows, ncols, gy, ncols, patches, 1.0f, weight_grad_.data().data(),
        rows);
  // A model's first layer skips dcols and col2im: nothing reads its input
  // gradient.
  if (!input_grad_) return no_input_grad();

  // dcols = W^T gy chunk by chunk, each scattered back onto its samples.
  dx_.resize_uninitialized(in_shape_);
  const std::size_t padded = cin_ * hp * wp;
  const std::size_t chunk = chunk_samples(batch, rows * np + padded);
  for (std::size_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::size_t s1 = std::min(batch, s0 + chunk);
    const std::size_t cols = (s1 - s0) * np;
    Workspace::Scope chunk_scope(ws);
    float* dcols = ws.floats(rows * cols);
    sgemm(Trans::T, Trans::N, rows, cols, cout_, weight_.data().data(), rows, gy + s0 * np,
          ncols, 0.0f, dcols, cols);
    col2im(dcols, s0, s1, ws.floats((s1 - s0) * padded));
  }
  return dx_;
}

std::vector<ParamView> Conv2D::params() {
  return {{weight_.data(), weight_grad_.data()}, {bias_.data(), bias_grad_.data()}};
}

}  // namespace airfedga::ml
