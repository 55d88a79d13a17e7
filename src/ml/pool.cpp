#include "ml/pool.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace airfedga::ml {

MaxPool2D::MaxPool2D(std::size_t window) : win_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool2D: window must be >= 1");
}

const Tensor& MaxPool2D::forward(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("MaxPool2D::forward: expected NCHW input");
  const std::size_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h % win_ != 0 || w % win_ != 0)
    throw std::invalid_argument("MaxPool2D::forward: spatial dims not divisible by window");
  const std::size_t oh = h / win_, ow = w / win_;
  out_.resize_uninitialized({batch, ch, oh, ow});
  if (training_) {
    if (x.size() > (std::size_t{1} << 32))
      throw std::length_error("MaxPool2D::forward: a training input holds over 2^32 floats");
    input_shape_.assign(x.shape().begin(), x.shape().end());
    argmax_.resize(out_.size());
  }
  const float* px = x.data().data();
  float* py = out_.data().data();
  if (win_ == 2) {
    pick_.resize(ow);
    forward_2x2(px, py, batch * ch * oh, w);
    return out_;
  }
  std::size_t out_idx = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const std::size_t base = (n * ch + c) * h * w;
      for (std::size_t oi = 0; oi < oh; ++oi) {
        for (std::size_t oj = 0; oj < ow; ++oj, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = base + oi * win_ * w + oj * win_;
          for (std::size_t di = 0; di < win_; ++di) {
            for (std::size_t dj = 0; dj < win_; ++dj) {
              const std::size_t idx = base + (oi * win_ + di) * w + (oj * win_ + dj);
              if (px[idx] > best) {
                best = px[idx];
                best_idx = idx;
              }
            }
          }
          py[out_idx] = best;
          if (training_) argmax_[out_idx] = static_cast<std::uint32_t>(best_idx);
        }
      }
    }
  }
  return out_;
}

void MaxPool2D::forward_2x2(const float* px, float* py, std::size_t out_rows, std::size_t w) {
  const std::size_t ow = w / 2;
  // Window element e = 0..3 (row-major) of each output in a row; the scan
  // below is the generic one unrolled, without branches.
  std::uint32_t* pick = pick_.data();
  for (std::size_t r = 0; r < out_rows; ++r) {
    const float* r0 = px + 2 * r * w;
    const float* r1 = r0 + w;
    float* y = py + r * ow;
    std::size_t oj = 0;
#if defined(__SSE2__)
    // Four outputs at a time: split each input row into even and odd
    // columns. max_ps(v, best) is `v > best ? v : best`, NaN included.
    for (; oj + 4 <= ow; oj += 4) {
      const __m128 u0 = _mm_loadu_ps(r0 + 2 * oj), u1 = _mm_loadu_ps(r0 + 2 * oj + 4);
      const __m128 v0 = _mm_loadu_ps(r1 + 2 * oj), v1 = _mm_loadu_ps(r1 + 2 * oj + 4);
      const __m128 elems[4] = {_mm_shuffle_ps(u0, u1, _MM_SHUFFLE(2, 0, 2, 0)),
                               _mm_shuffle_ps(u0, u1, _MM_SHUFFLE(3, 1, 3, 1)),
                               _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(2, 0, 2, 0)),
                               _mm_shuffle_ps(v0, v1, _MM_SHUFFLE(3, 1, 3, 1))};
      __m128 best = _mm_set1_ps(-std::numeric_limits<float>::infinity());
      __m128i k = _mm_setzero_si128();
      for (int e = 0; e < 4; ++e) {
        const __m128i greater = _mm_castps_si128(_mm_cmpgt_ps(elems[e], best));
        k = _mm_or_si128(_mm_andnot_si128(greater, k),
                         _mm_and_si128(greater, _mm_set1_epi32(e)));
        best = _mm_max_ps(elems[e], best);
      }
      _mm_storeu_ps(y + oj, best);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pick + oj), k);
    }
#endif
    for (; oj < ow; ++oj) {
      const float elems[4] = {r0[2 * oj], r0[2 * oj + 1], r1[2 * oj], r1[2 * oj + 1]};
      float best = -std::numeric_limits<float>::infinity();
      std::uint32_t k = 0;
      for (std::uint32_t e = 0; e < 4; ++e) {
        const bool greater = elems[e] > best;
        best = greater ? elems[e] : best;
        k = greater ? e : k;
      }
      y[oj] = best;
      pick[oj] = k;
    }
    if (training_)
      for (std::size_t j = 0; j < ow; ++j)
        argmax_[r * ow + j] =
            static_cast<std::uint32_t>(2 * r * w + 2 * j + (pick[j] & 1) + (pick[j] >> 1) * w);
  }
}

const Tensor& MaxPool2D::backward(const Tensor& grad_out) {
  if (!training_) throw std::logic_error("MaxPool2D::backward: requires a training-mode forward");
  if (grad_out.size() != argmax_.size())
    throw std::invalid_argument("MaxPool2D::backward: shape mismatch with cached forward");
  const float* pg = grad_out.data().data();
  if (win_ != 2) {
    dx_.resize_zero(input_shape_);
    float* pd = dx_.data().data();
    for (std::size_t i = 0; i < grad_out.size(); ++i) pd[argmax_[i]] += pg[i];
    return dx_;
  }
  dx_.resize_uninitialized(input_shape_);
  const std::size_t w = input_shape_[3], ow = w / 2;
  const auto wu = static_cast<std::uint32_t>(w);
  for (std::size_t r = 0; r < grad_out.size() / ow; ++r) {
    // dx rows 2r and 2r + 1; a pick is 0, 1, w or w + 1 past its window's first.
    const float* __restrict g = pg + r * ow;
    const std::uint32_t* __restrict a = argmax_.data() + r * ow;
    float* __restrict d = dx_.data().data() + 2 * r * w;
    for (std::size_t j = 0; j < ow; ++j) {  // vectorized by the compiler
      const float v = 0.0f + g[j];
      const std::uint32_t at = a[j] - static_cast<std::uint32_t>(2 * r * w + 2 * j);
      d[2 * j] = at == 0 ? v : 0.0f;
      d[2 * j + 1] = at == 1 ? v : 0.0f;
      d[w + 2 * j] = at == wu ? v : 0.0f;
      d[w + 2 * j + 1] = at == wu + 1 ? v : 0.0f;
    }
  }
  return dx_;
}

}  // namespace airfedga::ml
