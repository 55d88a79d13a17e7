#include "ml/gemm.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "ml/tile.hpp"
#include "ml/workspace.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::ml {

using namespace tile;

namespace {

// BLIS-style blocking: an (mc x nc) output tile is produced per task; for
// each KC depth slice A (~64 KiB at MC*KC, for L2) is packed depth-major a
// row panel at a time and B into NR-column panels that stream through L1,
// and the register tile of src/ml/tile.hpp, which Conv2D runs too,
// accumulates each row panel over the slice: NR = 32 columns by 4 rows on
// the 8-float bodies, or by up to 14 on the wide body.
constexpr std::size_t kMC = gemm_blocking().mc;
constexpr std::size_t kNC = gemm_blocking().nc;

// A GEMM is worth a trace span only above this flop count (~1 Mflop, a
// few hundred microseconds on one lane); smaller calls stay invisible so
// the ring buffers hold the history that matters.
constexpr std::size_t kGemmTraceMinFlops = std::size_t{1} << 20;

/// Where the tile reads a packed B panel: its four pieces at 0, 8, 16 and
/// 24, depth row p at p * NR.
constexpr std::array<std::size_t, 4> kPanelAt = {0, kPiece, 2 * kPiece, 3 * kPiece};
constexpr auto kPanelOff = [] {
  std::array<std::size_t, kKC> off{};
  for (std::size_t p = 0; p < kKC; ++p) off[p] = p * kNR;
  return off;
}();

inline float load_a(Trans ta, const float* a, std::size_t lda, std::size_t i, std::size_t p) {
  return ta == Trans::N ? a[i * lda + p] : a[p * lda + i];
}

/// Packs B depth [p0, p0+kc) x columns [j0, j0+nc) into NR-column
/// panels (zero-padded past nc), stride-1 for the tile.
void pack_b_panels(Trans tb, const float* b, std::size_t ldb, std::size_t p0, std::size_t kc,
                   std::size_t j0, std::size_t nc, float* bp) {
  const std::size_t np = ceil_div(nc, kNR);
  for (std::size_t jr = 0; jr < np; ++jr) {
    float* panel = bp + jr * kc * kNR;
    const std::size_t cols = std::min(kNR, nc - jr * kNR);
    if (tb == Trans::T) {
      // Transposed B stores each panel column as a row of length k. Read
      // those rows along their length, four at a time through a 4x4
      // register transpose and the rest one by one: walking across them,
      // one stored row per element, made N.T GEMMs up to ~40% slower than
      // the same shape as N.N.
      const float* src = b + (j0 + jr * kNR) * ldb + p0;
      std::size_t c = 0;
#if defined(__SSE__)
      for (; c + 4 <= cols; c += 4) {
        const float* r0 = src + c * ldb;
        std::size_t p = 0;
        for (; p + 4 <= kc; p += 4) {
          __m128 x0 = _mm_loadu_ps(r0 + p);
          __m128 x1 = _mm_loadu_ps(r0 + ldb + p);
          __m128 x2 = _mm_loadu_ps(r0 + 2 * ldb + p);
          __m128 x3 = _mm_loadu_ps(r0 + 3 * ldb + p);
          _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
          float* dst = panel + p * kNR + c;
          _mm_storeu_ps(dst, x0);
          _mm_storeu_ps(dst + kNR, x1);
          _mm_storeu_ps(dst + 2 * kNR, x2);
          _mm_storeu_ps(dst + 3 * kNR, x3);
        }
        for (; p < kc; ++p)
          for (std::size_t r = 0; r < 4; ++r) panel[p * kNR + c + r] = r0[r * ldb + p];
      }
#endif
      for (; c < cols; ++c) {
        const float* row = src + c * ldb;
        for (std::size_t p = 0; p < kc; ++p) panel[p * kNR + c] = row[p];
      }
      for (; c < kNR; ++c)
        for (std::size_t p = 0; p < kc; ++p) panel[p * kNR + c] = 0.0f;
      continue;
    }
    if (cols == kNR) {
      // Full-width panels from untransposed B copy contiguous row slices.
      const float* src = b + p0 * ldb + j0 + jr * kNR;
      for (std::size_t p = 0; p < kc; ++p)
        std::memcpy(panel + p * kNR, src + p * ldb, kNR * sizeof(float));
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t c = 0; c < cols; ++c)
        panel[p * kNR + c] = b[(p0 + p) * ldb + j0 + jr * kNR + c];
      for (std::size_t c = cols; c < kNR; ++c) panel[p * kNR + c] = 0.0f;
    }
  }
}

/// One (mc x nc) output tile: full ascending k loop in KC slices, packing
/// into the calling thread's workspace. Tiles touch disjoint C ranges and
/// each element's accumulation order depends only on k, so any assignment
/// of tiles to threads yields identical bits.
void gemm_tile(const Kernel& kern, Trans ta, Trans tb, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc, std::size_t i0, std::size_t mc, std::size_t j0, std::size_t nc) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  const Panels panels(kern.wide, mc, kWideRows);
  // Each row panel's A is packed depth-major on its own, ld floats a depth
  // row, so a tile reads its A as one stream: with all mc rows a depth row,
  // fig03's 100x128x784 ran ~7% slower on an AVX-512 host.
  const std::size_t ld = packed_stride(panels.rows(0));
  const std::size_t np = ceil_div(nc, kNR);
  float* ap = ws.floats(panels.n * ld * std::min(kKC, k));
  float* bp = ws.floats(np * kNR * std::min(kKC, k));
  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t kc = std::min(kKC, k - p0);
    pack_b_panels(tb, b, ldb, p0, kc, j0, nc, bp);
    for (std::size_t i = 0; i < panels.n; ++i) {
      const std::size_t r0 = i0 + panels.start(i), rows = panels.rows(i);
      float* pa = ap + i * ld * kc;
      if (ta == Trans::N) {
        pack_a(a + r0 * lda + p0, lda, rows, kc, ld, pa);
        continue;
      }
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(pa + p * ld, a + (p0 + p) * lda + r0, rows * sizeof(float));
        std::fill(pa + p * ld + rows, pa + (p + 1) * ld, 0.0f);
      }
    }
    const bool add = !(p0 == 0 && beta == 0.0f);
    for (std::size_t jr = 0; jr < np; ++jr) {
      const Run run{0, std::min(kNR, nc - jr * kNR), 0};
      const float* pb = bp + jr * kc * kNR;
      for (std::size_t i = 0; i < panels.n; ++i) {
        float* ci = c + (i0 + panels.start(i)) * ldc + j0 + jr * kNR;
        const TileStore store{ci, ldc, panels.rows(i), &run, &run + 1, nullptr, nullptr, add};
        const Operands op{ap + i * ld * kc, pb, kPanelAt.data(), kPanelOff.data(), ld, kc};
        kern.tile(op, store);
      }
    }
  }
}

}  // namespace

void sgemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, const float* a,
           std::size_t lda, const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  if (beta != 0.0f && beta != 1.0f)
    throw std::invalid_argument("sgemm: beta must be 0 (overwrite) or 1 (accumulate)");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (beta == 0.0f)
      for (std::size_t i = 0; i < m; ++i) std::memset(c + i * ldc, 0, n * sizeof(float));
    return;
  }
  const std::size_t nb = ceil_div(n, kNC);
  const std::size_t tiles = ceil_div(m, kMC) * nb;
  const std::size_t flops = 2 * m * n * k;
  // Span only above a FLOP floor: tiny GEMMs (bias-sized) would swamp the
  // ring buffers without adding attribution signal.
  obs::Span span("gemm", "gemm.sgemm", flops >= kGemmTraceMinFlops);
  const Kernel& kern = kernel();
  auto run_tile = [=](std::size_t t) {
    const std::size_t i0 = (t / nb) * kMC;
    const std::size_t j0 = (t % nb) * kNC;
    gemm_tile(kern, ta, tb, k, a, lda, b, ldb, beta, c, ldc, i0, std::min(kMC, m - i0), j0,
              std::min(kNC, n - j0));
  };
  if (tiles == 1) {
    run_tile(0);
    return;
  }
  // Top-level data parallelism (serial under the nesting rule): grain sized
  // so each chunk carries at least kMinFlopsPerTask of arithmetic — derived
  // from the blocked tile size instead of the raw element count.
  util::parallel_for(
      tiles,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) run_tile(t);
      },
      task_grain(tiles, 2 * std::min(kMC, m) * std::min(kNC, n) * k));
}

void sgemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, const float* b, std::size_t ldb, float beta,
                     float* c, std::size_t ldc) {
  if (beta != 0.0f && beta != 1.0f)
    throw std::invalid_argument("sgemm_reference: beta must be 0 or 1");
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) std::memset(crow, 0, n * sizeof(float));
    if (ta == Trans::N && tb == Trans::T) {
      // The seed's matmul_nt loop: dot products over contiguous rows.
      const float* arow = a + i * lda;
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] += acc;
      }
      continue;
    }
    // The seed's matmul/matmul_tn loop: rank-1 updates over contiguous rows.
    for (std::size_t p = 0; p < k; ++p) {
      const float ai = load_a(ta, a, lda, i, p);
      if (tb == Trans::N) {
        const float* brow = b + p * ldb;
        for (std::size_t j = 0; j < n; ++j) crow[j] += ai * brow[j];
      } else {
        for (std::size_t j = 0; j < n; ++j) crow[j] += ai * b[j * ldb + p];
      }
    }
  }
}

}  // namespace airfedga::ml
