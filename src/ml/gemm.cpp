#include "ml/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "ml/kernel_clones.hpp"
#include "ml/workspace.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::ml {
namespace {

// BLIS-style blocking: an (mc x nc) output tile is produced per task; for
// each KC depth slice the operands are packed into contiguous panels and an
// MR x NR register tile accumulates over the slice. MC*KC floats of packed
// A (~64 KiB) target L2, the NR-wide B micro-panels stream through L1.
// MR=4 x NR=32 keeps the accumulator at 128 floats — 8 vector registers at
// 512-bit, 16 at 256-bit — which auto-vectorizes cleanly at every x86
// vector width (measured: narrower NR collapses under AVX-512 codegen).
// The constants live in gemm.hpp (gemm_blocking): Conv2D's in-place tiles
// use the same tile width and depth slices (and MR on the 8-float clones).
constexpr std::size_t kMR = gemm_blocking().mr;
constexpr std::size_t kNR = gemm_blocking().nr;
constexpr std::size_t kMC = gemm_blocking().mc;
constexpr std::size_t kKC = gemm_blocking().kc;
constexpr std::size_t kNC = gemm_blocking().nc;

// Flop target per parallel_for chunk: dispatch costs microseconds, so a
// chunk must carry at least ~milliseconds of arithmetic to be worth it.
constexpr std::size_t kMinFlopsPerTask = std::size_t{1} << 21;

// A GEMM is worth a trace span only above this flop count (~1 Mflop, a
// few hundred microseconds on one lane); smaller calls stay invisible so
// the ring buffers hold the history that matters.
constexpr std::size_t kGemmTraceMinFlops = std::size_t{1} << 20;

std::atomic<std::size_t> g_coop_min_flops{std::size_t{1} << 23};

inline std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

inline float load_a(Trans ta, const float* a, std::size_t lda, std::size_t i, std::size_t p) {
  return ta == Trans::N ? a[i * lda + p] : a[p * lda + i];
}

/// Packs A rows [i0, i0+mc) x depth [p0, p0+kc) into MR-row micro-panels:
/// panel `ir` holds kc groups of MR consecutive-row elements (zero-padded
/// past mc), so the micro-kernel reads A with stride 1.
void pack_a_panels(Trans ta, const float* a, std::size_t lda, std::size_t i0, std::size_t mc,
                   std::size_t p0, std::size_t kc, float* ap) {
  static_assert(kMR == 4, "the Trans::N path interleaves four rows");
  const std::size_t mp = ceil_div(mc, kMR);
  for (std::size_t ir = 0; ir < mp; ++ir) {
    float* panel = ap + ir * kc * kMR;
    const std::size_t rows = std::min(kMR, mc - ir * kMR);
    if (ta == Trans::T) {
      // Each depth step's MR elements are contiguous in a stored row.
      const float* src = a + p0 * lda + i0 + ir * kMR;
      for (std::size_t p = 0; p < kc; ++p) {
        for (std::size_t r = 0; r < rows; ++r) panel[p * kMR + r] = src[p * lda + r];
        for (std::size_t r = rows; r < kMR; ++r) panel[p * kMR + r] = 0.0f;
      }
      continue;
    }
    if (rows == kMR) {
      // Walk the four stored rows in lockstep, four depth steps at a time
      // through a 4x4 register transpose.
      const float* r0 = a + (i0 + ir * kMR) * lda + p0;
      const float* r1 = r0 + lda;
      const float* r2 = r1 + lda;
      const float* r3 = r2 + lda;
      std::size_t p = 0;
#if defined(__SSE__)
      for (; p + 4 <= kc; p += 4) {
        __m128 x0 = _mm_loadu_ps(r0 + p);
        __m128 x1 = _mm_loadu_ps(r1 + p);
        __m128 x2 = _mm_loadu_ps(r2 + p);
        __m128 x3 = _mm_loadu_ps(r3 + p);
        _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
        float* dst = panel + p * kMR;
        _mm_storeu_ps(dst, x0);
        _mm_storeu_ps(dst + 4, x1);
        _mm_storeu_ps(dst + 8, x2);
        _mm_storeu_ps(dst + 12, x3);
      }
#endif
      for (; p < kc; ++p) {
        float* dst = panel + p * kMR;
        dst[0] = r0[p];
        dst[1] = r1[p];
        dst[2] = r2[p];
        dst[3] = r3[p];
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < rows; ++r)
        panel[p * kMR + r] = a[(i0 + ir * kMR + r) * lda + p0 + p];
      for (std::size_t r = rows; r < kMR; ++r) panel[p * kMR + r] = 0.0f;
    }
  }
}

/// Packs B depth [p0, p0+kc) x columns [j0, j0+nc) into NR-column
/// micro-panels (zero-padded past nc), stride-1 for the micro-kernel.
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

/// MR x NR micro-kernel over one packed KC slice. Always computes the full
/// register tile (panels are zero-padded), then masks the store to the live
/// mr x nr corner. `overwrite` selects C = acc vs C += acc — the only beta
/// cases sgemm accepts.
AIRFEDGA_KERNEL_CLONES
void micro_kernel(std::size_t kc, const float* __restrict ap, const float* __restrict bp,
                  float* __restrict c, std::size_t ldc, std::size_t mr, std::size_t nr,
                  bool overwrite) {
  float acc[kMR * kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* b = bp + p * kNR;
    const float* a = ap + p * kMR;
    for (std::size_t i = 0; i < kMR; ++i) {
      const float ai = a[i];
      float* row = acc + i * kNR;
      for (std::size_t j = 0; j < kNR; ++j) row[j] = __builtin_fmaf(ai, b[j], row[j]);
    }
  }
  if (mr == kMR && nr == kNR) {
    if (overwrite) {
      for (std::size_t i = 0; i < kMR; ++i)
        for (std::size_t j = 0; j < kNR; ++j) c[i * ldc + j] = acc[i * kNR + j];
    } else {
      for (std::size_t i = 0; i < kMR; ++i)
        for (std::size_t j = 0; j < kNR; ++j) c[i * ldc + j] += acc[i * kNR + j];
    }
    return;
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) {
      if (overwrite)
        c[i * ldc + j] = acc[i * kNR + j];
      else
        c[i * ldc + j] += acc[i * kNR + j];
    }
}

/// One (mc x nc) output tile: full ascending k loop in KC slices, packing
/// into the calling thread's workspace. Tiles touch disjoint C ranges and
/// each element's accumulation order depends only on k, so any assignment
/// of tiles to threads yields identical bits.
void gemm_tile(Trans ta, Trans tb, std::size_t k, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c, std::size_t ldc,
               std::size_t i0, std::size_t mc, std::size_t j0, std::size_t nc) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  const std::size_t mp = ceil_div(mc, kMR);
  const std::size_t np = ceil_div(nc, kNR);
  float* ap = ws.floats(mp * kMR * std::min(kKC, k));
  float* bp = ws.floats(np * kNR * std::min(kKC, k));
  for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
    const std::size_t kc = std::min(kKC, k - p0);
    pack_b_panels(tb, b, ldb, p0, kc, j0, nc, bp);
    pack_a_panels(ta, a, lda, i0, mc, p0, kc, ap);
    const bool overwrite = p0 == 0 && beta == 0.0f;
    for (std::size_t jr = 0; jr < np; ++jr) {
      const std::size_t nr = std::min(kNR, nc - jr * kNR);
      for (std::size_t ir = 0; ir < mp; ++ir) {
        const std::size_t mr = std::min(kMR, mc - ir * kMR);
        micro_kernel(kc, ap + ir * kc * kMR, bp + jr * kc * kNR,
                     c + (i0 + ir * kMR) * ldc + j0 + jr * kNR, ldc, mr, nr, overwrite);
      }
    }
  }
}

}  // namespace

std::size_t gemm_coop_min_flops() { return g_coop_min_flops.load(std::memory_order_relaxed); }
void set_gemm_coop_min_flops(std::size_t flops) {
  g_coop_min_flops.store(flops, std::memory_order_relaxed);
}

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
  auto run_tile = [=](std::size_t t) {
    const std::size_t i0 = (t / nb) * kMC;
    const std::size_t j0 = (t % nb) * kNC;
    gemm_tile(ta, tb, k, a, lda, b, ldb, beta, c, ldc, i0, std::min(kMC, m - i0), j0,
              std::min(kNC, n - j0));
  };
  if (tiles == 1) {
    run_tile(0);
    return;
  }
  if (auto* pool = util::ThreadPool::cooperation_pool();
      pool != nullptr && flops >= gemm_coop_min_flops()) {
    // Training lane with idle lanes possibly available: recruit them. The
    // tile -> C-range mapping is fixed, so helper participation can only
    // change wall time, never bits.
    pool->cooperate(tiles, run_tile);
    return;
  }
  // Top-level data parallelism (serial under the nesting rule): grain sized
  // so each chunk carries at least kMinFlopsPerTask of arithmetic — derived
  // from the blocked tile size instead of the raw element count.
  const std::size_t tile_flops =
      2 * std::min(kMC, m) * std::min(kNC, n) * k;
  const std::size_t grain =
      std::clamp<std::size_t>(kMinFlopsPerTask / std::max<std::size_t>(tile_flops, 1), 1, tiles);
  util::parallel_for(
      tiles,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) run_tile(t);
      },
      grain);
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
