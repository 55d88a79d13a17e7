#include "ml/tile.hpp"

#include <cstring>
#include <iterator>
#include <type_traits>

namespace airfedga::ml::tile {

void pack_a(const float* a, std::size_t lda, std::size_t m, std::size_t kc, std::size_t ld,
            float* ap, const float* y) {
  for (std::size_t i = 0; i < ld; i += 4) {
    std::size_t p = 0;
#if defined(__SSE__)
    // Four rows (zeros past m) by four depth steps: a 4x4 transpose.
    for (; p + 4 <= kc; p += 4) {
      __m128 x[4];
      for (std::size_t r = 0; r < 4; ++r) {
        x[r] = i + r < m ? _mm_loadu_ps(a + (i + r) * lda + p) : _mm_setzero_ps();
        if (y != nullptr && i + r < m)
          x[r] = _mm_mul_ps(x[r], relu_mask(_mm_loadu_ps(y + (i + r) * lda + p)));
      }
      _MM_TRANSPOSE4_PS(x[0], x[1], x[2], x[3]);
      for (std::size_t r = 0; r < 4; ++r) _mm_storeu_ps(ap + (p + r) * ld + i, x[r]);
    }
#endif
    for (; p < kc; ++p)
      for (std::size_t r = 0, at = i * lda + p; r < 4; ++r, at += lda)
        ap[p * ld + i + r] = i + r >= m ? 0.0f : y ? a[at] * relu_mask(y[at]) : a[at];
  }
}

namespace {

/// Calls f.operator()<rows>() for 1 <= rows <= kRows.
template <std::size_t kRows, typename F>
[[gnu::always_inline]] inline void with_height(std::size_t rows, F& f) {
  if constexpr (kRows > 1)
    if (rows < kRows) return with_height<kRows - 1>(rows, f);
  f.template operator()<kRows>();
}

using Piece = float __attribute__((vector_size(kPiece * sizeof(float))));
using TwoPieces = float __attribute__((vector_size(2 * kPiece * sizeof(float))));

/// A tile of kRows rows that the compiler keeps in vector registers: a row
/// is two 16-float vectors on the wide body, four 8-float ones else.
template <bool kWide, std::size_t kRows>
using TileRegs = std::conditional_t<kWide, TwoPieces[kRows][2], Piece[kRows][4]>;

/// acc += the kRows x NR register tile over kc depth rows: row p of B is
/// the piece_count(kLen) runs of kLen floats at b + at[i] + off[p], each
/// at tile column piece_col(kLen, i), and row p of A the kRows floats at
/// ap + p * lda; one fused multiply-add per step, in ascending depth, so
/// no entry's chain depends on kRows. Each B row is loaded and staged once
/// for all kRows rows: as two 16-float vectors on the wide body, else as
/// four 8-float ones. A piece is read as 8 floats, whatever kLen.
template <bool kWide, std::size_t kRows, std::size_t kLen = kPiece>
[[gnu::always_inline]] inline void accumulate_tile(std::size_t kc, const float* __restrict ap,
                                                   std::size_t lda, const float* __restrict b,
                                                   const std::size_t* __restrict at,
                                                   const std::size_t* __restrict off,
                                                   TileRegs<kWide, kRows>& acc) {
  constexpr std::size_t kCount = piece_count(kLen);
  static_assert(kLen == kPiece || (kWide && kLen == kWindowRow));
  for (std::size_t p = 0; p < kc; ++p) {
    Piece x[kCount];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kCount; ++i) std::memcpy(&x[i], b + at[i] + off[p], sizeof(Piece));
    float row_b[kNR];
#if defined(AIRFEDGA_HAS_SHUFFLEVECTOR)
    if constexpr (kLen != kPiece) {
      // A half of three 5-float pieces from x[i], its last lane unused.
      const auto half = [&x](std::size_t i, float* out) __attribute__((always_inline)) {
        const TwoPieces ab = __builtin_shufflevector(x[i], x[i + 1], 0, 1, 2, 3, 4, 5, 6, 7, 8,
                                                     9, 10, 11, 12, 13, 14, 15);
        const TwoPieces c = __builtin_shufflevector(x[i + 2], x[i + 2], 0, 1, 2, 3, 4, 5, 6, 7,
                                                    -1, -1, -1, -1, -1, -1, -1, -1);
        const TwoPieces h = __builtin_shufflevector(ab, c, 0, 1, 2, 3, 4, 8, 9, 10, 11, 12, 16,
                                                    17, 18, 19, 20, -1);
        std::memcpy(out, &h, sizeof h);
      };
      half(0, row_b);
      half(3, row_b + kHalf);
    } else if constexpr (kWide) {
      const TwoPieces lo = __builtin_shufflevector(x[0], x[1], 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                                   11, 12, 13, 14, 15);
      const TwoPieces hi = __builtin_shufflevector(x[2], x[3], 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                                   11, 12, 13, 14, 15);
      std::memcpy(row_b, &lo, sizeof lo);
      std::memcpy(row_b + 2 * kPiece, &hi, sizeof hi);
    } else {
      std::memcpy(row_b, x, sizeof x);
    }
#else
    std::memcpy(row_b, x, sizeof x);
#endif
    const float* a = ap + p * lda;
    // Via a float row, which the loop vectorizer turns into vector FMAs.
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kRows; ++i) {
      float row[kNR];
      std::memcpy(row, acc[i], sizeof row);
      for (std::size_t j = 0; j < kNR; ++j) row[j] = __builtin_fmaf(a[i], row_b[j], row[j]);
      std::memcpy(acc[i], row, sizeof row);
    }
  }
}

/// Copies a tile out of its registers, row stride NR.
template <bool kWide, std::size_t kRows>
[[gnu::always_inline]] inline void spill_tile(const TileRegs<kWide, kRows>& acc, float* out) {
  constexpr std::size_t kVecs = std::extent_v<TileRegs<kWide, kRows>, 1>;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < kRows; ++i)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVecs; ++v)
      std::memcpy(out + (i * kVecs + v) * (kNR / kVecs), &acc[i][v], sizeof acc[i][v]);
}

/// Writes a tile (row stride NR) through `store`.
[[gnu::always_inline]] inline void store_tile(const float* acc, const TileStore& store) {
  for (std::size_t i = 0; i < store.rows; ++i) {
    float* c = store.c + i * store.ldc;
    const float* row = acc + i * kNR;
    for (auto r = store.run0; r != store.run1; ++r) {
      float* d = c + r->dst;
      const float* v = row + r->col;
      if (store.add) {
        for (std::size_t j = 0; j < r->len; ++j) d[j] += v[j];
      } else if (store.bias != nullptr) {
        const float bias = store.bias[i];
        if (store.relu)
          for (std::size_t j = 0; j < r->len; ++j) d[j] = std::max(0.0f, v[j] + bias);  // ReLU
        else
          for (std::size_t j = 0; j < r->len; ++j) d[j] = v[j] + bias;
      } else {
        for (std::size_t j = 0; j < r->len; ++j) d[j] = v[j];
      }
    }
  }
}

/// The kRows x NR tile over one KC slice (see Operands).
template <bool kWide, std::size_t kRows, std::size_t kLen>
[[gnu::always_inline]] inline void run_tile(const Operands& op, const TileStore& store) {
  TileRegs<kWide, kRows> acc = {};
  accumulate_tile<kWide, kRows, kLen>(op.depth, op.ap, op.lda, op.b, op.at, op.off, acc);
  float out[kRows * kNR];
  spill_tile<kWide, kRows>(acc, out);
  if (store.prior != nullptr)
    for (std::size_t j = 0; j < store.rows * kNR; ++j) out[j] = store.prior[j] + out[j];
  store_tile(out, store);
}

/// The kRows x NR dx tile (see Operands).
template <bool kWide, std::size_t kRows>
[[gnu::always_inline]] inline void run_dx(const Operands& op, const TileStore& store) {
  const std::size_t cout = op.depth, lda = op.lda;
  const std::uint32_t k = op.k, oh = op.oh, ow = op.ow;
  const std::uint32_t *ly = op.ly, *lx = op.lx;
  TileRegs<kWide, kRows> sum = {};
  for (std::uint32_t ki = 0; ki < k; ++ki) {
    for (std::uint32_t kj = 0; kj < k; ++kj) {
      const std::size_t t = ki * k + kj;
      const float* b = op.b + op.shift[t];
      // The patch-matrix gradient of rows (c, ki, kj) at the lanes' output
      // pixels: the chain over the output channels, in KC slices summed as
      // ml::sgemm sums them.
      TileRegs<kWide, kRows> d = {};
      accumulate_tile<kWide, kRows>(std::min(kKC, cout), op.ap + t * cout * lda, lda, b, op.at,
                                    op.off, d);
      for (std::size_t o0 = kKC; o0 < cout; o0 += kKC) {
        TileRegs<kWide, kRows> acc = {};
        accumulate_tile<kWide, kRows>(std::min(kKC, cout - o0), op.ap + (t * cout + o0) * lda,
                                      lda, b, op.at, op.off + o0, acc);
        for (std::size_t i = 0; i < kRows; ++i)
          for (std::size_t v = 0; v < std::size(d[i]); ++v) d[i][v] += acc[i][v];
      }
      // Add it where the output pixel (y + pad - ki, x + pad - kj) exists.
      float s[kRows][kNR], dv[kRows][kNR];
      std::memcpy(s, sum, sizeof s);
      std::memcpy(dv, d, sizeof dv);
      for (std::size_t j = 0; j < kNR; ++j) {
        const bool live = ly[j] - ki < oh && lx[j] - kj < ow;
        for (std::size_t i = 0; i < kRows; ++i) s[i][j] = live ? s[i][j] + dv[i][j] : s[i][j];
      }
      std::memcpy(sum, s, sizeof s);
    }
  }
  float out[kRows * kNR];
  spill_tile<kWide, kRows>(sum, out);
  store_tile(out, store);
}

// The bodies: the same tiles compiled per instruction set, one plain function each.
void default_tile(const Operands& op, const TileStore& store) {
  run_tile<false, kMR, kPiece>(op, store);
}

void default_dx(const Operands& op, const TileStore& store) { run_dx<false, kMR>(op, store); }

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("fma")]] void fma_tile(const Operands& op, const TileStore& store) {
  run_tile<false, kMR, kPiece>(op, store);
}

[[gnu::target("fma")]] void fma_dx(const Operands& op, const TileStore& store) {
  run_dx<false, kMR>(op, store);
}

[[gnu::target("avx512f")]] void wide_tile(const Operands& op, const TileStore& store) {
  const auto tile = [&]<std::size_t kRows>() __attribute__((always_inline)) {
    op.window_rows ? run_tile<true, kRows, kWindowRow>(op, store)
                   : run_tile<true, kRows, kPiece>(op, store);
  };
  with_height<kWideRows>(store.rows, tile);
}

[[gnu::target("avx512f")]] void wide_dx(const Operands& op, const TileStore& store) {
  const auto dx = [&]<std::size_t kRows>() __attribute__((always_inline)) {
    run_dx<true, kRows>(op, store);
  };
  with_height<kWideDxRows>(store.rows, dx);
}

constexpr Kernel kKernels[] = {{Body::kDefault, "default", false, default_tile, default_dx},
                               {Body::kFma, "fma", false, fma_tile, fma_dx},
                               {Body::kWide, "wide", true, wide_tile, wide_dx}};

/// How many bodies this host runs, slowest first. Static initialisation may
/// get here before libgcc reads the CPU features, hence __builtin_cpu_init().
const std::size_t g_runnable = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") ? 3 : __builtin_cpu_supports("fma") ? 2 : 1;
}();
#else
constexpr Kernel kKernels[] = {{Body::kDefault, "default", false, default_tile, default_dx}};
constexpr std::size_t g_runnable = 1;
#endif
const Kernel* g_kernel = &kKernels[g_runnable - 1];  // kernel(): the fastest, until forced

}  // namespace

const Kernel& kernel() { return *g_kernel; }

bool force_body(Body body) {
  if (static_cast<std::size_t>(body) >= g_runnable) return false;
  g_kernel = &kKernels[static_cast<std::size_t>(body)];
  return true;
}

void tile_over_depth(const Kernel& kern, Operands op, TileStore store) {
  static constexpr Run kWhole{0, kNR, 0};
  alignas(64) float sum[kWideRows * kNR];
  TileStore partial{sum, kNR, store.rows, &kWhole, &kWhole + 1};
  const std::size_t k = op.depth;
  for (std::size_t p0 = 0; p0 < k; p0 += kKC, op.ap += kKC * op.lda, op.off += kKC) {
    op.depth = std::min(kKC, k - p0);
    const bool last = p0 + op.depth == k;
    partial.add = p0 > 0;
    if (last) store.prior = p0 > 0 ? sum : nullptr;
    kern.tile(op, last ? store : partial);
  }
}

}  // namespace airfedga::ml::tile
