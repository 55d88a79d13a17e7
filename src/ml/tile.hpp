#pragma once

// The FMA register tile that ml::sgemm and Conv2D both run (internal
// header). A tile is a GEMM's rows x NR columns over one KC depth slice,
// each entry the ascending fused multiply-add chain from +0; A is packed
// depth-major (pack_a) and B read as pieces of a row at per-row offsets,
// in place from the caller's operand: sgemm's packed panel is the case of
// pieces at 0, 8, 16, 24 and row p at p * NR.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "ml/gemm.hpp"

// gcc >= 12 and clang; without it B rows are staged as 8-float pieces only.
#if defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define AIRFEDGA_HAS_SHUFFLEVECTOR 1
#endif
#endif

namespace airfedga::ml::tile {

constexpr std::size_t kMR = gemm_blocking().mr;
constexpr std::size_t kNR = gemm_blocking().nr;
constexpr std::size_t kKC = gemm_blocking().kc;
/// An 8-float B piece, a 16-float vector, and dW's piece at k = 5 on the
/// wide body: a window row, three a half (8 without shufflevector).
constexpr std::size_t kPiece = kNR / 4;
constexpr std::size_t kHalf = kNR / 2;
#if defined(AIRFEDGA_HAS_SHUFFLEVECTOR)
constexpr std::size_t kWindowRow = 5;
#else
constexpr std::size_t kWindowRow = kPiece;
#endif

/// Pieces of `len` floats a tile stages, as many as fill each half, and
/// the tile column where piece i starts.
constexpr std::size_t piece_count(std::size_t len) { return 2 * (kHalf / len); }
constexpr std::size_t piece_col(std::size_t len, std::size_t i) {
  return i / (kHalf / len) * kHalf + i % (kHalf / len) * len;
}

/// Tallest tiles on the wide body, whose 32 registers hold a tile's
/// rows, or a dx tile's twice (chain and running sum), at two a row plus B.
constexpr std::size_t kWideRows = 14;
constexpr std::size_t kWideDxRows = 7;

/// Flop floor per parallel_for chunk: dispatch costs microseconds, so a
/// chunk must carry ~2 Mflop to be worth it.
constexpr std::size_t kMinFlopsPerTask = std::size_t{1} << 21;

/// Grain for parallel_for over n tasks of `task_flops` each.
inline std::size_t task_grain(std::size_t n, std::size_t task_flops) {
  return std::clamp<std::size_t>(kMinFlopsPerTask / std::max<std::size_t>(task_flops, 1), 1,
                                 std::max<std::size_t>(n, 1));
}

inline std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Row stride of a packed A operand of m rows: m rounded up to kMR.
inline std::size_t packed_stride(std::size_t m) { return ceil_div(m, kMR) * kMR; }

/// ReLU's mask at its outputs `y`: 1 where y > 0, else 0 (NaN too), branch-free.
inline float relu_mask(float y) {
  return std::bit_cast<float>(-static_cast<std::uint32_t>(y > 0.0f) & 0x3f800000u);
}
#if defined(__SSE__)
inline __m128 relu_mask(__m128 y) {
  return _mm_and_ps(_mm_cmpgt_ps(y, _mm_setzero_ps()), _mm_set1_ps(1.0f));
}
#endif

/// Packs the m x kc matrix A (row stride lda) depth-major for the tiles:
/// ap[p * ld + i] = A(i, p), zero for the rows m <= i < ld. With `y` (the
/// ReLU output A is the gradient of, same layout), A(i, p) * relu_mask.
void pack_a(const float* a, std::size_t lda, std::size_t m, std::size_t kc, std::size_t ld,
            float* ap, const float* y = nullptr);

/// How a pass splits `count` rows into n balanced row panels of at most
/// `tallest` rows, the first count % n one row taller: one register tile
/// each, as tall as its panel on the wide body. The 8-float bodies
/// keep kMR-row tiles, where a taller one would spill, and drop the rows
/// past the panel (the last one's end by `count` rounded up to kMR).
struct Panels {
  std::size_t n, base, extra;
  Panels(bool wide, std::size_t count, std::size_t tallest)
      : n(ceil_div(count, wide ? tallest : kMR)), base(count / n), extra(count % n) {}
  [[nodiscard]] std::size_t start(std::size_t i) const { return i * base + std::min(i, extra); }
  [[nodiscard]] std::size_t rows(std::size_t i) const { return base + (i < extra ? 1 : 0); }
};

/// `len` consecutive tile columns from `col` on, stored at offsets dst,
/// dst + 1, ... of a C row.
struct Run {
  std::size_t col, len, dst;
};

/// Where a tile writes: its first `rows` rows, row i to c + i * ldc
/// through the runs [run0, run1), as `C = value + bias[i]` (through ReLU
/// with `relu`), `C = value` when bias is null, or `C += value` with
/// `add`. value is the tile's sum over its depth slice, added to `prior`
/// (the sum over the earlier slices, row stride NR) when that is set.
struct TileStore {
  float* c;
  std::size_t ldc, rows;
  const Run *run0, *run1;
  const float* prior = nullptr;
  const float* bias = nullptr;
  bool add = false;
  bool relu = false;
};

/// A kernel call's operands. A tile (shift null): `store.rows` rows x NR
/// columns of a GEMM with B read in place, over a KC slice of `depth`
/// rows: row p of B is the pieces at b + at[i] + off[p], of A the rows'
/// floats at ap + p * lda; each entry is the ascending fma chain from +0.
/// A dx tile (shift set; see Conv2D::backward_input): `store.rows` input
/// channels x NR pixels; for each kernel offset t = (ki, kj), ascending,
/// the chain over the depth = cout output channels (A rows at ap + (t *
/// cout + o) * lda, B at b + at[i] + shift[t] + off[o]) is added to each
/// lane whose output pixel exists: ly[j] - ki < oh and lx[j] - kj < ow,
/// for lane j's padded coordinates (ly[j], lx[j]).
struct Operands {
  const float *ap, *b;
  const std::size_t *at, *off;
  std::size_t lda, depth;
  bool window_rows = false;  // dW at k = 5 on the wide body: 5-float pieces
  std::uint32_t k = 0, oh = 0, ow = 0;
  const std::size_t* shift = nullptr;
  const std::uint32_t *ly = nullptr, *lx = nullptr;
};

/// The register-tile bodies, slowest first, each with its kernels: `tile`
/// and `dx` run one tile or dx tile through `store`. `default` calls libm's
/// fmaf for each step and `fma` fuses 8-float vectors, in 4-row tiles;
/// `wide` (avx512f) fuses 16-float ones in tiles as tall as the rows (up to
/// 14, or 7 for dx) from four 8-float pieces or six 5-float ones (three a
/// half). Every step rounds once in each body: they differ in speed, not bits.
enum class Body : std::uint8_t { kDefault, kFma, kWide };
struct Kernel {
  Body body;
  const char* name;  // "default", "fma" or "wide"
  bool wide;         // tall tiles and 16-float staging: Panels, window rows
  void (*tile)(const Operands& op, const TileStore& store);
  void (*dx)(const Operands& op, const TileStore& store);
};

/// The fastest body this host runs, picked from its CPU features during
/// static initialisation (so no static initializer may run a tile); a pass
/// reads it once. force_body, a test seam, makes it `body` if the host runs
/// that body, else returns false; never call it while a pass runs.
const Kernel& kernel();
bool force_body(Body body);

/// The tile over all op.depth rows: the slices before the last sum into a
/// scratch tile, exactly as ml::sgemm sums them into C, and the last
/// stores the total through `store`.
void tile_over_depth(const Kernel& kern, Operands op, TileStore store);

}  // namespace airfedga::ml::tile
