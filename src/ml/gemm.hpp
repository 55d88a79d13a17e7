#pragma once

#include <cstddef>

namespace airfedga::ml {

/// Operand orientation for `sgemm` (row-major storage throughout).
enum class Trans : unsigned char {
  N,  ///< operand used as stored
  T,  ///< operand used transposed
};

/// Blocking geometry of the packed kernels. Exported so callers can derive
/// parallel grain sizes from panel sizes (instead of guessing), so tests
/// can aim edge shapes at the tile boundaries, and so Conv2D's in-place
/// tiles use the micro-kernel's tile width and depth slices.
struct GemmBlocking {
  std::size_t mc;  ///< row-panel height (rows of C per tile)
  std::size_t kc;  ///< depth-panel length (k-extent packed per pass)
  std::size_t nc;  ///< column-panel width (columns of C per tile)
  std::size_t mr;  ///< micro-kernel register-tile rows
  std::size_t nr;  ///< micro-kernel register-tile columns
};

/// The compiled-in blocking constants.
[[nodiscard]] constexpr GemmBlocking gemm_blocking() { return {64, 256, 256, 4, 32}; }

/// C(m,n) = opA(A) · opB(B) + beta·C, row-major, single precision.
///
/// opA(A) is A(m,k): stored (m,k) with row stride `lda` when `ta == N`,
/// stored (k,m) when `ta == T` (likewise for B against (k,n)). `beta` must
/// be 0 (overwrite C) or 1 (accumulate into C) — the only two cases the
/// training step needs. C must not alias A or B.
///
/// Implementation: cache-blocked and register-tiled — A and B are packed
/// into contiguous MCxKC / KCxNC panels per (MCxNC) output tile and an
/// MRxNR micro-kernel accumulates in registers over each KC slice. Every
/// output element's floating-point accumulation order is a fixed function
/// of (m, n, k) alone: the k loop always runs ascending in KC slices and
/// parallelism only ever splits the *output* into disjoint tiles, so any
/// thread count or tile assignment produces bit-identical results. Each
/// step of that sum is one fused multiply-add, so the bits do not depend on
/// the CPU's instruction set either.
///
/// Execution policy: the tile loop goes through util::parallel_for with a
/// grain derived from the per-tile flop count (which serializes under the
/// nesting rule, e.g. inside Driver training lanes, or on tiny problems).
void sgemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, const float* a,
           std::size_t lda, const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// Scalar triple-loop reference with the same contract as `sgemm` (the
/// seed's kernel). Used by gemm_test as ground truth and by micro_gemm as
/// the before/after baseline.
void sgemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, const float* b, std::size_t ldb, float beta,
                     float* c, std::size_t ldc);

}  // namespace airfedga::ml
