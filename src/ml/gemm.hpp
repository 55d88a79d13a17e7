#pragma once

#include <cstddef>
#include <type_traits>

namespace airfedga::ml {

/// Operand orientation for `sgemm` (row-major storage throughout).
enum class Trans : unsigned char {
  N,  ///< operand used as stored
  T,  ///< operand used transposed
};

/// Blocking geometry of the packed kernels. Exported so callers can derive
/// parallel grain sizes from panel sizes (instead of guessing) and so tests
/// can aim edge shapes at the tile boundaries.
struct GemmBlocking {
  std::size_t mc;  ///< row-panel height (rows of C per tile)
  std::size_t kc;  ///< depth-panel length (k-extent packed per pass)
  std::size_t nc;  ///< column-panel width (columns of C per tile)
  std::size_t mr;  ///< micro-kernel register-tile rows
  std::size_t nr;  ///< micro-kernel register-tile columns
};

/// The compiled-in blocking constants.
[[nodiscard]] constexpr GemmBlocking gemm_blocking() { return {64, 256, 256, 4, 32}; }

/// Source of a GEMM's packed B operand. Called as
/// `pack(p0, kc, j0, nc, bp)` for one block of op(B), depth rows
/// [p0, p0+kc) by columns [j0, j0+nc) with kc <= KC and nc <= NC, it writes
/// ceil(nc / NR) micro-panels of kc x NR floats: panel `jr` starts at
/// `bp + jr*kc*NR` and holds `bp[jr*kc*NR + p*NR + c] = op(B)(p0+p,
/// j0+jr*NR+c)`, zero for columns at or past nc. `pack_b_panels` is the
/// packer of a stored matrix; others produce B without storing it (Conv2D
/// packs its patch matrix straight from its input).
///
/// A non-owning reference to a callable, so binding one allocates nothing;
/// the callable must outlive the sgemm call. Cooperating threads call it
/// concurrently, one block each, so it must not mutate shared state.
class PanelPacker {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, PanelPacker>)
  PanelPacker(const F& pack) noexcept
      : obj_(&pack), call_([](const void* obj, std::size_t p0, std::size_t kc, std::size_t j0,
                              std::size_t nc, float* bp) {
          (*static_cast<const F*>(obj))(p0, kc, j0, nc, bp);
        }) {}

  void operator()(std::size_t p0, std::size_t kc, std::size_t j0, std::size_t nc,
                  float* bp) const {
    call_(obj_, p0, kc, j0, nc, bp);
  }

 private:
  const void* obj_;
  void (*call_)(const void*, std::size_t, std::size_t, std::size_t, std::size_t, float*);
};

/// The packer of a stored B: op(B) is B stored (k,n) with row stride `ldb`
/// when `tb == N`, stored (n,k) when `tb == T`.
void pack_b_panels(Trans tb, const float* b, std::size_t ldb, std::size_t p0, std::size_t kc,
                   std::size_t j0, std::size_t nc, float* bp);

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
/// thread count, tile assignment, or cooperative schedule produces
/// bit-identical results. Each step of that sum is one fused multiply-add,
/// so the bits do not depend on the CPU's instruction set either.
///
/// Execution policy: when a ThreadPool cooperation scope is installed on
/// the calling thread (Driver training lanes) and the GEMM is large enough
/// (`gemm_coop_min_flops`), idle lanes are recruited through
/// ThreadPool::cooperate; otherwise the tile loop goes through
/// util::parallel_for with a grain derived from the per-tile flop count
/// (which serializes under the nesting rule or on tiny problems).
void sgemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, const float* a,
           std::size_t lda, const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// The same GEMM with op(B) supplied by a packer instead of a stored matrix.
/// It runs the same tile loop, so a packer that writes the panels
/// `pack_b_panels` would write for some stored B gives the bits of `sgemm`
/// on that B.
void sgemm(Trans ta, std::size_t m, std::size_t n, std::size_t k, const float* a,
           std::size_t lda, PanelPacker pack_b, float beta, float* c, std::size_t ldc);

/// Scalar triple-loop reference with the same contract as `sgemm` (the
/// seed's kernel). Used by gemm_test as ground truth and by micro_gemm as
/// the before/after baseline.
void sgemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                     const float* a, std::size_t lda, const float* b, std::size_t ldb, float beta,
                     float* c, std::size_t ldc);

/// Minimum flop count (2·m·n·k) for a GEMM to recruit idle lanes through a
/// cooperation scope. Settable so tests and benches can force cooperation
/// on small problems; the default keeps sub-millisecond GEMMs from paying
/// the enqueue/wakeup cost.
[[nodiscard]] std::size_t gemm_coop_min_flops();
void set_gemm_coop_min_flops(std::size_t flops);

}  // namespace airfedga::ml
