#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace airfedga::ml {

/// Thread-local bump arena for kernel temporaries (GEMM packing panels,
/// padded conv inputs, gathered gradient views).
///
/// The training hot path runs the same layer shapes step after step, so the
/// arena only allocates while it grows toward the peak working set of the
/// model being trained; after that every `floats()` call is a pointer bump
/// into an already-owned block and steady-state training performs zero heap
/// allocations (the property gemm_test pins down with an allocation-counting
/// hook).
///
/// Ownership/lifetime rules:
///  * One arena per thread (`tls()`); kernels never share arena memory
///    across threads, so no synchronization is needed: a `parallel_for`
///    chunk packs into its own thread's arena.
///  * Allocations live until the innermost enclosing `Scope` closes; scopes
///    nest (Conv2D's scope inside a Model::forward is fine). Blocks are
///    retained across scopes — closing a scope only rewinds the bump
///    pointer, it never releases memory.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's arena.
  static Workspace& tls();

  /// RAII region: on destruction, every allocation made since construction
  /// is rewound (memory stays owned by the arena for reuse).
  class Scope {
   public:
    explicit Scope(Workspace& ws)
        : ws_(ws), block_(ws.current_), used_(ws.current_used()) {}
    ~Scope() { ws_.rewind(block_, used_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t block_;
    std::size_t used_;
  };

  /// Uninitialized buffer of `n` floats, 64-byte-aligned relative to its
  /// block start, valid until the enclosing Scope closes.
  float* floats(std::size_t n);

  /// Total float capacity currently owned (diagnostics/benches).
  [[nodiscard]] std::size_t floats_reserved() const;

  /// Number of block allocations performed so far (diagnostics: stable
  /// once training reaches steady state).
  [[nodiscard]] std::size_t blocks_allocated() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<float[]> mem;
    std::size_t cap = 0;   ///< floats
    std::size_t used = 0;  ///< floats
  };

  [[nodiscard]] std::size_t current_used() const {
    return current_ < blocks_.size() ? blocks_[current_].used : 0;
  }
  void rewind(std::size_t block, std::size_t used);

  static constexpr std::size_t kMinBlockFloats = 1 << 16;  // 256 KiB

  std::vector<Block> blocks_;
  std::size_t current_ = 0;  ///< block new allocations bump into
};

}  // namespace airfedga::ml
