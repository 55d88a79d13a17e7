#include "ml/workspace.hpp"

#include <algorithm>

namespace airfedga::ml {

Workspace& Workspace::tls() {
  thread_local Workspace ws;
  return ws;
}

float* Workspace::floats(std::size_t n) {
  // Round every allocation to 16 floats (64 bytes) so consecutive buffers
  // keep cache-line-relative alignment inside a block.
  n = (n + 15) & ~static_cast<std::size_t>(15);
  while (current_ < blocks_.size() && blocks_[current_].cap - blocks_[current_].used < n)
    ++current_;  // the skipped tail is reclaimed when the scope rewinds
  if (current_ == blocks_.size()) {
    // Sized for the pending request alone. Blocks are retained, so the same
    // sequence of requests finds the same blocks on the next step and the
    // arena stops growing after one pass of each step shape.
    const std::size_t cap = std::max(kMinBlockFloats, n);
    Block b;
    // new float[] (not make_unique) leaves the storage uninitialized: every
    // workspace buffer is fully overwritten by its kernel.
    b.mem.reset(new float[cap]);
    b.cap = cap;
    blocks_.push_back(std::move(b));
  }
  Block& b = blocks_[current_];
  float* p = b.mem.get() + b.used;
  b.used += n;
  return p;
}

std::size_t Workspace::floats_reserved() const {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.cap;
  return total;
}

void Workspace::rewind(std::size_t block, std::size_t used) {
  for (std::size_t i = block + 1; i < blocks_.size(); ++i) blocks_[i].used = 0;
  if (block < blocks_.size()) blocks_[block].used = used;
  current_ = block;
}

}  // namespace airfedga::ml
