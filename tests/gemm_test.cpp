#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <tuple>
#include <vector>

#include "fl/mechanisms.hpp"
#include "ml/conv2d.hpp"
#include "ml/gemm.hpp"
#include "ml/model.hpp"
#include "ml/workspace.hpp"
#include "ml/zoo.hpp"
#include "util/thread_pool.hpp"

// Allocation-counting hook (shared with bench/micro_gemm.cpp): every
// operator new in this binary bumps the counters, so a test can assert
// that a region of the training hot path performs zero heap allocations.
#include "support/alloc_hook.hpp"
#include "support/each_body.hpp"

namespace {
struct AllocStats {
  std::size_t count;
  std::size_t bytes;
};

AllocStats alloc_stats() {
  const auto s = alloc_hook::stats();
  return {s.count, s.bytes};
}
}  // namespace

namespace airfedga::ml {
namespace {

std::vector<float> random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> m(rows * cols);
  for (auto& v : m) v = static_cast<float>(rng.normal());
  return m;
}

/// Relative-tolerance comparison: the blocked kernel accumulates in a
/// different (but fixed) order than the scalar reference, so values agree
/// to rounding, not bitwise.
void expect_close(const std::vector<float>& a, const std::vector<float>& b, std::size_t k,
                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  const double tol = 1e-5 * std::sqrt(static_cast<double>(k) + 1.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol + tol * std::abs(static_cast<double>(b[i])))
        << what << " at " << i;
}

class SgemmShapes
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

/// One operand layout of a shape: A and B stored for (ta, tb), a nonzero
/// starting C (which exercises beta), and the label failures print.
struct Layout {
  std::size_t m, n, k;
  Trans ta, tb;
  float beta;
  std::vector<float> a, b, c0;
  [[nodiscard]] std::size_t lda() const { return ta == Trans::N ? k : m; }
  [[nodiscard]] std::size_t ldb() const { return tb == Trans::N ? n : k; }
  [[nodiscard]] std::string label() const {
    return "m=" + std::to_string(m) + " n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " ta=" + (ta == Trans::N ? "N" : "T") + " tb=" + (tb == Trans::N ? "N" : "T") +
           " beta=" + std::to_string(beta);
  }
  /// c0 after `gemm` (sgemm or a scalar oracle with its signature).
  template <typename Gemm>
  [[nodiscard]] std::vector<float> run(Gemm gemm) const {
    auto c = c0;
    gemm(ta, tb, m, n, k, a.data(), lda(), b.data(), ldb(), beta, c.data(), n);
    return c;
  }
};

/// The eight layouts (ta x tb x beta) of the test's shape. The operands
/// and the scalar oracles do not depend on the kernel body, so each test
/// builds them once and runs only sgemm per body.
std::vector<Layout> layouts(const std::tuple<std::size_t, std::size_t, std::size_t>& shape) {
  const auto [m, n, k] = shape;
  std::vector<Layout> out;
  for (const Trans ta : {Trans::N, Trans::T})
    for (const Trans tb : {Trans::N, Trans::T})
      for (const float beta : {0.0f, 1.0f})
        out.push_back({m, n, k, ta, tb, beta,
                       ta == Trans::N ? random_matrix(m, k, 1) : random_matrix(k, m, 1),
                       tb == Trans::N ? random_matrix(k, n, 2) : random_matrix(n, k, 2),
                       random_matrix(m, n, 3)});
  return out;
}

TEST_P(SgemmShapes, AllVariantsMatchScalarReference) {
  const auto cases = layouts(GetParam());
  std::vector<std::vector<float>> refs;
  for (const auto& l : cases) refs.push_back(l.run(sgemm_reference));
  for_each_body([&] {
    for (std::size_t i = 0; i < cases.size(); ++i)
      expect_close(cases[i].run(sgemm), refs[i], cases[i].k, cases[i].label());
  });
}

// Edge shapes around every blocking boundary: single rows/columns, sizes
// straddling the MR/NR register tile, the MC/NC tile, and the KC depth
// panel, plus the paper's conv-lowering shapes.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SgemmShapes,
    testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 97, 5),   // 1xN
                    std::make_tuple(97, 1, 5),                             // Nx1
                    std::make_tuple(3, 33, 7),                             // sub-tile
                    std::make_tuple(4, 32, 16),                            // exact MR/NR
                    std::make_tuple(5, 33, 17),                            // MR/NR + 1
                    std::make_tuple(64, 256, 256),                         // exact MC/NC/KC
                    std::make_tuple(65, 257, 257),                         // MC/NC/KC + 1
                    std::make_tuple(63, 255, 300),                         // MC/NC - 1, k > KC
                    std::make_tuple(13, 150, 70),                          // fig05 conv2-like
                    std::make_tuple(6, 200, 75)));                         // fig05 conv1-like

// A top-level sgemm splits its tiles over the global pool's parallel_for
// (65x257x257 runs 4 tiles at grain 1); fixed disjoint C ranges must give
// the serial bits on every edge shape and operand layout.
TEST_P(SgemmShapes, FanOutEqualsSerialBitwise) {
  const auto cases = layouts(GetParam());
  for_each_body([&] {
    for (const auto& l : cases) {
      std::vector<float> serial;
      {
        util::ThreadPool::SerialRegion region;
        serial = l.run(sgemm);
      }
      EXPECT_EQ(l.run(sgemm), serial) << l.label();
    }
  });
}

/// sgemm's bit contract as a scalar model: each C entry sums every KC
/// depth slice as an ascending std::fmaf chain from +0, then adds the
/// slices into C in order; the first overwrites C when beta is 0.
void sgemm_model(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                 const float* a, std::size_t lda, const float* b, std::size_t ldb, float beta,
                 float* c, std::size_t ldc) {
  const std::size_t kc = gemm_blocking().kc;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p0 = 0; p0 < k; p0 += kc) {
        float s = 0.0f;
        for (std::size_t p = p0; p < std::min(k, p0 + kc); ++p)
          s = std::fmaf(ta == Trans::N ? a[i * lda + p] : a[p * lda + i],
                        tb == Trans::N ? b[p * ldb + j] : b[j * ldb + p], s);
        float& out = c[i * ldc + j];
        out = p0 == 0 && beta == 0.0f ? s : out + s;
      }
}

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

// sgemm against its contract bit for bit (signed zeros too), on every edge
// shape and operand layout: the independent oracle for the register tile,
// which Conv2D's tests cannot be, since Conv2D runs the same tile.
TEST_P(SgemmShapes, MatchesFmaChainModelBitwise) {
  const auto cases = layouts(GetParam());
  std::vector<std::vector<std::uint32_t>> models;
  for (const auto& l : cases) models.push_back(bits(l.run(sgemm_model)));
  for_each_body([&] {
    for (std::size_t i = 0; i < cases.size(); ++i)
      EXPECT_EQ(bits(cases[i].run(sgemm)), models[i]) << cases[i].label();
  });
}

/// (rows, cols) row-major -> (cols, rows).
std::vector<float> transposed(const std::vector<float>& m, std::size_t rows, std::size_t cols) {
  std::vector<float> t(m.size());
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) t[j * rows + i] = m[i * cols + j];
  return t;
}

// Packing a transposed operand must put the same floats in the same panel
// slots as packing its materialized transpose, so the results are equal
// bit for bit, not just to rounding.
TEST(Sgemm, TransposedOperandsEqualMaterializedTransposeBitwise) {
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes = {
      {4, 25, 700}, {13, 150, 1024}, {5, 33, 257}, {65, 257, 31}, {100, 300, 8}};
  for (const auto& [m, n, k] : shapes) {
    const auto a = random_matrix(m, k, 5);
    const auto b = random_matrix(k, n, 6);
    std::vector<float> ref(m * n), c(m * n);
    sgemm(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n, 0.0f, ref.data(), n);
    const auto bt = transposed(b, k, n);
    sgemm(Trans::N, Trans::T, m, n, k, a.data(), k, bt.data(), k, 0.0f, c.data(), n);
    EXPECT_EQ(c, ref) << "N.T m=" << m << " n=" << n << " k=" << k;
    const auto at = transposed(a, m, k);
    sgemm(Trans::T, Trans::N, m, n, k, at.data(), m, b.data(), n, 0.0f, c.data(), n);
    EXPECT_EQ(c, ref) << "T.N m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(Sgemm, KZeroRespectsBeta) {
  auto c = random_matrix(3, 5, 4);
  const auto before = c;
  sgemm(Trans::N, Trans::N, 3, 5, 0, nullptr, 1, nullptr, 1, 1.0f, c.data(), 5);
  EXPECT_EQ(c, before);  // beta=1: untouched
  sgemm(Trans::N, Trans::N, 3, 5, 0, nullptr, 1, nullptr, 1, 0.0f, c.data(), 5);
  for (float v : c) EXPECT_EQ(v, 0.0f);  // beta=0: zeroed
}

TEST(Sgemm, RejectsUnsupportedBeta) {
  std::vector<float> a(4, 1.0f), b(4, 1.0f), c(4, 0.0f);
  EXPECT_THROW(sgemm(Trans::N, Trans::N, 2, 2, 2, a.data(), 2, b.data(), 2, 0.5f, c.data(), 2),
               std::invalid_argument);
}

TEST(Sgemm, BlockingGeometryIsExported) {
  const auto& blk = gemm_blocking();
  EXPECT_GT(blk.mr, 0u);
  EXPECT_GT(blk.nr, 0u);
  EXPECT_EQ(blk.mc % blk.mr, 0u);
  EXPECT_EQ(blk.nc % blk.nr, 0u);
}

// Every accumulation step is one fused multiply-add, in every kernel body.
// With x = 1 + 2^-12, -1·1 + x·x is 2^-11 + 2^-24 exactly when fused;
// rounding x·x first (to 1 + 2^-11, a tie to even) would lose the 2^-24.
TEST(Sgemm, AccumulatesWithOneRoundingPerStep) {
  for_each_body([&] {
    const float x = 1.0f + std::ldexp(1.0f, -12);
    const std::vector<float> a = {-1.0f, x}, b = {1.0f, x};
    for (const Trans ta : {Trans::N, Trans::T})
      for (const Trans tb : {Trans::N, Trans::T}) {
        const std::size_t lda = ta == Trans::N ? 2 : 1, ldb = tb == Trans::N ? 1 : 2;
        float c = 0.0f;
        sgemm(ta, tb, 1, 1, 2, a.data(), lda, b.data(), ldb, 0.0f, &c, 1);
        EXPECT_EQ(c, std::ldexp(1.0f, -11) + std::ldexp(1.0f, -24));
      }
  });
}

// kernel() is the fastest body the CPU reports; force_body refuses a body
// the host cannot run and, where it succeeds, sets kernel() until
// for_each_body restores the resolved one.
TEST(KernelDispatch, ResolvesTheFastestBodyAndForcesOnlyRunnableOnes) {
  using tile::Body;
  Body fastest = Body::kDefault;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("fma")) fastest = Body::kFma;
  if (__builtin_cpu_supports("avx512f")) fastest = Body::kWide;
#endif
  ASSERT_EQ(tile::kernel().body, fastest);
  for (const Body lacking : {Body::kFma, Body::kWide, static_cast<Body>(3)})
    if (lacking > fastest) {
      EXPECT_FALSE(tile::force_body(lacking)) << static_cast<int>(lacking);
      EXPECT_EQ(tile::kernel().body, fastest);
    }
  std::vector<Body> ran;
  for_each_body([&] {
    ran.push_back(tile::kernel().body);
    ASSERT_TRUE(tile::force_body(Body::kDefault));
    EXPECT_EQ(tile::kernel().body, Body::kDefault);
  });
  std::vector<Body> runnable;
  for (int b = 0; b <= static_cast<int>(fastest); ++b) runnable.push_back(static_cast<Body>(b));
  EXPECT_EQ(ran, runnable);
  EXPECT_EQ(tile::kernel().body, fastest);
}

// ---------------------------------------------------------------- conv ----

TEST(BatchedConv, ForwardMatchesPerSampleForward) {
  const std::size_t batch = 5, cin = 3, cout = 4, img = 7;
  Conv2D conv(cin, cout, 3, /*padding=*/1);
  util::Rng rng(9);
  conv.init(rng);
  Tensor x = Tensor::randn({batch, cin, img, img}, rng);
  const Tensor y = conv.forward(x);

  for (std::size_t s = 0; s < batch; ++s) {
    std::vector<std::size_t> idx = {s};
    Tensor xs = gather_rows(x, idx);
    const Tensor ys = conv.forward(xs);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      const double ref = ys[i];
      EXPECT_NEAR(y[s * ys.size() + i], ref, 1e-5 + 1e-5 * std::abs(ref))
          << "sample " << s << " element " << i;
    }
  }
}

TEST(BatchedConv, BackwardMatchesPerSampleAccumulation) {
  const std::size_t batch = 4, cin = 2, cout = 3, img = 6;
  util::Rng rng(11);
  Conv2D batched(cin, cout, 3, 1);
  batched.init(rng);
  Conv2D per_sample(cin, cout, 3, 1);
  {  // identical weights
    auto src = batched.params();
    auto dst = per_sample.params();
    for (std::size_t b = 0; b < src.size(); ++b)
      std::copy(src[b].value.begin(), src[b].value.end(), dst[b].value.begin());
  }
  Tensor x = Tensor::randn({batch, cin, img, img}, rng);
  Tensor g = Tensor::randn({batch, cout, img, img}, rng);

  batched.forward(x);
  const Tensor dx = batched.backward(g);

  Tensor dx_ref = Tensor::zeros(x.shape());
  for (std::size_t s = 0; s < batch; ++s) {
    std::vector<std::size_t> idx = {s};
    Tensor xs = gather_rows(x, idx);
    Tensor gs = gather_rows(g, idx);
    per_sample.forward(xs);
    const Tensor dxs = per_sample.backward(gs);
    for (std::size_t i = 0; i < dxs.size(); ++i) dx_ref[s * dxs.size() + i] = dxs[i];
  }

  const std::size_t kdim = cin * 3 * 3 * img * img;  // accumulation depth scale
  for (std::size_t i = 0; i < dx.size(); ++i)
    EXPECT_NEAR(dx[i], dx_ref[i], 1e-4) << "dx element " << i;
  auto gb = batched.params();
  auto gp = per_sample.params();
  const double tol = 1e-5 * std::sqrt(static_cast<double>(kdim));
  for (std::size_t b = 0; b < gb.size(); ++b)
    for (std::size_t i = 0; i < gb[b].grad.size(); ++i)
      EXPECT_NEAR(gb[b].grad[i], gp[b].grad[i],
                  tol + tol * std::abs(static_cast<double>(gp[b].grad[i])))
          << "grad block " << b << " element " << i;
}

// Forward lowering is chunked so evaluation-sized batches don't pin
// eval-sized workspace blocks forever. Chunking must not change bits: the
// per-element k-order is untouched and chunks partition the output, so a
// big (chunked) batch must reproduce small (unchunked) batches exactly.
TEST(BatchedConv, ChunkedForwardBitIdenticalToSmallBatches) {
  // rows=8*5*5=200, np=28*28=784 -> 156800 floats/sample: a batch of 32
  // exceeds the 4M-float lowering cap, forcing chunks of 26 + 6 samples.
  const std::size_t batch = 32, cin = 8, cout = 16, img = 32;
  Conv2D conv(cin, cout, 5, /*padding=*/0);
  util::Rng rng(15);
  conv.init(rng);
  Tensor x = Tensor::randn({batch, cin, img, img}, rng);
  const Tensor y = conv.forward(x);

  const std::size_t half = batch / 2;
  std::vector<std::size_t> idx(half);
  for (std::size_t part = 0; part < 2; ++part) {
    for (std::size_t i = 0; i < half; ++i) idx[i] = part * half + i;
    Tensor xh = gather_rows(x, idx);
    const Tensor yh = conv.forward(xh);
    for (std::size_t i = 0; i < yh.size(); ++i)
      ASSERT_EQ(y[part * yh.size() + i], yh[i]) << "part " << part << " element " << i;
  }
}

// ----------------------------------------------------------- workspace ----

TEST(Workspace, ScopeRewindsAndBlocksAreRetained) {
  Workspace ws;
  {
    Workspace::Scope outer(ws);
    float* a = ws.floats(1000);
    a[0] = 1.0f;
    {
      Workspace::Scope inner(ws);
      float* b = ws.floats(1 << 20);  // forces a second block
      b[0] = 2.0f;
    }
    // Inner scope rewound: the same request reuses the retained block.
    const std::size_t blocks = ws.blocks_allocated();
    Workspace::Scope inner2(ws);
    float* c = ws.floats(1 << 20);
    c[0] = 3.0f;
    EXPECT_EQ(ws.blocks_allocated(), blocks);
    EXPECT_EQ(a[0], 1.0f);  // outer allocation untouched
  }
  EXPECT_GT(ws.floats_reserved(), 0u);
}

TEST(Workspace, NewBlocksAreSizedForTheRequest) {
  // A small request after one that filled a large block gets a small block,
  // not one twice the large block's size.
  Workspace ws;
  Workspace::Scope scope(ws);
  ws.floats(std::size_t{1} << 20);
  ws.floats(16);
  EXPECT_EQ(ws.blocks_allocated(), 2u);
  EXPECT_EQ(ws.floats_reserved(), (std::size_t{1} << 20) + (std::size_t{1} << 16));
}

TEST(Workspace, SteadyStateTrainingAllocatesNoNewBlocks) {
  // Mixed batch sizes exercise rewind/reuse across differently-sized
  // conv buffers; under the ASan CI leg this also proves the workspace
  // pointers stay in bounds across reuse.
  auto model = make_cnn_mnist(0.15, 12);
  util::Rng rng(13);
  model.init(rng);
  std::vector<int> y8(8), y4(4);
  for (int i = 0; i < 8; ++i) y8[static_cast<std::size_t>(i)] = i % 10;
  for (int i = 0; i < 4; ++i) y4[static_cast<std::size_t>(i)] = i % 10;
  Tensor x8 = Tensor::randn({8, 1, 12, 12}, rng);
  Tensor x4 = Tensor::randn({4, 1, 12, 12}, rng);
  for (int warm = 0; warm < 2; ++warm) {
    model.train_step(x8, y8, 0.01f);
    model.train_step(x4, y4, 0.01f);
  }
  const std::size_t blocks = Workspace::tls().blocks_allocated();
  for (int s = 0; s < 3; ++s) {
    model.train_step(x8, y8, 0.01f);
    model.train_step(x4, y4, 0.01f);
  }
  EXPECT_EQ(Workspace::tls().blocks_allocated(), blocks);
}

// ------------------------------------------------------- zero allocation --

TEST(ZeroAllocation, SteadyStateTrainStepDoesNotTouchTheHeap) {
  // Pin the kernels to the serial schedule: this is exactly the per-lane
  // training configuration (the nesting rule serializes parallel_for on
  // lanes), and it keeps the measurement free of pool-dispatch allocations.
  util::ThreadPool::SerialRegion serial;

  auto model = make_cnn_mnist(0.15, 12);
  util::Rng rng(17);
  model.init(rng);
  const std::size_t batch = 8;
  Tensor x = Tensor::randn({batch, 1, 12, 12}, rng);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);

  for (int warm = 0; warm < 3; ++warm) model.train_step(x, y, 0.01f);

  const AllocStats before = alloc_stats();
  double loss = 0.0;
  for (int s = 0; s < 5; ++s) loss += model.train_step(x, y, 0.01f);
  const AllocStats after = alloc_stats();

  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(after.count - before.count, 0u)
      << "steady-state train_step allocated " << (after.bytes - before.bytes) << " bytes across "
      << (after.count - before.count) << " allocations";
}

TEST(ZeroAllocation, SteadyStateLocalUpdateDoesNotTouchTheHeap) {
  util::ThreadPool::SerialRegion serial;

  data::TrainTest data;
  data.train = data::make_synthetic_flat(16, {200, 4, 1.0, 0.3, 21});
  std::vector<std::size_t> shard(40);
  for (std::size_t i = 0; i < shard.size(); ++i) shard[i] = i;
  fl::Worker worker(0, data.train, shard, util::Rng(3));
  auto model = make_mlp(16, 4, 32);
  util::Rng rng(23);
  model.init(rng);
  const auto global = model.parameters();

  for (int warm = 0; warm < 3; ++warm) worker.local_update(model, global, 0.05f, 2, 8);

  const AllocStats before = alloc_stats();
  worker.local_update(model, global, 0.05f, 2, 8);
  const AllocStats after = alloc_stats();

  EXPECT_EQ(after.count - before.count, 0u)
      << "steady-state local_update allocated " << (after.bytes - before.bytes) << " bytes";
}

TEST(ZeroAllocation, ParallelForDispatchDoesNotTouchTheHeap) {
  // 1-lane training fans its GEMMs out from the simulation thread;
  // once the task queue has grown, dispatching the chunks allocates nothing.
  util::ThreadPool pool(3);
  std::vector<float> out(4096, 0.0f);
  const auto body = [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] += 1.0f;
  };
  for (int warm = 0; warm < 3; ++warm) pool.parallel_for(out.size(), body, /*grain=*/64);

  const AllocStats before = alloc_stats();
  for (int r = 0; r < 20; ++r) pool.parallel_for(out.size(), body, /*grain=*/64);
  const AllocStats after = alloc_stats();

  EXPECT_EQ(after.count - before.count, 0u)
      << "parallel_for dispatch allocated " << (after.bytes - before.bytes) << " bytes";
  for (const float v : out) ASSERT_EQ(v, 23.0f);
}

TEST(ZeroAllocation, ParallelForChunksQueuedBehindBusyLanesDoNotTouchTheHeap) {
  // Every lane is held by a job when the chunks are queued, so all of them
  // wait in the task queue at once; the caller's own chunk, which runs after
  // the others are queued, lets the lanes go. The warm-up calls run on idle
  // lanes, so the queue never held that many chunks before.
  util::ThreadPool pool(3);
  std::vector<float> out(4096, 0.0f);
  std::atomic<bool> release{false};
  const auto body = [&](std::size_t begin, std::size_t end) {
    if (begin == 0) release.store(true);
    for (std::size_t i = begin; i < end; ++i) out[i] += 1.0f;
  };
  for (int warm = 0; warm < 3; ++warm) pool.parallel_for(out.size(), body, /*grain=*/64);

  std::size_t allocs = 0, bytes = 0;
  for (int r = 0; r < 20; ++r) {
    release.store(false);
    std::atomic<std::size_t> busy{0};
    std::vector<std::future<void>> jobs;
    for (std::size_t l = 0; l < pool.size(); ++l)
      jobs.push_back(pool.submit([&] {
        busy.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      }));
    while (busy.load() < pool.size()) std::this_thread::yield();

    const AllocStats before = alloc_stats();
    pool.parallel_for(out.size(), body, /*grain=*/64);
    const AllocStats after = alloc_stats();
    allocs += after.count - before.count;
    bytes += after.bytes - before.bytes;
    for (auto& j : jobs) j.get();
  }

  EXPECT_EQ(allocs, 0u) << "queued parallel_for chunks allocated " << bytes << " bytes";
  for (const float v : out) ASSERT_EQ(v, 23.0f);
}

// ------------------------------------------------------- lane counts ---

// The acceptance criterion's digest sweep, at test scale: a CNN federated
// run must produce bit-identical metrics across 1/2/4 training lanes.
TEST(LaneCountDeterminism, TrainingDigestsBitIdenticalAcrossLaneCounts) {
  data::TrainTest data;
  data.train = data::make_synthetic_image(1, 8, 8, {240, 4, 1.0, 0.3, 41});
  data.test = data::make_synthetic_image(1, 8, 8, {80, 4, 1.0, 0.3, 42});
  fl::FLConfig cfg;
  util::Rng rng(43);
  cfg.train = &data.train;
  cfg.test = &data.test;
  cfg.partition = data::partition_label_skew(data.train, 6, rng);
  cfg.model_factory = [] { return make_cnn_mnist(0.2, 8); };
  cfg.learning_rate = 0.05f;
  cfg.batch_size = 8;
  cfg.cluster.seed = 44;
  cfg.fading.seed = 45;
  cfg.time_budget = 400.0;
  cfg.eval_every = 1;
  cfg.eval_samples = 80;
  cfg.eval_batch = 20;
  cfg.max_rounds = 4;
  cfg.seed = 43;

  // One reference for every body too: the bodies differ in speed only.
  std::string reference;
  for_each_body([&] {
    for (const std::size_t threads : {1UL, 2UL, 4UL}) {
      cfg.threads = threads;
      fl::AirFedGA mech;
      const fl::Metrics metrics = mech.run(cfg);
      ASSERT_FALSE(metrics.empty());
      if (reference.empty()) {
        reference = metrics.digest();
      } else {
        EXPECT_EQ(metrics.digest(), reference) << "@" << threads << " lanes";
      }
    }
  });
}

}  // namespace
}  // namespace airfedga::ml
