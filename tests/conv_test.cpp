// Conv training-step goldens and the lowering checks behind them.
//
// The lowering checks build the patch matrix naively and require
// Conv2D's forward and backward to equal ml::sgemm over it bit for bit
// (and the bias gradient a plain per-channel sum),
// across kernel sizes, paddings, non-square images, channel counts and
// batch sizes, and across the batches that an earlier KC-aligned chunk
// rule lowered in several chunks (cut off mid-batch, on planes whose
// OH*OW does not divide KC, or with a KC alignment larger than the batch);
// those cases stay as they were. A further case set aims at the in-place
// register tiles: output rows shorter or longer than a tile's pieces,
// input and output channel counts around the tile heights, depth past one KC
// slice, and an output that ends inside a tile. Backward reuses the
// training forward's padded input; the reuse tests show that an eval
// forward in between changes nothing, and the workspace test bounds what
// one eval forward leaves in its thread's arena. A model's first layer
// skips its input gradient; the skip tests show that this changes no
// parameter gradient and that a layer used on its own still returns dx.
// dW is checked across window-row counts on both sides of the wide
// body's six-row tile at k = 5, and a Conv2D with ReLU folded in
// against the Conv2D + ReLU pair it replaces, non-finite gradients and
// an eval forward between forward and backward included. The goldens and
// every lowering check run on each kernel body the host can run.
//
// The goldens pin the parameters after K plain-SGD steps and one
// compute_gradient vector for the CNN presets' models (fig04, fig05), an
// all-3x3 VGG-style stack and an MLP (the Dense-first case). They were
// captured before the conv lowering was reworked (one-span im2col,
// row-wise transposed packing, no first-layer input gradient, cache-sized
// chunks reused by backward, implicit GEMM from a padded input, tiles that
// read B in place) and must keep passing unedited: those changes
// move the same floats to the same places and drop only output nobody
// reads. Like every golden they hold on any glibc build.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ml/activation.hpp"
#include "ml/conv2d.hpp"
#include "ml/dense.hpp"
#include "ml/gemm.hpp"
#include "ml/model.hpp"
#include "ml/workspace.hpp"
#include "ml/zoo.hpp"
#include "support/each_body.hpp"
#include "support/golden.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::ml {
namespace {

/// FNV-1a 64 over the bit patterns of a float vector, as 16 hex digits.
std::string digest(const std::vector<float>& v, double extra) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(v.size());
  for (float f : v) mix(std::bit_cast<std::uint32_t>(f));
  mix(std::bit_cast<std::uint64_t>(extra));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

constexpr std::size_t kBatch = 16;
constexpr std::size_t kSteps = 4;

struct GoldenRun {
  std::string params;    ///< parameters after kSteps train_steps (+ summed loss)
  std::string gradient;  ///< compute_gradient on the next batch (+ its loss)
};

/// kSteps SGD steps at batch 16 on N(0,1) inputs of `sample_shape`, then one
/// gradient evaluation on a fresh batch.
GoldenRun golden_run(Model model, std::vector<std::size_t> sample_shape) {
  util::Rng rng(29);
  model.init(rng);
  std::vector<std::size_t> shape = {(kSteps + 1) * kBatch};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  const Tensor pool = Tensor::randn(shape, rng);
  std::vector<int> labels(pool.dim(0));
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>((7 * i + 3) % 10);

  std::vector<std::size_t> idx(kBatch);
  const auto batch = [&](std::size_t b) {
    for (std::size_t i = 0; i < kBatch; ++i) idx[i] = b * kBatch + i;
    return gather_rows(pool, idx);
  };
  const auto batch_labels = [&](std::size_t b) {
    return std::span<const int>(labels.data() + b * kBatch, kBatch);
  };
  double loss = 0.0;
  for (std::size_t s = 0; s < kSteps; ++s)
    loss += model.train_step(batch(s), batch_labels(s), 0.05f);
  GoldenRun out;
  out.params = digest(model.parameters(), loss);
  std::vector<float> grad;
  const double gl = model.compute_gradient(batch(kSteps), batch_labels(kSteps), grad);
  out.gradient = digest(grad, gl);
  return out;
}

TEST(ConvGolden, TrainStepsAndGradientsMatchPinnedDigests) {
  SKIP_UNLESS_GLIBC();
  struct Golden {
    const char* label;
    std::function<Model()> make;
    std::vector<std::size_t> sample_shape;
    const char* params;
    const char* gradient;
  };
  const std::vector<Golden> goldens = {
      {"cnn_mnist(0.15, 28)", [] { return make_cnn_mnist(0.15, 28); }, {1, 28, 28},
       "952c15206b819027", "8df91b79d1a02419"},
      {"cnn_cifar(0.2, 16)", [] { return make_cnn_cifar(0.2, 16); }, {3, 16, 16},
       "76a6e4d55a5403ab", "1a18216a2d9016af"},
      {"vgg_style(16, 10, 0.25)", [] { return make_vgg_style(16, 10, 0.25); }, {3, 16, 16},
       "5b11073704226bd5", "79c9b3257ccc47be"},
      {"mlp(64, 10, 32)", [] { return make_mlp(64, 10, 32); }, {64}, "96bf9370d8266c8d",
       "8816da64320b8f3d"},
  };
  for_each_body([&] {
    for (const auto& g : goldens) {
      const GoldenRun r = golden_run(g.make(), g.sample_shape);
      EXPECT_EQ(r.params, g.params) << g.label << " parameters after " << kSteps << " steps";
      EXPECT_EQ(r.gradient, g.gradient) << g.label << " compute_gradient";
    }
  });
}

// ------------------------------------------------------------ lowering --

struct ConvCase {
  std::size_t k, pad, cin, batch, h, w;
  [[nodiscard]] std::size_t oh() const { return h + 2 * pad - k + 1; }
  [[nodiscard]] std::size_t ow() const { return w + 2 * pad - k + 1; }
  [[nodiscard]] std::size_t rows() const { return cin * k * k; }
  [[nodiscard]] std::size_t ncols() const { return batch * oh() * ow(); }
};

std::string label(const ConvCase& c) {
  return "k=" + std::to_string(c.k) + " pad=" + std::to_string(c.pad) +
         " cin=" + std::to_string(c.cin) + " batch=" + std::to_string(c.batch) +
         " h=" + std::to_string(c.h) + " w=" + std::to_string(c.w);
}

/// k in {1, 3, 5}, pad in {0, k/2}, cin in {1, 3}, batch in {1, 16}, on a
/// wide and a tall non-square image.
std::vector<ConvCase> sweep() {
  std::vector<ConvCase> cases;
  for (std::size_t k : {1, 3, 5})
    for (std::size_t pad : {std::size_t{0}, k / 2})
      for (std::size_t cin : {1, 3})
        for (std::size_t batch : {1, 16}) {
          cases.push_back({k, pad, cin, batch, 7, 10});
          cases.push_back({k, pad, cin, batch, 11, 6});
        }
  return cases;
}

constexpr std::size_t kCout = 5;

/// Calls fn(entry, pixel) for every patch-matrix entry that reads an input
/// pixel, in ascending patch-matrix row order: `entry` indexes the
/// (cin*k*k, batch*oh*ow) matrix, `pixel` the NCHW input.
template <typename F>
void for_each_patch_entry(const ConvCase& c, F&& fn) {
  const auto pad = static_cast<std::ptrdiff_t>(c.pad);
  const auto h = static_cast<std::ptrdiff_t>(c.h), w = static_cast<std::ptrdiff_t>(c.w);
  for (std::size_t ch = 0; ch < c.cin; ++ch)
    for (std::size_t ki = 0; ki < c.k; ++ki)
      for (std::size_t kj = 0; kj < c.k; ++kj)
        for (std::size_t n = 0; n < c.batch; ++n)
          for (std::size_t oi = 0; oi < c.oh(); ++oi)
            for (std::size_t oj = 0; oj < c.ow(); ++oj) {
              const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi + ki) - pad;
              const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(oj + kj) - pad;
              if (ii < 0 || jj < 0 || ii >= h || jj >= w) continue;
              const std::size_t row = (ch * c.k + ki) * c.k + kj;
              const std::size_t col = (n * c.oh() + oi) * c.ow() + oj;
              fn(row * c.ncols() + col,
                 (n * c.cin + ch) * c.h * c.w + static_cast<std::size_t>(ii * w + jj));
            }
}

std::vector<float> naive_patches(const ConvCase& c, const Tensor& x) {
  std::vector<float> cols(c.rows() * c.ncols(), 0.0f);
  for_each_patch_entry(c, [&](std::size_t e, std::size_t px) { cols[e] = x[px]; });
  return cols;
}

/// grad_out (batch, cout, oh, ow) gathered into the (cout, batch*oh*ow)
/// matrix the GEMMs take.
std::vector<float> gather_gy(const ConvCase& c, std::size_t cout, const Tensor& g) {
  const std::size_t np = c.oh() * c.ow(), ncols = c.ncols();
  std::vector<float> gy(cout * ncols);
  for (std::size_t n = 0; n < c.batch; ++n)
    for (std::size_t o = 0; o < cout; ++o)
      for (std::size_t i = 0; i < np; ++i) gy[o * ncols + n * np + i] = g[(n * cout + o) * np + i];
  return gy;
}

/// dx as one sgemm and col2im make it: dcols = W^T gy, scattered back onto
/// the input in ascending patch-matrix row order, starting from zero.
std::vector<float> dx_reference(const ConvCase& c, std::size_t cout, const float* w,
                                const std::vector<float>& gy) {
  const std::size_t ncols = c.ncols(), rows = c.rows();
  std::vector<float> dcols(rows * ncols);
  sgemm(Trans::T, Trans::N, rows, ncols, cout, w, rows, gy.data(), ncols, 0.0f, dcols.data(),
        ncols);
  std::vector<float> dx(c.batch * c.cin * c.h * c.w, 0.0f);
  for_each_patch_entry(c, [&](std::size_t e, std::size_t px) { dx[px] += dcols[e]; });
  return dx;
}

/// One lowering case: a layer's parameters, its data, and what Conv2D must
/// give for them. None of it depends on the kernel body (the bodies differ
/// in speed only, and gemm_test checks sgemm's bits on each), so a test
/// draws and computes it once, then runs only Conv2D per body.
struct Lowered {
  ConvCase c;
  std::size_t cout;
  std::vector<float> w, bias, db_prior;
  Tensor x, g;
  std::vector<float> y, dw, db, dx;
};

/// Draws a case's weights (Conv2D's init), bias, prior db, input and
/// grad_out.
Lowered draw(const ConvCase& c, std::size_t cout = kCout) {
  Conv2D conv(c.cin, cout, c.k, c.pad);
  util::Rng rng(31);
  conv.init(rng);
  Lowered r{.c = c, .cout = cout};
  const auto w = conv.params()[0].value;
  r.w.assign(w.begin(), w.end());
  for (std::size_t o = 0; o < cout; ++o) r.bias.push_back(static_cast<float>(rng.normal()));
  for (std::size_t o = 0; o < cout; ++o) r.db_prior.push_back(static_cast<float>(rng.normal()));
  r.x = Tensor::randn({c.batch, c.cin, c.h, c.w}, rng);
  r.g = Tensor::randn({c.batch, cout, c.oh(), c.ow()}, rng);
  return r;
}

/// Fills in the expected outputs: the forward is sgemm over the naive
/// patch matrix plus the bias; dW and dx are one sgemm each over the whole
/// batch's patch matrix (dx scattered back by col2im); db is each
/// channel's plain sum of grad_out over samples then pixels from +0, added
/// to its prior value.
Lowered& expect(Lowered& r) {
  const ConvCase& c = r.c;
  const std::size_t np = c.oh() * c.ow(), ncols = c.ncols(), rows = c.rows();
  const std::vector<float> cols = naive_patches(c, r.x);
  std::vector<float> gemm_out(r.cout * ncols);
  sgemm(Trans::N, Trans::N, r.cout, ncols, rows, r.w.data(), rows, cols.data(), ncols, 0.0f,
        gemm_out.data(), ncols);
  r.y.resize(c.batch * r.cout * np);
  for (std::size_t n = 0; n < c.batch; ++n)
    for (std::size_t o = 0; o < r.cout; ++o)
      for (std::size_t i = 0; i < np; ++i)
        r.y[(n * r.cout + o) * np + i] = gemm_out[o * ncols + n * np + i] + r.bias[o];

  const std::vector<float> gy = gather_gy(c, r.cout, r.g);
  r.db = r.db_prior;
  for (std::size_t o = 0; o < r.cout; ++o) {
    float sum = 0.0f;
    for (std::size_t n = 0; n < c.batch; ++n)
      for (std::size_t i = 0; i < np; ++i) sum += r.g[(n * r.cout + o) * np + i];
    r.db[o] += sum;
  }
  r.dw.assign(r.cout * rows, 0.0f);
  sgemm(Trans::N, Trans::T, r.cout, rows, ncols, gy.data(), ncols, cols.data(), ncols, 1.0f,
        r.dw.data(), rows);
  r.dx = dx_reference(c, r.cout, r.w.data(), gy);
  return r;
}

Lowered lowered(const ConvCase& c, std::size_t cout = kCout) {
  Lowered r = draw(c, cout);
  return expect(r);
}

/// A fresh layer holding r's weights, bias and prior db.
std::unique_ptr<Conv2D> layer(const Lowered& r) {
  auto conv = std::make_unique<Conv2D>(r.c.cin, r.cout, r.c.k, r.c.pad);
  auto params = conv->params();
  std::copy(r.w.begin(), r.w.end(), params[0].value.begin());
  std::copy(r.bias.begin(), r.bias.end(), params[1].value.begin());
  std::copy(r.db_prior.begin(), r.db_prior.end(), params[1].grad.begin());
  return conv;
}

/// Conv2D's forward must equal r.y, bit for bit.
void check_forward(const Lowered& r) {
  const auto conv = layer(r);
  const Tensor& y = conv->forward(r.x);
  const std::size_t np = r.c.oh() * r.c.ow();
  ASSERT_EQ(y.size(), r.y.size());
  for (std::size_t n = 0; n < r.c.batch; ++n)
    for (std::size_t o = 0; o < r.cout; ++o)
      for (std::size_t i = 0; i < np; ++i)
        ASSERT_EQ(y[(n * r.cout + o) * np + i], r.y[(n * r.cout + o) * np + i])
            << "sample " << n << " channel " << o << " pixel " << i;
}

/// Conv2D's db, dW and dx must equal r's, bit for bit.
void check_backward(const Lowered& r) {
  const auto conv = layer(r);
  conv->forward(r.x);
  const Tensor& dx = conv->backward(r.g);
  const auto params = conv->params();
  for (std::size_t o = 0; o < r.cout; ++o)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(params[1].grad[o]),
              std::bit_cast<std::uint32_t>(r.db[o]))
        << "db " << o;
  for (std::size_t i = 0; i < r.dw.size(); ++i) ASSERT_EQ(params[0].grad[i], r.dw[i]) << "dW " << i;
  ASSERT_EQ(dx.shape(), r.x.shape());
  for (std::size_t i = 0; i < r.dx.size(); ++i) ASSERT_EQ(dx[i], r.dx[i]) << "dx " << i;
}

/// lowered() for each case, once.
std::vector<Lowered> lowered_all(const std::vector<ConvCase>& cases) {
  std::vector<Lowered> out;
  for (const ConvCase& c : cases) out.push_back(lowered(c));
  return out;
}

TEST(ConvLowering, ForwardEqualsSgemmOverNaivePatchMatrix) {
  const auto cases = lowered_all(sweep());
  for_each_body([&] {
    for (const Lowered& r : cases) {
      SCOPED_TRACE(label(r.c));
      check_forward(r);
    }
  });
}

TEST(ConvLowering, BackwardEqualsSgemmOverNaivePatchMatrix) {
  const auto cases = lowered_all(sweep());
  for_each_body([&] {
    for (const Lowered& r : cases) {
      SCOPED_TRACE(label(r.c));
      check_backward(r);
    }
  });
}

/// Shapes that Conv2D lowers in several chunks, or in one because the KC
/// alignment exceeds the batch. A chunk holds at most 2^16 patch-matrix
/// floats and a multiple of a = KC / gcd(OH*OW, KC) samples (KC = 256).
std::vector<ConvCase> chunked_cases() {
  return {
      // 16x16 "same" 5x5 over 3 channels: 19200 floats a sample, a = 1:
      // chunks of 3, the last one short.
      {5, 2, 3, 16, 16, 16},
      {5, 2, 3, 7, 16, 16},
      // 8x8 planes, a = 4: 9600 floats a sample fit 6, so chunks of 4.
      {5, 2, 6, 10, 8, 8},
      // 8x8 planes over 1 channel, 3x3: 576 floats a sample, chunks of 112.
      {3, 1, 1, 300, 8, 8},
      // Unpadded 5x5 on 16x16 (12x12 out, a = 16): chunks of 16, per row.
      {5, 0, 3, 20, 16, 16},
      // 14x14 planes (196 pixels, a = 64): chunks of 64 past the budget.
      {3, 1, 2, 100, 14, 14},
      // 7x7 planes (49 pixels, a = 256): chunks of 256, then 44.
      {3, 1, 1, 300, 7, 7},
      // a = 256 exceeds the batch: the whole batch is one chunk.
      {3, 1, 2, 16, 7, 7},
  };
}

TEST(ConvLowering, ChunkedLoweringEqualsSgemmOverNaivePatchMatrix) {
  const auto cases = lowered_all(chunked_cases());
  for_each_body([&] {
    for (const Lowered& r : cases) {
      SCOPED_TRACE(label(r.c));
      check_forward(r);
      check_backward(r);
    }
  });
}

/// Cases aimed at the in-place register tiles (pieces of 8 columns, 4
/// output rows a tile on the 8-float bodies, 256-deep slices): every
/// pairing of an output-channel count around the tile's rows with an
/// output width shorter than, equal to or longer than a piece, at batch 1,
/// with k and the padding (0 to 2, also wider than k - 1) cycling; an odd
/// OH keeps batch*OH*OW off a multiple of 32, so the output ends inside a
/// tile (OH > 2 * pad keeps the input at least one pixel high). Then 12
/// channels of 5x5 (300 patch rows: the forward spans two KC slices) and
/// 257 output channels (dx spans two). Last, channel counts at and around
/// the tile heights the wide body picks (up to 14 output channels a tile,
/// 7 input channels a dx tile, larger counts in balanced panels), for
/// input and output channels alike.
std::vector<std::pair<ConvCase, std::size_t>> tile_cases() {
  std::vector<std::pair<ConvCase, std::size_t>> cases;  // (shape, cout)
  const std::size_t couts[] = {1, 4, 6, 13, 17, 33};
  const std::size_t widths[] = {5, 7, 8, 12, 14, 16, 28};
  const std::size_t kernels[] = {1, 3, 5};
  for (std::size_t i = 0; i < std::size(couts); ++i)
    for (std::size_t j = 0; j < std::size(widths); ++j) {
      const std::size_t k = kernels[(i + j) % 3], pad = (i + 2 * j) % 3;
      const std::size_t oh = 2 * pad + 1 + 2 * ((i + j) % 2);
      const std::size_t cin = 1 + (i + j) % 3;
      cases.push_back({{k, pad, cin, 1, oh + k - 1 - 2 * pad, widths[j] + k - 1 - 2 * pad},
                       couts[i]});
    }
  cases.push_back({{5, 2, 12, 1, 5, 8}, 6});
  cases.push_back({{5, 2, 12, 1, 5, 8}, 13});
  cases.push_back({{3, 1, 2, 1, 5, 7}, 257});
  const std::size_t cins[] = {4, 5, 6, 7, 8, 13, 15, 16, 17};
  const std::size_t tall_couts[] = {6, 13, 14, 15, 29};
  for (std::size_t i = 0; i < std::size(cins); ++i) {
    const std::size_t k = kernels[i % 3], pad = k / 2;
    cases.push_back({{k, pad, cins[i], 1, 5, 9}, tall_couts[i % std::size(tall_couts)]});
    cases.push_back({{k, pad, cins[i], 1, 3, 7}, tall_couts[(i + 2) % std::size(tall_couts)]});
  }
  return cases;
}

TEST(ConvLowering, RegisterTileEdgesEqualSgemmOverNaivePatchMatrix) {
  std::vector<Lowered> cases;
  for (const auto& [c, cout] : tile_cases()) {
    ASSERT_NE(c.batch * c.oh() * c.ow() % 32, 0u) << label(c);
    cases.push_back(lowered(c, cout));
  }
  for_each_body([&] {
    for (const Lowered& r : cases) {
      SCOPED_TRACE(label(r.c) + " cout=" + std::to_string(r.cout));
      check_forward(r);
      check_backward(r);
    }
  });
}

// dW's tile columns are the window cells of cin * k window rows: at k = 5
// the wide body packs six window rows a tile, at k = 3 it keeps one a
// piece. cin from 1 to 8 puts the last tile anywhere from one row to full,
// and cout covers one-row, balanced and two-panel tiles.
TEST(ConvLowering, WindowRowTilesEqualSgemmOverNaivePatchMatrix) {
  std::vector<Lowered> cases;
  for (std::size_t k : {3, 5})
    for (std::size_t cin = 1; cin <= 8; ++cin)
      for (std::size_t cout : {1, 6, 13, 15})
        cases.push_back(lowered({k, k / 2, cin, 2, 6, 7}, cout));
  for_each_body([&] {
    for (const Lowered& r : cases) {
      SCOPED_TRACE(label(r.c) + " cout=" + std::to_string(r.cout));
      check_backward(r);
    }
  });
}

// A non-finite weight makes dcols entries inf or NaN. col2im adds an entry
// only to the pixels its output pixel reaches, so dx must keep every other
// pixel's bits too, NaN payloads included.
TEST(ConvLowering, DxWithANonFiniteWeightEqualsCol2imBitwise) {
  std::vector<Lowered> cases;
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()})
    for (const ConvCase& c : {ConvCase{3, 1, 2, 2, 6, 9}, ConvCase{5, 2, 3, 1, 8, 8},
                              ConvCase{3, 0, 1, 2, 7, 5}}) {
      Lowered r = draw(c);
      r.w[(kCout / 2) * c.rows() + c.rows() / 2] = bad;
      cases.push_back(std::move(expect(r)));
    }
  for_each_body([&] {
    for (const Lowered& r : cases) {
      SCOPED_TRACE(label(r.c));
      const auto conv = layer(r);
      conv->forward(r.x);
      const Tensor& dx = conv->backward(r.g);
      ASSERT_EQ(dx.size(), r.dx.size());
      for (std::size_t i = 0; i < r.dx.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(dx[i]), std::bit_cast<std::uint32_t>(r.dx[i]))
            << "dx " << i;
    }
  });
}

TEST(ConvLowering, EvalForwardOfOneBatchEqualsForwardsOfItsSlices) {
  for_each_body([&] {
    Model model = make_cnn_cifar(0.2, 16);
    util::Rng rng(47);
    model.init(rng);
    model.set_training(false);
    constexpr std::size_t kEval = 256, kSlice = 16;
    const Tensor x = Tensor::randn({kEval, 3, 16, 16}, rng);
    const Tensor whole = model.forward(x);
    const std::size_t per_sample = whole.size() / kEval;
    std::vector<std::size_t> idx(kSlice);
    for (std::size_t s0 = 0; s0 < kEval; s0 += kSlice) {
      for (std::size_t i = 0; i < kSlice; ++i) idx[i] = s0 + i;
      const Tensor& part = model.forward(gather_rows(x, idx));
      for (std::size_t i = 0; i < part.size(); ++i)
        ASSERT_EQ(part[i], whole[s0 * per_sample + i]) << "samples from " << s0 << ", entry " << i;
    }
  });
}

TEST(ConvLowering, BackwardUsesTheLastTrainingForward) {
  for_each_body([&] {
    // A training forward at 16, an eval forward at 256 and a training forward
    // at 8 on one layer; its backward must equal a fresh layer's after one
    // forward at 8.
    util::Rng rng(53);
    const Tensor x16 = Tensor::randn({16, 3, 16, 16}, rng);
    const Tensor x256 = Tensor::randn({256, 3, 16, 16}, rng);
    const Tensor x8 = Tensor::randn({8, 3, 16, 16}, rng);
    const Tensor g8 = Tensor::randn({8, kCout, 16, 16}, rng);
    Conv2D reused(3, kCout, 5, 2), fresh(3, kCout, 5, 2);
    util::Rng init_a(59), init_b(59);
    reused.init(init_a);
    fresh.init(init_b);

    reused.forward(x16);
    reused.set_training(false);
    reused.forward(x256);
    reused.set_training(true);
    reused.forward(x8);
    const Tensor dx_reused = reused.backward(g8);
    fresh.forward(x8);
    const Tensor& dx_fresh = fresh.backward(g8);

    ASSERT_EQ(dx_reused.shape(), dx_fresh.shape());
    for (std::size_t i = 0; i < dx_fresh.size(); ++i) ASSERT_EQ(dx_reused[i], dx_fresh[i]) << i;
    const auto pr = reused.params(), pf = fresh.params();
    for (std::size_t b = 0; b < pr.size(); ++b)
      for (std::size_t i = 0; i < pf[b].grad.size(); ++i)
        ASSERT_EQ(pr[b].grad[i], pf[b].grad[i]) << "param block " << b << " entry " << i;
  });
}

TEST(ConvLowering, FanOutOverThePoolEqualsSerialBitwise) {
  for_each_body([&] {
    // Large enough that every pass splits over the global pool's lanes (when
    // it has any); the serial run takes the nesting rule's fallback.
    util::Rng rng(71);
    const Tensor x = Tensor::randn({16, 6, 16, 16}, rng);
    const Tensor g = Tensor::randn({16, 16, 16, 16}, rng);
    Conv2D serial(6, 16, 5, 2), fanned(6, 16, 5, 2);
    util::Rng init_a(73), init_b(73);
    serial.init(init_a);
    fanned.init(init_b);
    const auto bits_equal = [](std::span<const float> a, std::span<const float> b,
                               const char* what) {
      ASSERT_EQ(a.size(), b.size()) << what;
      for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
            << what << " " << i;
    };
    for (int step = 0; step < 2; ++step) {  // the second backward adds to the first's gradients
      std::vector<float> out_serial, dx_serial;
      {
        util::ThreadPool::SerialRegion region;
        const auto out = serial.forward(x).data();
        out_serial.assign(out.begin(), out.end());
        const auto dx = serial.backward(g).data();
        dx_serial.assign(dx.begin(), dx.end());
      }
      const Tensor& out_fanned = fanned.forward(x);
      bits_equal(out_fanned.data(), out_serial, "out");
      const Tensor& dx_fanned = fanned.backward(g);
      bits_equal(dx_fanned.data(), dx_serial, "dx");
      const auto ps = serial.params(), pf = fanned.params();
      bits_equal(pf[0].grad, ps[0].grad, "dW");
      bits_equal(pf[1].grad, ps[1].grad, "db");
    }
  });
}

/// The bits of a float vector, NaN payloads included.
std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

// Conv2D(relu = true) must equal Conv2D followed by ReLU bit for bit:
// forward (train and eval), dW, db and dx, with exact-zero pre-activations
// (an all-zero sample through +0 and -0 biases) and NaN and +-inf in
// grad_out at cells ReLU masks and cells it passes, and an eval forward
// on other data between the training forward and backward. A NaN in
// grad_out spreads over most of dW and dx, so each case also runs finite.
TEST(ConvReluFold, EqualsConvThenReluBitwise) {
  for_each_body([&] {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const bool non_finite : {false, true})
      for (const auto& [c, cout] : {std::pair{ConvCase{5, 2, 3, 3, 8, 8}, std::size_t{6}},
                                    std::pair{ConvCase{5, 2, 6, 2, 8, 8}, std::size_t{13}},
                                    std::pair{ConvCase{3, 1, 2, 2, 7, 9}, std::size_t{5}}}) {
        SCOPED_TRACE(label(c) + " cout=" + std::to_string(cout) + " non_finite=" +
                     std::to_string(non_finite));
        Conv2D folded(c.cin, cout, c.k, c.pad, /*relu=*/true), conv(c.cin, cout, c.k, c.pad);
        ReLU relu;
        util::Rng init_a(79), init_b(79), rng(83);
        folded.init(init_a);
        conv.init(init_b);
        auto pf = folded.params(), pc = conv.params();
        for (std::size_t o = 0; o < cout; ++o)
          pf[1].value[o] = pc[1].value[o] = o % 3 == 0 ? 0.0f : o % 3 == 1 ? -0.0f : 0.1f;
        Tensor x = Tensor::randn({c.batch, c.cin, c.h, c.w}, rng);
        for (std::size_t i = 0; i < c.cin * c.h * c.w; ++i) x[i] = 0.0f;  // sample 0
        const Tensor x_eval = Tensor::randn({c.batch + 1, c.cin, c.h, c.w}, rng);
        Tensor g = Tensor::randn({c.batch, cout, c.oh(), c.ow()}, rng);

        const Tensor& y = folded.forward(x);
        ASSERT_EQ(bits(y.data()), bits(relu.forward(conv.forward(x)).data())) << "train forward";
        std::size_t zeros = 0, positives = 0;
        for (std::size_t i = 0; i < y.size(); ++i) {
          const float bad[] = {nan, inf, -inf};
          if ((y[i] > 0.0f ? positives++ < 3 : zeros++ < 3) && non_finite) g[i] = bad[i % 3];
        }
        ASSERT_GT(zeros, 3u);
        ASSERT_GT(positives, 3u);

        for (Layer* l : {static_cast<Layer*>(&folded), static_cast<Layer*>(&conv),
                         static_cast<Layer*>(&relu)})
          l->set_training(false);
        ASSERT_EQ(bits(folded.forward(x_eval).data()),
                  bits(relu.forward(conv.forward(x_eval)).data()))
            << "eval forward";
        for (Layer* l : {static_cast<Layer*>(&folded), static_cast<Layer*>(&conv),
                         static_cast<Layer*>(&relu)})
          l->set_training(true);

        const Tensor& dx = folded.backward(g);
        const Tensor& dx_ref = conv.backward(relu.backward(g));
        EXPECT_EQ(bits(dx.data()), bits(dx_ref.data())) << "dx";
        EXPECT_EQ(bits(pf[0].grad), bits(pc[0].grad)) << "dW";
        EXPECT_EQ(bits(pf[1].grad), bits(pc[1].grad)) << "db";
      }
  });
}

TEST(ConvLowering, BackwardWithoutATrainingForwardThrows) {
  for_each_body([&] {
    Conv2D conv(3, kCout, 5, 2);
    util::Rng rng(61);
    conv.init(rng);
    const Tensor g = Tensor::randn({2, kCout, 8, 8}, rng);
    EXPECT_THROW(conv.backward(g), std::logic_error);
    conv.set_training(false);
    conv.forward(Tensor::randn({2, 3, 8, 8}, rng));
    conv.set_training(true);
    EXPECT_THROW(conv.backward(g), std::logic_error);
  });
}

TEST(ConvWorkspace, EvalForwardPinsAboutOneChunkInTheArena) {
  // A 256-sample fig05 evaluation on a fresh thread, every GEMM tile on that
  // thread: its arena must hold about one chunk (2^16 floats) plus the
  // chunk's GEMM output and packing panels, not the batch's patch matrix
  // (~4.5M floats when it was lowered in one piece).
  std::size_t reserved = 0;
  std::thread eval([&reserved] {
    util::ThreadPool::SerialRegion serial;
    Model model = make_cnn_cifar(0.2, 16);
    util::Rng rng(67);
    model.init(rng);
    model.set_training(false);
    model.forward(Tensor::randn({256, 3, 16, 16}, rng));
    reserved = Workspace::tls().floats_reserved();
  });
  eval.join();
  EXPECT_LE(reserved, std::size_t{1} << 18) << "floats reserved after one eval forward";
}

// ---------------------------------------------------- first-layer skip --

TEST(InputGradSkip, ModelClearsTheFlagOnItsFirstLayerOnly) {
  Model m = make_cnn_cifar(0.2, 16);
  EXPECT_FALSE(m.layer(0).input_grad());
  for (std::size_t i = 1; i < m.num_layers(); ++i) EXPECT_TRUE(m.layer(i).input_grad()) << i;
}

TEST(InputGradSkip, ComputeGradientUnchangedWithFirstLayerInputGradientOn) {
  const std::vector<std::pair<Model (*)(), std::vector<std::size_t>>> models = {
      {[] { return make_cnn_mnist(0.15, 28); }, {1, 28, 28}},
      {[] { return make_cnn_cifar(0.2, 16); }, {3, 16, 16}},
      {[] { return make_mlp(64, 10, 32); }, {64}},
  };
  for (const auto& [make, sample_shape] : models) {
    Model model = make();
    util::Rng rng(41);
    model.init(rng);
    std::vector<std::size_t> shape = {kBatch};
    shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
    const Tensor x = Tensor::randn(shape, rng);
    std::vector<int> y(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) y[i] = static_cast<int>(i % 10);

    std::vector<float> skipped, full;
    const double loss_skipped = model.compute_gradient(x, y, skipped);
    model.layer(0).set_input_grad(true);
    const double loss_full = model.compute_gradient(x, y, full);
    EXPECT_EQ(loss_skipped, loss_full) << model.layer(0).name();
    ASSERT_EQ(skipped.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i)
      ASSERT_EQ(skipped[i], full[i]) << model.layer(0).name() << " gradient " << i;
  }
}

/// Runs forward/backward on `layer` with the input gradient on, then off;
/// the parameter gradients must match bit for bit, dx must have the input's
/// shape when on and be empty when off.
void check_standalone(Layer& layer, const Tensor& x, util::Rng& rng) {
  ASSERT_TRUE(layer.input_grad());
  // Reads the accumulated parameter gradients and zeroes them.
  const auto take_param_grads = [&layer] {
    std::vector<float> out;
    for (auto& p : layer.params()) {
      out.insert(out.end(), p.grad.begin(), p.grad.end());
      std::fill(p.grad.begin(), p.grad.end(), 0.0f);
    }
    return out;
  };
  const Tensor g = Tensor::randn(layer.forward(x).shape(), rng);
  take_param_grads();
  EXPECT_EQ(layer.backward(g).shape(), x.shape());
  const std::vector<float> with_dx = take_param_grads();

  layer.set_input_grad(false);
  layer.forward(x);
  EXPECT_EQ(layer.backward(g).size(), 0u);
  EXPECT_EQ(take_param_grads(), with_dx);
}

TEST(InputGradSkip, StandaloneLayersStillReturnDx) {
  util::Rng rng(43);
  Conv2D conv(3, 4, 5, 2);
  conv.init(rng);
  check_standalone(conv, Tensor::randn({2, 3, 9, 7}, rng), rng);
  Dense dense(12, 5);
  dense.init(rng);
  check_standalone(dense, Tensor::randn({3, 12}, rng), rng);
}

}  // namespace
}  // namespace airfedga::ml
