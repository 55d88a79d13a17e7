#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/activation.hpp"
#include "ml/conv2d.hpp"
#include "ml/dense.hpp"
#include "ml/loss.hpp"
#include "ml/pool.hpp"
#include "ml/tensor.hpp"

namespace airfedga::ml {
namespace {

/// Scalar test functional s = <layer(x), c> for numerical gradient checks.
double scalar_probe(Layer& layer, const Tensor& x, const Tensor& c) {
  Tensor y = layer.forward(x);
  return dot(y.data(), c.data());
}

void zero_params(Layer& layer) {
  for (auto& p : layer.params()) std::fill(p.grad.begin(), p.grad.end(), 0.0f);
}

/// Checks d<layer(x), c>/dx and the parameter gradients against central
/// finite differences.
void check_gradients(Layer& layer, Tensor x, const Tensor& c, float eps = 1e-2f,
                     double tol = 2e-2) {
  zero_params(layer);
  layer.forward(x);
  Tensor dx = layer.backward(c);

  // Input gradient.
  for (std::size_t i = 0; i < x.size(); i += std::max<std::size_t>(1, x.size() / 17)) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double up = scalar_probe(layer, x, c);
    x[i] = orig - eps;
    const double down = scalar_probe(layer, x, c);
    x[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, tol + tol * std::abs(numeric))
        << "input grad mismatch at " << i;
  }

  // Parameter gradients. Re-run forward/backward to refresh caches after
  // the probes above, then compare each sampled coordinate.
  zero_params(layer);
  layer.forward(x);
  layer.backward(c);
  auto params = layer.params();
  for (std::size_t b = 0; b < params.size(); ++b) {
    auto& p = params[b];
    for (std::size_t i = 0; i < p.value.size();
         i += std::max<std::size_t>(1, p.value.size() / 13)) {
      const float orig = p.value[i];
      p.value[i] = orig + eps;
      const double up = scalar_probe(layer, x, c);
      p.value[i] = orig - eps;
      const double down = scalar_probe(layer, x, c);
      p.value[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p.grad[i], numeric, tol + tol * std::abs(numeric))
          << "param grad mismatch, block " << b << " index " << i;
    }
  }
}

TEST(Dense, ForwardHandComputed) {
  Dense d(2, 2);
  auto params = d.params();
  // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
  params[0].value[0] = 1;
  params[0].value[1] = 2;
  params[0].value[2] = 3;
  params[0].value[3] = 4;
  params[1].value[0] = 0.5f;
  params[1].value[1] = -0.5f;
  Tensor x({1, 2}, {10, 20});
  Tensor y = d.forward(x);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 10 * 1 + 20 * 2 + 0.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 10 * 3 + 20 * 4 - 0.5f);
}

TEST(Dense, RejectsBadInput) {
  Dense d(3, 2);
  Tensor x({1, 4});
  EXPECT_THROW(d.forward(x), std::invalid_argument);
  EXPECT_THROW(Dense(0, 1), std::invalid_argument);
}

TEST(Dense, HeInitStatistics) {
  Dense d(1000, 50);
  util::Rng rng(1);
  d.init(rng);
  auto params = d.params();
  double sq = 0.0;
  for (float v : params[0].value) sq += static_cast<double>(v) * v;
  const double stddev = std::sqrt(sq / static_cast<double>(params[0].value.size()));
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 1000.0), 0.005);
  for (float v : params[1].value) EXPECT_EQ(v, 0.0f);
}

class DenseGradient : public testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseGradient, MatchesFiniteDifferences) {
  const auto [batch, in, out] = GetParam();
  Dense d(static_cast<std::size_t>(in), static_cast<std::size_t>(out));
  util::Rng rng(77);
  d.init(rng);
  Tensor x = Tensor::randn({static_cast<std::size_t>(batch), static_cast<std::size_t>(in)}, rng);
  Tensor c = Tensor::randn({static_cast<std::size_t>(batch), static_cast<std::size_t>(out)}, rng);
  check_gradients(d, std::move(x), c);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseGradient,
                         testing::Values(std::make_tuple(1, 3, 2), std::make_tuple(4, 5, 7),
                                         std::make_tuple(2, 16, 8), std::make_tuple(8, 2, 2)));

TEST(ReLU, ForwardClampsNegatives) {
  ReLU r;
  Tensor x({1, 4}, {-1, 0, 2, -3});
  Tensor y = r.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  EXPECT_FLOAT_EQ(y[3], 0);
}

TEST(ReLU, BackwardMasks) {
  ReLU r;
  Tensor x({1, 4}, {-1, 0.5f, 2, -3});
  r.forward(x);
  Tensor g({1, 4}, {10, 10, 10, 10});
  Tensor dx = r.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0);
  EXPECT_FLOAT_EQ(dx[1], 10);
  EXPECT_FLOAT_EQ(dx[2], 10);
  EXPECT_FLOAT_EQ(dx[3], 0);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4, 4});
  Tensor y = f.forward(x);
  EXPECT_EQ(y.rank(), 2u);
  EXPECT_EQ(y.dim(1), 48u);
  Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(Conv2D, IdentityKernelPreservesInput) {
  // 1x1 kernel with weight 1 and no padding is the identity map.
  Conv2D conv(1, 1, 1, 0);
  conv.params()[0].value[0] = 1.0f;
  util::Rng rng(5);
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2D, HandComputedSum) {
  // 3x3 all-ones kernel, pad 1: output at center = sum of 3x3 neighborhood.
  Conv2D conv(1, 1, 3, 1);
  auto conv_params = conv.params();
  for (auto& v : conv_params[0].value) v = 1.0f;
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 45.0f);   // full sum
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1 + 2 + 4 + 5);  // corner
}

TEST(Conv2D, OutputShapeWithPadding) {
  Conv2D conv(3, 8, 5, 2);
  Tensor x({2, 3, 12, 12});
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 8u);
  EXPECT_EQ(y.dim(2), 12u);
  EXPECT_EQ(y.dim(3), 12u);
}

class ConvGradient : public testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(ConvGradient, MatchesFiniteDifferences) {
  const auto [batch, cin, cout, k, pad] = GetParam();
  Conv2D conv(static_cast<std::size_t>(cin), static_cast<std::size_t>(cout),
              static_cast<std::size_t>(k), static_cast<std::size_t>(pad));
  util::Rng rng(88);
  conv.init(rng);
  const std::size_t hw = 6;
  Tensor x = Tensor::randn({static_cast<std::size_t>(batch), static_cast<std::size_t>(cin), hw, hw},
                           rng);
  const std::size_t oh = hw + 2 * static_cast<std::size_t>(pad) - static_cast<std::size_t>(k) + 1;
  Tensor c = Tensor::randn(
      {static_cast<std::size_t>(batch), static_cast<std::size_t>(cout), oh, oh}, rng);
  check_gradients(conv, std::move(x), c);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvGradient,
                         testing::Values(std::make_tuple(1, 1, 1, 3, 1),
                                         std::make_tuple(2, 2, 3, 3, 1),
                                         std::make_tuple(1, 3, 2, 5, 2),
                                         std::make_tuple(2, 1, 4, 3, 0)));

TEST(MaxPool, ForwardPicksMaxima) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  pool.forward(x);
  Tensor g({1, 1, 1, 1}, {7.0f});
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx[0], 0);
  EXPECT_FLOAT_EQ(dx[1], 7);
  EXPECT_FLOAT_EQ(dx[2], 0);
  EXPECT_FLOAT_EQ(dx[3], 0);
}

TEST(MaxPool, RejectsIndivisibleDims) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 3, 4});
  EXPECT_THROW(pool.forward(x), std::invalid_argument);
}

TEST(MaxPool, MultiChannelIndependence) {
  MaxPool2D pool(2);
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 40, 30, 20, 10});
  Tensor y = pool.forward(x);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 1, 0, 0), 40.0f);
}

// A window with no element above -inf (all -inf or NaN) outputs -inf and
// routes its gradient to its own first element, for the 2x2 path and the
// generic one alike.
TEST(MaxPool, WindowWithoutAMaximumRoutesToItsFirstElement) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float fill : {-inf, nan}) {
    for (const std::size_t win : {2, 3}) {
      // One sample, two windows side by side: the first has a maximum, the
      // second holds only `fill`.
      Tensor x({1, 1, win, 2 * win});
      for (std::size_t i = 0; i < win; ++i)
        for (std::size_t j = 0; j < 2 * win; ++j)
          x.at4(0, 0, i, j) = j < win ? static_cast<float>(i + j) : fill;
      MaxPool2D pool(win);
      const Tensor& y = pool.forward(x);
      EXPECT_EQ(y[1], -inf) << "window " << win << " fill " << fill;
      const Tensor g({1, 1, 1, 2}, {3.0f, 5.0f});
      const Tensor& dx = pool.backward(g);
      for (std::size_t i = 0; i < dx.size(); ++i) {
        const float want = i == win ? 5.0f : (i == (win - 1) * 2 * win + win - 1 ? 3.0f : 0.0f);
        EXPECT_EQ(dx[i], want) << "window " << win << " fill " << fill << " pixel " << i;
      }
    }
  }
}

// The 2x2 path keeps the generic rule: each window's first element strictly
// greater than every earlier one (ties and NaN included), and backward
// sends its gradient there. Rows of 9 windows cover the four-wide blocks
// and the tail.
TEST(MaxPool, TwoByTwoMatchesTheFirstStrictMaximumScan) {
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {0.5f, -1.0f, 2.0f, 2.0f, -inf, inf, std::nanf(""), -0.0f, 0.0f};
  const std::size_t h = 6, w = 18;
  Tensor x({2, 3, h, w});
  util::Rng rng(11);
  for (float& v : x.data())
    v = values[rng.randint(0, static_cast<std::int64_t>(std::size(values)) - 1)];
  MaxPool2D pool(2);
  const Tensor& y = pool.forward(x);
  Tensor g(y.shape());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = static_cast<float>(i + 1);
  const Tensor& dx = pool.backward(g);
  std::vector<float> want_dx(x.size(), 0.0f);
  std::size_t out = 0;
  for (std::size_t pl = 0; pl < 6; ++pl)
    for (std::size_t oi = 0; oi < h / 2; ++oi)
      for (std::size_t oj = 0; oj < w / 2; ++oj, ++out) {
        const std::size_t first = (pl * h + 2 * oi) * w + 2 * oj;
        float best = -inf;
        std::size_t at = first;
        for (const std::size_t idx : {first, first + 1, first + w, first + w + 1})
          if (x[idx] > best) {
            best = x[idx];
            at = idx;
          }
        EXPECT_EQ(std::bit_cast<std::uint32_t>(y[out]), std::bit_cast<std::uint32_t>(best))
            << "output " << out;
        want_dx[at] += g[out];
      }
  for (std::size_t i = 0; i < dx.size(); ++i) EXPECT_EQ(dx[i], want_dx[i]) << "pixel " << i;
}

// The 2x2 backward writes every dx cell once: `+0 + g` at each window's
// pick and +0 elsewhere, the bits of zero-filling dx and adding g there.
// -0, NaN and +-inf gradients included, and a second backward into the same
// buffer must leave nothing of the first.
TEST(MaxPool, TwoByTwoBackwardHasTheBitsOfZeroFillAndAdd) {
  const float inf = std::numeric_limits<float>::infinity();
  const float grads[] = {-0.0f, 0.0f, std::nanf(""), inf, -inf, 1.5f, -2.25f};
  for (const std::size_t w : {2, 10, 18}) {
    const std::size_t h = 4;
    util::Rng rng(13);
    const Tensor x = Tensor::randn({2, 3, h, w}, rng);
    MaxPool2D pool(2);
    const Tensor& y = pool.forward(x);
    for (std::size_t round = 0; round < 2; ++round) {
      Tensor g(y.shape());
      for (std::size_t i = 0; i < g.size(); ++i) g[i] = grads[(i + round) % std::size(grads)];
      std::vector<float> want(x.size(), 0.0f);
      for (std::size_t out = 0; out < y.size(); ++out) {
        const std::size_t first = 2 * (out / (w / 2)) * w + 2 * (out % (w / 2));
        for (const std::size_t idx : {first, first + 1, first + w, first + w + 1})
          if (x[idx] == y[out]) {
            want[idx] += g[out];
            break;
          }
      }
      const Tensor& dx = pool.backward(g);
      ASSERT_EQ(dx.size(), want.size());
      for (std::size_t i = 0; i < dx.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[i]), std::bit_cast<std::uint32_t>(want[i]))
            << "w " << w << " round " << round << " pixel " << i;
    }
  }
}

TEST(SoftmaxCE, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy ce;
  Tensor logits({2, 4});
  std::vector<int> y = {0, 3};
  const double loss = ce.forward(logits, y);
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(SoftmaxCE, ConfidentCorrectHasLowLoss) {
  SoftmaxCrossEntropy ce;
  Tensor logits({1, 3}, {10.0f, 0.0f, 0.0f});
  std::vector<int> y = {0};
  EXPECT_LT(ce.forward(logits, y), 1e-3);
}

TEST(SoftmaxCE, GradientRowsSumToZero) {
  SoftmaxCrossEntropy ce;
  util::Rng rng(6);
  Tensor logits = Tensor::randn({4, 5}, rng);
  std::vector<int> y = {0, 1, 2, 3};
  ce.forward(logits, y);
  Tensor g = ce.backward();
  for (std::size_t r = 0; r < 4; ++r) {
    float row = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) row += g.at2(r, c);
    EXPECT_NEAR(row, 0.0f, 1e-6);
  }
}

TEST(SoftmaxCE, GradientMatchesFiniteDifferences) {
  SoftmaxCrossEntropy ce;
  util::Rng rng(7);
  Tensor logits = Tensor::randn({3, 4}, rng);
  std::vector<int> y = {1, 0, 3};
  ce.forward(logits, y);
  Tensor g = ce.backward();
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += eps;
    down[i] -= eps;
    SoftmaxCrossEntropy probe;
    const double numeric = (probe.forward(up, y) - probe.forward(down, y)) / (2.0 * eps);
    EXPECT_NEAR(g[i], numeric, 1e-4);
  }
}

TEST(SoftmaxCE, NumericalStabilityWithLargeLogits) {
  SoftmaxCrossEntropy ce;
  Tensor logits({1, 2}, {1000.0f, -1000.0f});
  std::vector<int> y = {0};
  const double loss = ce.forward(logits, y);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(SoftmaxCE, RejectsBadLabels) {
  SoftmaxCrossEntropy ce;
  Tensor logits({1, 2});
  std::vector<int> y = {5};
  EXPECT_THROW(ce.forward(logits, y), std::invalid_argument);
  EXPECT_THROW(SoftmaxCrossEntropy().backward(), std::logic_error);
}

TEST(Accuracy, CountsArgmaxHits) {
  Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  std::vector<int> y = {0, 1, 1};
  EXPECT_NEAR(accuracy(logits, y), 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace airfedga::ml
