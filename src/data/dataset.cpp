#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

namespace airfedga::data {

std::vector<std::size_t> Dataset::indices_of_class(int label) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ys.size(); ++i)
    if (ys[i] == label) out.push_back(i);
  return out;
}

namespace {

/// Unit-norm random direction scaled by `margin`.
std::vector<float> random_prototype_flat(std::size_t dim, double margin, util::Rng& rng) {
  std::vector<float> p(dim);
  rng.normal_fill(p);
  const double scale = margin / std::max(1e-12, std::sqrt(ml::squared_norm(p)));
  for (auto& v : p) v = static_cast<float>(v * scale);
  return p;
}

/// Smooth spatial pattern: a coarse random grid bilinearly upsampled, so
/// neighbouring pixels are correlated and convolutions have structure to
/// exploit. Normalized to `margin` like the flat prototypes.
std::vector<float> random_prototype_image(std::size_t channels, std::size_t height,
                                          std::size_t width, double margin, util::Rng& rng) {
  const std::size_t gh = std::max<std::size_t>(2, height / 4);
  const std::size_t gw = std::max<std::size_t>(2, width / 4);
  std::vector<float> grid(channels * gh * gw);
  rng.normal_fill(grid);

  std::vector<float> img(channels * height * width);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < height; ++i) {
      const double gi = static_cast<double>(i) * static_cast<double>(gh - 1) /
                        static_cast<double>(height - 1);
      const auto i0 = static_cast<std::size_t>(gi);
      const auto i1 = std::min(i0 + 1, gh - 1);
      const double fi = gi - static_cast<double>(i0);
      for (std::size_t j = 0; j < width; ++j) {
        const double gj = static_cast<double>(j) * static_cast<double>(gw - 1) /
                          static_cast<double>(width - 1);
        const auto j0 = static_cast<std::size_t>(gj);
        const auto j1 = std::min(j0 + 1, gw - 1);
        const double fj = gj - static_cast<double>(j0);
        const double v00 = grid[(c * gh + i0) * gw + j0];
        const double v01 = grid[(c * gh + i0) * gw + j1];
        const double v10 = grid[(c * gh + i1) * gw + j0];
        const double v11 = grid[(c * gh + i1) * gw + j1];
        img[(c * height + i) * width + j] = static_cast<float>(
            (1 - fi) * ((1 - fj) * v00 + fj * v01) + fi * ((1 - fj) * v10 + fj * v11));
      }
    }
  }
  double norm2 = 0.0;
  for (float v : img) norm2 += static_cast<double>(v) * v;
  const double scale = margin / std::max(1e-12, std::sqrt(norm2));
  for (auto& v : img) v = static_cast<float>(v * scale);
  return img;
}

/// Draws cfg.num_samples samples from one stream and writes each straight
/// into its part: the first sizes[0] samples form parts[0], the next
/// sizes[1] parts[1], and so on (the sizes sum to cfg.num_samples).
std::vector<Dataset> fill_dataset(std::vector<std::size_t> shape, const SyntheticConfig& cfg,
                                  std::span<const std::size_t> sizes,
                                  const std::vector<std::vector<float>>& prototypes,
                                  util::Rng& rng) {
  const std::size_t num_classes = prototypes.size();
  const std::size_t dim = prototypes[0].size();

  // Round-robin class order, then a label-preserving shuffle of positions,
  // so class sizes differ by at most 1 and ordering carries no signal.
  std::vector<int> labels(cfg.num_samples);
  for (std::size_t i = 0; i < cfg.num_samples; ++i)
    labels[i] = static_cast<int>(i % num_classes);
  rng.shuffle(labels);

  // `noise` is the per-dimension standard deviation. What controls the
  // Bayes error is the noise projected onto a discriminant direction,
  // which for isotropic noise equals the per-dimension sigma: the optimal
  // (nearest-prototype) error rate between two classes is
  // Q(margin * sqrt(2) / (2 * noise)), independent of the dimension.
  const double sigma = cfg.noise;
  std::vector<Dataset> parts(sizes.size());
  std::size_t i = 0;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    Dataset& ds = parts[k];
    shape[0] = sizes[k];
    ds.num_classes = num_classes;
    ds.xs = ml::Tensor::uninitialized(shape);
    ds.ys.resize(sizes[k]);
    for (std::size_t r = 0; r < sizes[k]; ++r, ++i) {
      const auto& proto = prototypes[static_cast<std::size_t>(labels[i])];
      const std::span<float> row = ds.xs.data().subspan(r * dim, dim);
      rng.normal_fill(row, 0.0, sigma);
      for (std::size_t d = 0; d < dim; ++d) row[d] += proto[d];
      ds.ys[r] = labels[i];
    }
  }
  return parts;
}

std::vector<Dataset> synthesize_flat(std::size_t dim, const SyntheticConfig& cfg,
                                     std::span<const std::size_t> sizes) {
  if (dim == 0 || cfg.num_classes == 0 || cfg.num_samples == 0)
    throw std::invalid_argument("make_synthetic_flat: empty configuration");
  util::Rng rng(cfg.seed);
  util::Rng proto_rng = rng.fork(0xA1);
  util::Rng sample_rng = rng.fork(0xB2);
  std::vector<std::vector<float>> prototypes;
  prototypes.reserve(cfg.num_classes);
  for (std::size_t k = 0; k < cfg.num_classes; ++k)
    prototypes.push_back(random_prototype_flat(dim, cfg.margin, proto_rng));
  return fill_dataset({0, dim}, cfg, sizes, prototypes, sample_rng);
}

std::vector<Dataset> synthesize_image(std::size_t channels, std::size_t height, std::size_t width,
                                      const SyntheticConfig& cfg,
                                      std::span<const std::size_t> sizes) {
  if (channels == 0 || height < 2 || width < 2 || cfg.num_classes == 0 || cfg.num_samples == 0)
    throw std::invalid_argument("make_synthetic_image: empty configuration");
  util::Rng rng(cfg.seed);
  util::Rng proto_rng = rng.fork(0xA1);
  util::Rng sample_rng = rng.fork(0xB2);
  std::vector<std::vector<float>> prototypes;
  prototypes.reserve(cfg.num_classes);
  for (std::size_t k = 0; k < cfg.num_classes; ++k)
    prototypes.push_back(random_prototype_image(channels, height, width, cfg.margin, proto_rng));
  std::vector<Dataset> parts =
      fill_dataset({0, channels, height, width}, cfg, sizes, prototypes, sample_rng);
  // Standardize to unit per-pixel variance (a global scale over all parts),
  // mirroring the input normalization of real image pipelines. Without it
  // the per-pixel magnitudes are ~noise (<0.3) and deep ReLU stacks start
  // with vanishing activations. A global scale leaves the Bayes geometry
  // untouched.
  double sq = 0.0;
  std::size_t count = 0;
  for (const Dataset& ds : parts) {
    for (float v : ds.xs.data()) sq += static_cast<double>(v) * v;
    count += ds.xs.size();
  }
  const double std_all = std::sqrt(sq / static_cast<double>(count));
  if (std_all > 1e-12) {
    const auto inv = static_cast<float>(1.0 / std_all);
    for (Dataset& ds : parts)
      for (auto& v : ds.xs.data()) v *= inv;
  }
  return parts;
}

}  // namespace

Dataset make_synthetic_flat(std::size_t dim, const SyntheticConfig& cfg) {
  const std::size_t sizes[] = {cfg.num_samples};
  return std::move(synthesize_flat(dim, cfg, sizes)[0]);
}

Dataset make_synthetic_image(std::size_t channels, std::size_t height, std::size_t width,
                             const SyntheticConfig& cfg) {
  const std::size_t sizes[] = {cfg.num_samples};
  return std::move(synthesize_image(channels, height, width, cfg, sizes)[0]);
}

namespace {
/// Generates train+test from one stream (same prototypes): the first
/// `train_samples` samples are the training set, the rest the test set.
TrainTest split_pair(std::size_t dim_or_zero, std::size_t channels, std::size_t height,
                     std::size_t width, std::size_t train_samples, std::size_t test_samples,
                     std::size_t num_classes, double margin, double noise, std::uint64_t seed) {
  const SyntheticConfig cfg{train_samples + test_samples, num_classes, margin, noise, seed};
  const std::size_t sizes[] = {train_samples, test_samples};
  std::vector<Dataset> parts = dim_or_zero > 0
                                   ? synthesize_flat(dim_or_zero, cfg, sizes)
                                   : synthesize_image(channels, height, width, cfg, sizes);
  return {std::move(parts[0]), std::move(parts[1])};
}
}  // namespace

TrainTest make_mnist_like(std::size_t train_samples, std::size_t test_samples,
                          std::uint64_t seed) {
  // Bayes accuracy ~92%: 9 * Q(0.707/0.30) ~ 8% error — models top out in
  // the low 90s, like LR/CNN on MNIST in the paper.
  return split_pair(784, 0, 0, 0, train_samples, test_samples, 10, 1.0, 0.30, seed);
}

TrainTest make_mnist_image_like(std::size_t train_samples, std::size_t test_samples,
                                std::uint64_t seed) {
  return split_pair(0, 1, 28, 28, train_samples, test_samples, 10, 1.0, 0.30, seed);
}

TrainTest make_cifar10_like(std::size_t train_samples, std::size_t test_samples,
                            std::uint64_t seed) {
  // Harder mixture (Bayes ~65%): CNN curves plateau around 60%, echoing
  // the paper's CIFAR-10 results.
  return split_pair(0, 3, 16, 16, train_samples, test_samples, 10, 1.0, 0.42, seed);
}

TrainTest make_imagenet100_like(std::size_t train_samples, std::size_t test_samples,
                                std::uint64_t seed) {
  // 100 classes; plateau near 55-60% like the paper's VGG-16 curves.
  return split_pair(0, 3, 16, 16, train_samples, test_samples, 100, 1.0, 0.27, seed);
}

}  // namespace airfedga::data
