#include "ml/zoo.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "ml/activation.hpp"
#include "ml/conv2d.hpp"
#include "ml/dense.hpp"
#include "ml/pool.hpp"

namespace airfedga::ml {

namespace {
std::size_t scaled(std::size_t base, double scale, std::size_t floor_value) {
  return std::max(floor_value,
                  static_cast<std::size_t>(std::llround(static_cast<double>(base) * scale)));
}
}  // namespace

Model make_mlp(std::size_t input_dim, std::size_t num_classes, std::size_t hidden) {
  Model m;
  m.add(std::make_unique<Dense>(input_dim, hidden));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(hidden, hidden));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(hidden, num_classes));
  return m;
}

Model make_softmax_regression(std::size_t input_dim, std::size_t num_classes) {
  Model m;
  m.add(std::make_unique<Dense>(input_dim, num_classes));
  return m;
}

Model make_cnn_mnist(double width_scale, std::size_t image) {
  if (image % 4 != 0) throw std::invalid_argument("make_cnn_mnist: image must be divisible by 4");
  const std::size_t c1 = scaled(20, width_scale, 4);
  const std::size_t c2 = scaled(50, width_scale, 4);
  const std::size_t fc = scaled(500, width_scale, 32);
  Model m;
  m.add(std::make_unique<Conv2D>(1, c1, 5, /*padding=*/2, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  m.add(std::make_unique<Conv2D>(c1, c2, 5, /*padding=*/2, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(c2 * (image / 4) * (image / 4), fc));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(fc, 10));
  return m;
}

Model make_cnn_cifar(double width_scale, std::size_t image) {
  if (image % 4 != 0) throw std::invalid_argument("make_cnn_cifar: image must be divisible by 4");
  const std::size_t c1 = scaled(32, width_scale, 4);
  const std::size_t c2 = scaled(64, width_scale, 4);
  const std::size_t fc = scaled(512, width_scale, 32);
  Model m;
  m.add(std::make_unique<Conv2D>(3, c1, 5, /*padding=*/2, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  m.add(std::make_unique<Conv2D>(c1, c2, 5, /*padding=*/2, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(c2 * (image / 4) * (image / 4), fc));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(fc, 10));
  return m;
}

Model make_vgg_style(std::size_t image, std::size_t num_classes, double width_scale) {
  if (image % 8 != 0) throw std::invalid_argument("make_vgg_style: image must be divisible by 8");
  const std::size_t c1 = scaled(16, width_scale, 4);
  const std::size_t c2 = scaled(32, width_scale, 4);
  const std::size_t c3 = scaled(64, width_scale, 4);
  const std::size_t fc = scaled(256, width_scale, 32);
  Model m;
  // Block 1
  m.add(std::make_unique<Conv2D>(3, c1, 3, 1, /*relu=*/true));
  m.add(std::make_unique<Conv2D>(c1, c1, 3, 1, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  // Block 2
  m.add(std::make_unique<Conv2D>(c1, c2, 3, 1, /*relu=*/true));
  m.add(std::make_unique<Conv2D>(c2, c2, 3, 1, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  // Block 3
  m.add(std::make_unique<Conv2D>(c2, c3, 3, 1, /*relu=*/true));
  m.add(std::make_unique<Conv2D>(c3, c3, 3, 1, /*relu=*/true));
  m.add(std::make_unique<MaxPool2D>(2));
  // Dense head
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(c3 * (image / 8) * (image / 8), fc));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(fc, num_classes));
  return m;
}

std::size_t count_parameters(const ModelFactory& factory) {
  return factory().num_parameters();
}

}  // namespace airfedga::ml
