#include "ml/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace airfedga::ml {

double SoftmaxCrossEntropy::forward(const Tensor& logits, std::span<const int> labels) {
  if (logits.rank() != 2) throw std::invalid_argument("SoftmaxCrossEntropy: logits must be 2-D");
  const std::size_t batch = logits.dim(0), k = logits.dim(1);
  if (labels.size() != batch)
    throw std::invalid_argument("SoftmaxCrossEntropy: label count != batch size");

  probs_.resize_uninitialized({batch, k});
  labels_.assign(labels.begin(), labels.end());
  double loss = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const int y = labels[i];
    if (y < 0 || static_cast<std::size_t>(y) >= k)
      throw std::invalid_argument("SoftmaxCrossEntropy: label out of range");
    // Numerically stable log-sum-exp.
    float maxv = logits.at2(i, 0);
    for (std::size_t j = 1; j < k; ++j) maxv = std::max(maxv, logits.at2(i, j));
    double denom = 0.0;
    for (std::size_t j = 0; j < k; ++j)
      denom += std::exp(static_cast<double>(logits.at2(i, j) - maxv));
    const double log_denom = std::log(denom);
    for (std::size_t j = 0; j < k; ++j)
      probs_.at2(i, j) =
          static_cast<float>(std::exp(static_cast<double>(logits.at2(i, j) - maxv)) / denom);
    loss += -(static_cast<double>(logits.at2(i, static_cast<std::size_t>(y)) - maxv) - log_denom);
  }
  return loss / static_cast<double>(batch);
}

const Tensor& SoftmaxCrossEntropy::backward() {
  if (probs_.size() == 0)
    throw std::logic_error("SoftmaxCrossEntropy::backward called before forward");
  const std::size_t batch = probs_.dim(0), k = probs_.dim(1);
  grad_ = probs_;  // capacity reuse: no allocation in steady state
  const float inv_b = 1.0f / static_cast<float>(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    grad_.at2(i, static_cast<std::size_t>(labels_[i])) -= 1.0f;
    for (std::size_t j = 0; j < k; ++j) grad_.at2(i, j) *= inv_b;
  }
  return grad_;
}

double accuracy(const Tensor& logits, std::span<const int> labels) {
  if (logits.rank() != 2) throw std::invalid_argument("accuracy: logits must be 2-D");
  const std::size_t batch = logits.dim(0), k = logits.dim(1);
  if (labels.size() != batch) throw std::invalid_argument("accuracy: label count != batch");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    std::size_t arg = 0;
    for (std::size_t j = 1; j < k; ++j)
      if (logits.at2(i, j) > logits.at2(i, arg)) arg = j;
    if (static_cast<int>(arg) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(batch);
}

}  // namespace airfedga::ml
