#include "ml/dense.hpp"

#include <cmath>
#include <stdexcept>

namespace airfedga::ml {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}) {
  if (in_features == 0 || out_features == 0)
    throw std::invalid_argument("Dense: zero-sized layer");
}

void Dense::init(util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_));
  rng.normal_fill(weight_.data(), 0.0, stddev);
  bias_.fill(0.0f);
}

const Tensor& Dense::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::invalid_argument("Dense::forward: bad input shape " + x.shape_string());
  if (training_) input_cache_ = x;
  matmul_nt_into(y_, x, weight_);  // (B, out)
  const std::size_t batch = y_.dim(0);
  const float* pb = bias_.data().data();
  for (std::size_t i = 0; i < batch; ++i) {
    float* row = &y_.at2(i, 0);
    for (std::size_t j = 0; j < out_; ++j) row[j] += pb[j];
  }
  return y_;
}

const Tensor& Dense::backward(const Tensor& grad_out) {
  if (grad_out.rank() != 2 || grad_out.dim(1) != out_)
    throw std::invalid_argument("Dense::backward: bad gradient shape");
  if (!training_ || input_cache_.size() == 0 || input_cache_.dim(0) != grad_out.dim(0))
    throw std::logic_error("Dense::backward: requires a training-mode forward");
  // dW += dy^T x ; db += column sums of dy ; dx = dy W
  matmul_tn_into(weight_grad_, grad_out, input_cache_, /*accumulate=*/true);  // (out, in)
  const std::size_t batch = grad_out.dim(0);
  float* pbg = bias_grad_.data().data();
  for (std::size_t i = 0; i < batch; ++i)
    for (std::size_t j = 0; j < out_; ++j) pbg[j] += grad_out.at2(i, j);
  if (!input_grad_) return no_input_grad();
  matmul_into(dx_, grad_out, weight_);  // (B, in)
  return dx_;
}

std::vector<ParamView> Dense::params() {
  return {{weight_.data(), weight_grad_.data()}, {bias_.data(), bias_grad_.data()}};
}

}  // namespace airfedga::ml
