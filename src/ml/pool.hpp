#pragma once

#include <cstdint>

#include "ml/layer.hpp"

namespace airfedga::ml {

/// Max pooling over NCHW activations with square window and equal stride
/// (the paper's CNN/VGG models only use 2x2/2, which has its own
/// branch-free path). Each window's output is its first element strictly
/// greater than every earlier one, scanning rows then columns from -inf,
/// and backward routes the window's gradient there; a window without one
/// (all -inf or NaN) outputs -inf and routes to its first element. The 2x2 backward
/// writes each dx cell once (`+0 + g` at a pick); inputs hold at most 2^32 floats.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::size_t window = 2);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }

 private:
  /// The window == 2 forward over `out_rows` output rows of w/2 pixels.
  void forward_2x2(const float* px, float* py, std::size_t out_rows, std::size_t w);

  std::size_t win_;
  std::vector<std::uint32_t> argmax_;     // flat input index of each output cell (training only)
  std::vector<std::size_t> input_shape_;
  std::vector<std::uint32_t> pick_;       // forward_2x2's window element per output of a row
  Tensor out_;
  Tensor dx_;
};

}  // namespace airfedga::ml
