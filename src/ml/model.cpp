#include "ml/model.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace airfedga::ml {

void Model::add(std::unique_ptr<Layer> layer) {
  layer->set_training(training_);
  // The loss gradient w.r.t. the model input is never read.
  layer->set_input_grad(!layers_.empty());
  layers_.push_back(std::move(layer));
  views_.clear();  // rebuilt lazily on next access
  num_params_ = 0;
}

void Model::init(util::Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

const Tensor& Model::forward(const Tensor& x) {
  const Tensor* h = &x;
  for (auto& l : layers_) h = &l->forward(*h);
  return *h;
}

void Model::set_training(bool training) {
  training_ = training;
  for (auto& l : layers_) l->set_training(training);
}

const std::vector<ParamView>& Model::views() const {
  if (views_.empty()) {
    std::size_t n = 0;
    for (const auto& l : layers_)
      for (auto& p : const_cast<Layer&>(*l).params()) {
        n += p.value.size();
        views_.push_back(p);
      }
    num_params_ = n;
  }
  return views_;
}

std::size_t Model::num_parameters() const {
  views();
  return num_params_;
}

void Model::parameters_into(std::vector<float>& out) const {
  out.resize(num_parameters());
  std::size_t off = 0;
  for (const auto& p : views()) {
    std::copy(p.value.begin(), p.value.end(), out.begin() + static_cast<std::ptrdiff_t>(off));
    off += p.value.size();
  }
}

std::vector<float> Model::parameters() const {
  std::vector<float> flat;
  parameters_into(flat);
  return flat;
}

void Model::set_parameters(std::span<const float> flat) {
  std::size_t off = 0;
  for (const auto& p : views()) {
    if (off + p.value.size() > flat.size())
      throw std::invalid_argument("Model::set_parameters: vector too short");
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + p.value.size()), p.value.begin());
    off += p.value.size();
  }
  if (off != flat.size())
    throw std::invalid_argument("Model::set_parameters: vector length mismatch");
}

void Model::gradients_into(std::vector<float>& out) const {
  out.resize(num_parameters());
  std::size_t off = 0;
  for (const auto& p : views()) {
    std::copy(p.grad.begin(), p.grad.end(), out.begin() + static_cast<std::ptrdiff_t>(off));
    off += p.grad.size();
  }
}

std::vector<float> Model::gradients() const {
  std::vector<float> flat;
  gradients_into(flat);
  return flat;
}

void Model::zero_grad() {
  for (const auto& p : views()) std::fill(p.grad.begin(), p.grad.end(), 0.0f);
}

double Model::compute_gradient(const Tensor& x, std::span<const int> y,
                               std::vector<float>& grad_out) {
  if (!training_) set_training(true);
  zero_grad();
  const Tensor& logits = forward(x);
  const double loss = loss_.forward(logits, y);
  const Tensor* grad = &loss_.backward();
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) grad = &(*it)->backward(*grad);
  gradients_into(grad_out);
  return loss;
}

double Model::train_step(const Tensor& x, std::span<const int> y, float lr) {
  if (!training_) set_training(true);
  zero_grad();
  const Tensor& logits = forward(x);
  const double loss = loss_.forward(logits, y);
  const Tensor* grad = &loss_.backward();
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) grad = &(*it)->backward(*grad);
  for (const auto& p : views())
    for (std::size_t i = 0; i < p.value.size(); ++i) p.value[i] -= lr * p.grad[i];
  return loss;
}

EvalResult Model::evaluate(const Tensor& xs, std::span<const int> ys, std::size_t batch_size) {
  const std::size_t n = xs.dim(0);
  if (ys.size() != n) throw std::invalid_argument("Model::evaluate: label count mismatch");
  if (n == 0) return {};
  double loss_sum = 0.0;
  double acc_sum = 0.0;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(n, start + batch_size);
    const EvalSums sums = evaluate_range(xs, ys, start, end);
    loss_sum += sums.loss_sum;
    acc_sum += sums.acc_sum;
  }
  return {loss_sum / static_cast<double>(n), acc_sum / static_cast<double>(n)};
}

EvalSums Model::evaluate_range(const Tensor& xs, std::span<const int> ys, std::size_t begin,
                               std::size_t end) {
  const std::size_t n = xs.dim(0);
  if (ys.size() != n) throw std::invalid_argument("Model::evaluate_range: label count mismatch");
  if (begin > end || end > n) throw std::invalid_argument("Model::evaluate_range: bad range");
  if (begin == end) return {};
  if (training_) set_training(false);
  // Contiguous row-range copy into the reused eval batch buffer.
  const std::size_t row = xs.size() / n;
  std::array<std::size_t, 4> shape{};
  for (std::size_t i = 0; i < xs.rank(); ++i) shape[i] = xs.dim(i);
  shape[0] = end - begin;
  eval_batch_.resize_uninitialized(std::span<const std::size_t>(shape.data(), xs.rank()));
  std::memcpy(eval_batch_.data().data(), xs.data().data() + begin * row,
              (end - begin) * row * sizeof(float));
  const Tensor& logits = forward(eval_batch_);
  std::span<const int> yb(ys.data() + begin, end - begin);
  const auto count = static_cast<double>(end - begin);
  return {loss_.forward(logits, yb) * count, accuracy(logits, yb) * count};
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0xA1FED6A0;
}  // namespace

void save_parameters(const std::string& path, std::span<const float> params) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_parameters: cannot open " + path);
  const std::uint32_t magic = kCheckpointMagic;
  const auto count = static_cast<std::uint64_t>(params.size());
  f.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  f.write(reinterpret_cast<const char*>(params.data()),
          static_cast<std::streamsize>(params.size_bytes()));
  if (!f) throw std::runtime_error("save_parameters: write failed for " + path);
}

std::vector<float> load_parameters(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_parameters: cannot open " + path);
  std::uint32_t magic = 0;
  std::uint64_t count = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  f.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!f || magic != kCheckpointMagic)
    throw std::runtime_error("load_parameters: not an airfedga checkpoint: " + path);
  // Check the header's claim against the actual file size before trusting
  // it: a truncated or corrupted count must fail with a clear error here,
  // not as an enormous allocation or a short read below.
  std::error_code ec;
  const auto file_size = std::filesystem::file_size(path, ec);
  const std::uint64_t header = sizeof(magic) + sizeof(count);
  if (ec || file_size < header || (file_size - header) / sizeof(float) != count ||
      (file_size - header) % sizeof(float) != 0)
    throw std::runtime_error("load_parameters: truncated or corrupt checkpoint (header claims " +
                             std::to_string(count) + " floats): " + path);
  std::vector<float> params(count);
  f.read(reinterpret_cast<char*>(params.data()),
         static_cast<std::streamsize>(count * sizeof(float)));
  if (!f || f.gcount() != static_cast<std::streamsize>(count * sizeof(float)))
    throw std::runtime_error("load_parameters: truncated checkpoint: " + path);
  return params;
}

void gather_rows_into(Tensor& out, const Tensor& xs, std::span<const std::size_t> indices) {
  const std::size_t row = xs.size() / xs.dim(0);
  std::array<std::size_t, 4> shape{};
  for (std::size_t i = 0; i < xs.rank(); ++i) shape[i] = xs.dim(i);
  shape[0] = indices.size();
  out.resize_uninitialized(std::span<const std::size_t>(shape.data(), xs.rank()));
  const float* src = xs.data().data();
  float* dst = out.data().data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= xs.dim(0)) throw std::out_of_range("gather_rows: index out of range");
    std::copy(src + indices[i] * row, src + (indices[i] + 1) * row, dst + i * row);
  }
}

Tensor gather_rows(const Tensor& xs, std::span<const std::size_t> indices) {
  Tensor out;
  gather_rows_into(out, xs, indices);
  return out;
}

}  // namespace airfedga::ml
