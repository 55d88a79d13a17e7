#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "ml/gemm.hpp"

namespace airfedga::ml {

namespace {
std::size_t shape_product(std::span<const std::size_t> shape) {
  std::size_t n = 1;
  for (auto d : shape) n *= d;
  return n;
}

void check_rank(std::span<const std::size_t> shape) {
  if (shape.empty() || shape.size() > 4)
    throw std::invalid_argument("Tensor: rank must be 1..4");
}
}  // namespace

void Tensor::set_shape_checked(std::span<const std::size_t> shape) {
  check_rank(shape);
  shape_.assign(shape.begin(), shape.end());
  size_ = shape_product(shape);
}

void Tensor::ensure_capacity(std::size_t n) {
  if (n <= capacity_) return;
  // Old contents are never preserved across growth (every resize path is
  // either uninitialized or immediately overwritten), so allocate fresh.
  data_.reset(new float[n]);
  capacity_ = n;
}

Tensor::Tensor(std::vector<std::size_t> shape) {
  set_shape_checked(shape);
  ensure_capacity(size_);
  std::fill_n(data_.get(), size_, 0.0f);
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data) {
  set_shape_checked(shape);
  if (data.size() != size_)
    throw std::invalid_argument("Tensor: data size does not match shape");
  ensure_capacity(size_);
  std::copy(data.begin(), data.end(), data_.get());
}

Tensor::Tensor(const Tensor& other) {
  shape_ = other.shape_;
  size_ = other.size_;
  ensure_capacity(size_);
  if (size_ > 0) std::memcpy(data_.get(), other.data_.get(), size_ * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;  // reuses the shape vector's capacity
  size_ = other.size_;
  ensure_capacity(size_);
  if (size_ > 0) std::memcpy(data_.get(), other.data_.get(), size_ * sizeof(float));
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      size_(other.size_),
      capacity_(other.capacity_) {
  other.shape_.clear();
  other.size_ = 0;
  other.capacity_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = std::move(other.shape_);
  data_ = std::move(other.data_);
  size_ = other.size_;
  capacity_ = other.capacity_;
  other.shape_.clear();
  other.size_ = 0;
  other.capacity_ = 0;
  return *this;
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::uninitialized(std::span<const std::size_t> shape) {
  Tensor t;
  t.set_shape_checked(shape);
  t.ensure_capacity(t.size_);
  return t;
}

Tensor Tensor::uninitialized(std::initializer_list<std::size_t> shape) {
  return uninitialized(std::span<const std::size_t>(shape.begin(), shape.size()));
}

Tensor Tensor::randn(std::vector<std::size_t> shape, util::Rng& rng, float stddev) {
  Tensor t = uninitialized(shape);
  rng.normal_fill(t.data(), 0.0, stddev);
  return t;
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
  return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

Tensor Tensor::reshaped(std::vector<std::size_t> new_shape) const {
  check_rank(new_shape);
  if (shape_product(new_shape) != size())
    throw std::invalid_argument("Tensor::reshaped: size mismatch");
  Tensor t = uninitialized(new_shape);
  if (size_ > 0) std::memcpy(t.data_.get(), data_.get(), size_ * sizeof(float));
  return t;
}

void Tensor::resize_uninitialized(std::span<const std::size_t> shape) {
  set_shape_checked(shape);
  ensure_capacity(size_);
}

void Tensor::resize_uninitialized(std::initializer_list<std::size_t> shape) {
  resize_uninitialized(std::span<const std::size_t>(shape.begin(), shape.size()));
}

void Tensor::resize_zero(std::span<const std::size_t> shape) {
  resize_uninitialized(shape);
  std::fill_n(data_.get(), size_, 0.0f);
}

void Tensor::assign_reshaped(const Tensor& src, std::span<const std::size_t> shape) {
  if (shape_product(shape) != src.size())
    throw std::invalid_argument("Tensor::assign_reshaped: size mismatch");
  resize_uninitialized(shape);
  if (size_ > 0) std::memcpy(data_.get(), src.data_.get(), size_ * sizeof(float));
}

void Tensor::assign_reshaped(const Tensor& src, std::initializer_list<std::size_t> shape) {
  assign_reshaped(src, std::span<const std::size_t>(shape.begin(), shape.size()));
}

void Tensor::fill(float v) { std::fill_n(data_.get(), size_, v); }

double Tensor::norm() const { return std::sqrt(squared_norm(data())); }

std::string Tensor::shape_string() const {
  std::ostringstream ss;
  ss << '(';
  for (std::size_t i = 0; i < shape_.size(); ++i)
    ss << shape_[i] << (i + 1 < shape_.size() ? "," : "");
  ss << ')';
  return ss.str();
}

namespace {
void check_matrix(const Tensor& t, const char* who) {
  if (t.rank() != 2) throw std::invalid_argument(std::string(who) + ": expected rank-2 tensor");
}
}  // namespace

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b, bool accumulate) {
  check_matrix(a, "matmul");
  check_matrix(b, "matmul");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dimensions differ");
  if (accumulate) {
    if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n)
      throw std::invalid_argument("matmul: accumulate target has wrong shape");
  } else {
    c.resize_uninitialized({m, n});
  }
  sgemm(Trans::N, Trans::N, m, n, k, a.data().data(), k, b.data().data(), n,
        accumulate ? 1.0f : 0.0f, c.data().data(), n);
}

void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b, bool accumulate) {
  check_matrix(a, "matmul_nt");
  check_matrix(b, "matmul_nt");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner dimensions differ");
  if (accumulate) {
    if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n)
      throw std::invalid_argument("matmul_nt: accumulate target has wrong shape");
  } else {
    c.resize_uninitialized({m, n});
  }
  sgemm(Trans::N, Trans::T, m, n, k, a.data().data(), k, b.data().data(), k,
        accumulate ? 1.0f : 0.0f, c.data().data(), n);
}

void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b, bool accumulate) {
  check_matrix(a, "matmul_tn");
  check_matrix(b, "matmul_tn");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_tn: outer dimensions differ");
  if (accumulate) {
    if (c.rank() != 2 || c.dim(0) != k || c.dim(1) != n)
      throw std::invalid_argument("matmul_tn: accumulate target has wrong shape");
  } else {
    c.resize_uninitialized({k, n});
  }
  sgemm(Trans::T, Trans::N, k, n, m, a.data().data(), k, b.data().data(), n,
        accumulate ? 1.0f : 0.0f, c.data().data(), n);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(c, a, b);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt_into(c, a, b);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(c, a, b);
  return c;
}

void add_inplace(Tensor& y, const Tensor& x) {
  if (y.size() != x.size()) throw std::invalid_argument("add_inplace: size mismatch");
  float* py = y.data().data();
  const float* px = x.data().data();
  for (std::size_t i = 0; i < y.size(); ++i) py[i] += px[i];
}

void axpy(float a, std::span<const float> x, std::span<float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

double dot(std::span<const float> x, std::span<const float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += static_cast<double>(x[i]) * y[i];
  return acc;
}

double squared_norm(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * v;
  return acc;
}

}  // namespace airfedga::ml
