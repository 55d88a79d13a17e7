#include "util/rng.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace airfedga::util {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < state_size; ++i)
    state_[i] = 6364136223846793005ULL * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
}

void Mt19937_64::twist() {
  constexpr std::size_t n = state_size;
  constexpr std::size_t m = 156;
  constexpr result_type upper = ~result_type{0} << 31;
  constexpr result_type lower = ~upper;
  constexpr result_type matrix_a = 0xB5026F5AA96619E9ULL;
  const auto step = [&](std::size_t k, std::size_t next, std::size_t far) {
    const result_type y = (state_[k] & upper) | (state_[next] & lower);
    state_[k] = state_[far] ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & matrix_a);
  };
  for (std::size_t k = 0; k < n - m; ++k) step(k, k + 1, k + m);
  for (std::size_t k = n - m; k < n - 1; ++k) step(k, k + 1, k + m - n);
  step(n - 1, 0, m - 1);
  pos_ = 0;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng Rng::fork(std::uint64_t tag) const {
  return Rng(splitmix64(seed_ ^ splitmix64(tag + 0x517cc1b727220a95ull)));
}

double Rng::rayleigh(double scale) {
  // Inverse-CDF sampling: F(x) = 1 - exp(-x^2 / (2 scale^2)).
  const double u = uniform(std::numeric_limits<double>::min(), 1.0);
  return scale * std::sqrt(-2.0 * std::log(u));
}

bool Rng::coin(double p_true) { return uniform() < p_true; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  shuffle(p);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  std::vector<std::size_t> p;
  sample_without_replacement(n, k, p);
  return p;
}

void Rng::sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  shuffle(out);
  out.resize(k);
}

}  // namespace airfedga::util
