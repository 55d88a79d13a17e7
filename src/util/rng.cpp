#include "util/rng.hpp"

#include <algorithm>
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

void Mt19937_64::temper() {
  for (std::size_t k = 0; k < state_size; ++k) {
    result_type z = state_[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    out_[k] = z ^ (z >> 43);
  }
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
  std::vector<std::size_t> out;
  SampleScratch scratch;
  sample_without_replacement(n, k, out, scratch);
  return out;
}

// The shuffle draws j_i in [0, i) and swaps positions i-1 and j_i for
// i = n, ..., 2. Draws above `head` (the tail) only decide which values
// reach positions [0, k); the rest permute those k values among
// themselves. So the tail's draws are logged and walked back from i = head
// + 1 to n, following each output slot's position back to where its value
// started: a followed position q that equals j_i came from i-1 (it cannot
// equal i-1, as every followed position is below i-1 by then). A bitmap of
// the followed positions finds the few hits, ~k ln(n/k) of n draws, with
// one well-predicted branch per draw. A followed position p names its slot
// at log[n-1-p]: past the draws the log starts with each position below k
// as its own slot, and a position i-1 becomes followed at step i, whose
// log entry is spent by then and takes the slot. The head's swaps then run
// on the k values themselves.
void Rng::sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out,
                                     SampleScratch& scratch) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("sample_without_replacement: n >= 2^32");
  const std::size_t head = std::max<std::size_t>(k, 1);
  const std::size_t draws = n > head ? n - head : 0;
  auto& log = scratch.log;  // log[m] is j_i for i = n - m
  log.resize(draws + k);
  for (std::size_t m = 0; m < draws; ++m)
    log[m] = static_cast<std::uint32_t>(randint(0, static_cast<std::int64_t>(n - m) - 1));
  for (std::size_t p = 0; p < k; ++p) log[draws + k - 1 - p] = static_cast<std::uint32_t>(p);

  out.resize(k);
  std::iota(out.begin(), out.end(), std::size_t{0});
  if (k > 0 && draws > 0) {
    auto& bits = scratch.bits;
    if (bits.size() < (n + 63) / 64) bits.resize((n + 63) / 64);
    const auto flip = [&bits](std::size_t p) { bits[p >> 6] ^= std::uint64_t{1} << (p & 63); };
    for (std::size_t p = 0; p < k; ++p) flip(p);
    for (std::size_t m = draws; m-- > 0;) {
      const std::uint32_t j = log[m];
      if (((bits[j >> 6] >> (j & 63)) & 1) == 0) continue;
      const std::uint32_t slot = log[n - 1 - j];
      const std::size_t from = n - m - 1;
      out[slot] = from;
      log[m] = slot;
      flip(j);
      flip(from);
    }
    for (const std::size_t p : out) flip(p);  // back to all zero
  }
  for (std::size_t i = k; i > 1; --i) {
    const auto j = static_cast<std::size_t>(randint(0, static_cast<std::int64_t>(i) - 1));
    std::swap(out[i - 1], out[j]);
  }
}

}  // namespace airfedga::util
