#include "data/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace airfedga::data {

ShardIndex::ShardIndex(const Partition& partition) {
  offsets_.reserve(partition.size() + 1);
  offsets_.push_back(0);
  std::size_t total = 0;
  for (const auto& shard : partition) total += shard.size();
  arena_.reserve(total);
  for (const auto& shard : partition) {
    arena_.insert(arena_.end(), shard.begin(), shard.end());
    offsets_.push_back(arena_.size());
  }
}

std::span<const std::size_t> ShardIndex::shard(std::size_t s) const {
  if (s + 1 >= offsets_.size()) throw std::out_of_range("ShardIndex::shard: index out of range");
  return std::span<const std::size_t>(arena_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]);
}

std::size_t ShardIndex::shard_size(std::size_t s) const {
  if (s + 1 >= offsets_.size())
    throw std::out_of_range("ShardIndex::shard_size: index out of range");
  return offsets_[s + 1] - offsets_[s];
}

Partition partition_iid(const Dataset& ds, std::size_t num_workers, util::Rng& rng) {
  if (num_workers == 0) throw std::invalid_argument("partition_iid: zero workers");
  auto perm = rng.permutation(ds.size());
  Partition p(num_workers);
  for (std::size_t i = 0; i < perm.size(); ++i) p[i % num_workers].push_back(perm[i]);
  return p;
}

Partition partition_label_skew(const Dataset& ds, std::size_t num_workers, util::Rng& rng) {
  if (num_workers == 0) throw std::invalid_argument("partition_label_skew: zero workers");
  const std::size_t k = ds.num_classes;
  if (k == 0) throw std::invalid_argument("partition_label_skew: dataset has no classes");

  Partition p(num_workers);
  if (num_workers >= k) {
    // Worker w serves class floor(w*K/N): contiguous near-equal blocks that
    // cover *every* worker (with N=100, K=10 this is exactly the paper's
    // "label k to workers 10k..10k+9"). Class samples go round-robin over
    // the class's block.
    std::vector<std::vector<std::size_t>> block(k);
    for (std::size_t w = 0; w < num_workers; ++w) block[w * k / num_workers].push_back(w);
    for (std::size_t c = 0; c < k; ++c) {
      auto idx = ds.indices_of_class(static_cast<int>(c));
      rng.shuffle(idx);
      for (std::size_t i = 0; i < idx.size(); ++i)
        p[block[c][i % block[c].size()]].push_back(idx[i]);
    }
  } else {
    // Fewer workers than classes: class c lands wholly on worker
    // floor(c*N/K), so each worker holds a contiguous set of classes.
    for (std::size_t c = 0; c < k; ++c) {
      auto idx = ds.indices_of_class(static_cast<int>(c));
      rng.shuffle(idx);
      auto& shard = p[c * num_workers / k];
      shard.insert(shard.end(), idx.begin(), idx.end());
    }
  }
  return p;
}

Partition partition_dirichlet(const Dataset& ds, std::size_t num_workers, double alpha,
                              util::Rng& rng) {
  if (num_workers == 0) throw std::invalid_argument("partition_dirichlet: zero workers");
  if (alpha <= 0.0) throw std::invalid_argument("partition_dirichlet: alpha must be > 0");
  Partition p(num_workers);
  // One Gamma for every draw: its saved polar normal carries across calls.
  util::Gamma gamma(alpha);
  for (std::size_t c = 0; c < ds.num_classes; ++c) {
    auto idx = ds.indices_of_class(static_cast<int>(c));
    rng.shuffle(idx);
    // Draw worker shares from Dir(alpha) via normalized Gamma samples.
    std::vector<double> shares(num_workers);
    double total = 0.0;
    for (auto& s : shares) {
      s = std::max(1e-12, gamma(rng.engine()));
      total += s;
    }
    // Convert shares to cumulative sample counts.
    std::size_t assigned = 0;
    double cum = 0.0;
    for (std::size_t w = 0; w < num_workers; ++w) {
      cum += shares[w] / total;
      const auto upto = std::min(
          idx.size(), static_cast<std::size_t>(cum * static_cast<double>(idx.size()) + 0.5));
      for (; assigned < upto; ++assigned) p[w].push_back(idx[assigned]);
    }
    for (; assigned < idx.size(); ++assigned) p[num_workers - 1].push_back(idx[assigned]);
  }
  return p;
}

void validate_partition(const Partition& p, const Dataset& ds) {
  std::vector<char> seen(ds.size(), 0);
  std::size_t count = 0;
  for (const auto& shard : p) {
    for (auto idx : shard) {
      if (idx >= ds.size()) throw std::invalid_argument("partition: index out of range");
      if (seen[idx]) throw std::invalid_argument("partition: duplicate index");
      seen[idx] = 1;
      ++count;
    }
  }
  if (count != ds.size()) throw std::invalid_argument("partition: not all samples assigned");
}

}  // namespace airfedga::data
