#include "fl/worker.hpp"

#include <stdexcept>

#include "ml/tensor.hpp"

namespace airfedga::fl {

namespace {
void check_shard(std::span<const std::size_t> shard, const data::Dataset& train) {
  if (shard.empty()) throw std::invalid_argument("Worker: empty data shard");
  for (auto idx : shard)
    if (idx >= train.size()) throw std::invalid_argument("Worker: shard index out of range");
}
}  // namespace

Worker::Worker(std::size_t id, const data::Dataset& train, std::span<const std::size_t> shard,
               util::Rng rng)
    : id_(id), train_(&train), shard_(shard), rng_(rng) {
  check_shard(shard_, train);
}

Worker::Worker(std::size_t id, const data::Dataset& train, std::vector<std::size_t> shard,
               util::Rng rng)
    : id_(id), train_(&train), owned_shard_(std::move(shard)), shard_(owned_shard_), rng_(rng) {
  check_shard(shard_, train);
}

void Worker::rebind(std::size_t id, std::span<const std::size_t> shard, util::Rng rng) {
  check_shard(shard, *train_);
  id_ = id;
  owned_shard_.clear();
  shard_ = shard;
  rng_ = rng;
  local_model_.clear();
}

void Worker::replay_rng(std::size_t draws, std::size_t batch_size) {
  if (batch_size == 0 || batch_size >= shard_.size()) return;  // sampling consumed no randomness
  for (std::size_t i = 0; i < draws; ++i)
    rng_.sample_without_replacement(shard_.size(), batch_size, pick_, pick_scratch_);
}

std::span<const std::size_t> Worker::sample_batch(std::size_t batch_size) {
  if (batch_size == 0 || batch_size >= shard_.size()) return shard_;
  rng_.sample_without_replacement(shard_.size(), batch_size, pick_, pick_scratch_);
  batch_.resize(pick_.size());
  for (std::size_t i = 0; i < pick_.size(); ++i) batch_[i] = shard_[pick_[i]];
  return batch_;
}

double Worker::local_update(ml::Model& scratch, std::span<const float> global_model, float lr,
                            std::size_t steps, std::size_t batch_size) {
  if (steps == 0) throw std::invalid_argument("Worker::local_update: steps must be >= 1");
  scratch.set_parameters(global_model);
  double loss_sum = 0.0;
  for (std::size_t s = 0; s < steps; ++s) {
    const auto batch = sample_batch(batch_size);
    ml::gather_rows_into(xb_, train_->xs, batch);
    yb_.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) yb_[i] = train_->ys[batch[i]];
    loss_sum += scratch.train_step(xb_, yb_, lr);
  }
  scratch.parameters_into(local_model_);
  return loss_sum / static_cast<double>(steps);
}

double Worker::model_norm_sq() const { return ml::squared_norm(local_model_); }

}  // namespace airfedga::fl
