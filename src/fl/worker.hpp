#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "ml/model.hpp"
#include "util/rng.hpp"

namespace airfedga::fl {

/// One edge device. It references its data shard (indices into the shared
/// training set) and holds the latest *local* model w^i_t as a flat vector.
///
/// A worker does not own a Model instance: `local_update` borrows a scratch
/// model (weights are swapped in and out as flat vectors), leased per
/// training lane by the Driver's execution engine, which keeps memory at
/// one model per lane instead of one per worker. Likewise the data shard is
/// a non-owning view into the Driver's shared `data::ShardIndex` arena (the
/// span constructor; many workers may view one shard at population scale) —
/// the vector constructor keeps an owned copy for standalone use in tests.
class Worker {
 public:
  /// Non-owning shard view; `shard` must outlive the worker (the Driver's
  /// ShardIndex arena provides that lifetime).
  Worker(std::size_t id, const data::Dataset& train, std::span<const std::size_t> shard,
         util::Rng rng);

  /// Owning variant for standalone construction (copies `shard` into the
  /// worker and views the copy).
  Worker(std::size_t id, const data::Dataset& train, std::vector<std::size_t> shard,
         util::Rng rng);

  // Copying an owning worker would leave the copy's span aimed at the
  // source's buffer; moves are safe (the owned vector's heap buffer — and
  // thus the span target — transfers intact).
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  Worker(Worker&&) = default;
  Worker& operator=(Worker&&) = default;

  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] std::size_t data_size() const { return shard_.size(); }

  /// Local update rule (Eq. 4 generalized to `steps` mini-batch SGD steps):
  /// starting from the received global model, runs `steps` SGD steps with
  /// step size `lr` on mini-batches of `batch_size` samples drawn from the
  /// local shard (0 = the full shard, the paper's full-gradient setting).
  /// The result is stored as the worker's local model. Returns the mean
  /// training loss over the executed steps.
  double local_update(ml::Model& scratch, std::span<const float> global_model, float lr,
                      std::size_t steps, std::size_t batch_size);

  /// w^i_t, the latest local model (empty before the first update).
  [[nodiscard]] std::span<const float> local_model() const { return local_model_; }
  [[nodiscard]] bool has_model() const { return !local_model_.empty(); }

  /// Squared L2 norm of the local model (for the W_t bound of Assumption 4).
  [[nodiscard]] double model_norm_sq() const;

  [[nodiscard]] std::span<const std::size_t> shard() const { return shard_; }

  /// Rebinds this worker to a different device identity: id, shard view
  /// and RNG stream are replaced, the local model is cleared, and the
  /// batch buffers are kept (pool recycling at population scale reuses
  /// one Worker's allocations across many logical workers).
  void rebind(std::size_t id, std::span<const std::size_t> shard, util::Rng rng);

  /// Replays `draws` batch samplings without training, advancing the RNG
  /// engine exactly as `draws` SGD steps at this batch size would. The
  /// Driver's worker pool uses this to reconstruct the precise engine
  /// state a recycled worker had, so results never depend on which
  /// workers kept their slots. No-op when sampling is degenerate
  /// (full-shard batches consume no randomness).
  void replay_rng(std::size_t draws, std::size_t batch_size);

 private:
  std::span<const std::size_t> sample_batch(std::size_t batch_size);

  std::size_t id_;
  const data::Dataset* train_;
  std::vector<std::size_t> owned_shard_;   ///< backing storage for the vector ctor only
  std::span<const std::size_t> shard_;     ///< the active shard view
  std::vector<float> local_model_;
  util::Rng rng_;

  // Reused per-step buffers: local training allocates nothing once these
  // reach the steady batch size.
  std::vector<std::size_t> pick_;     ///< sampled positions within the shard
  util::SampleScratch pick_scratch_;  ///< the sampler's buffers for pick_
  std::vector<std::size_t> batch_;    ///< sampled dataset indices
  ml::Tensor xb_;                     ///< gathered batch inputs
  std::vector<int> yb_;               ///< gathered batch labels
};

}  // namespace airfedga::fl
