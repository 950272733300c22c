// The query broker: the single funnel through which an explanation engine
// reaches a cost model.
//
// Every Anchors-style explanation consumes thousands of model queries
// (KL-LUCB arm pulls, coverage pools, final verification), and the
// perturbation space of a block is small enough that the same perturbed
// block recurs many times within one search. The broker exploits both
// facts in one place:
//
//   * batching   — callers hand over whole sample batches; the model sees
//                  one predict_batch() call per batch instead of a virtual
//                  predict() per sample,
//   * memoization — results are cached by block text, so a recurring
//                  perturbation costs a hash lookup instead of a forward
//                  pass (duplicates inside a single batch are folded too),
//   * accounting — all query traffic is counted here, giving benches and
//                  tests one authoritative place to audit the query budget.
//
// The broker is templated over (Block, Model) so the same code serves the
// x86 CostModel hierarchy and the RISC-V analytical model: any pair where
// Block has to_string() and Model has predict()/predict_batch() works.
//
// Thread-safety contract:
//   * A QueryBroker instance is NOT thread-safe: the memo table, the stats
//     ledger, and the scratch buffers are unsynchronized. Confine each
//     broker to one thread at a time (each explanation owns a private
//     broker; serve::ShardedBrokerPool gives every shard its own broker
//     touched only by that shard's thread).
//   * The broker only ever calls const methods on the model, so a single
//     model instance may back many brokers on many threads provided its
//     predict()/predict_batch() are const-thread-safe (true for every
//     model in this repository: they use only locals and const members).
//   * The broker does not own the model; whoever builds a broker pool owns
//     the per-shard model instances and keeps them alive (see
//     serve::ShardedBrokerPool's factory).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/query_stats.h"

namespace comet::cost {

template <typename Block, typename Model>
class QueryBroker {
 public:
  /// `model` must outlive the broker. `memoize` disables the cache (the
  /// batching and accounting remain); results are identical either way for
  /// deterministic models.
  explicit QueryBroker(const Model& model, bool memoize = true)
      : model_(&model), memoize_(memoize) {}

  /// Pointer variant for pool construction (per-shard ownership lives in
  /// the pool; the broker stays non-owning). `model` must be non-null and
  /// outlive the broker.
  explicit QueryBroker(const Model* model, bool memoize = true)
      : model_(model), memoize_(memoize) {}

  // Movable (so brokers can live in pool containers), not copyable (a
  // copied memo table would double-count traffic in merged stats).
  QueryBroker(QueryBroker&&) noexcept = default;
  QueryBroker& operator=(QueryBroker&&) noexcept = default;

  /// Predict every block of `blocks` into the parallel `out` span.
  /// Cache misses are deduplicated and evaluated in one predict_batch()
  /// call; hits never reach the model.
  void predict_batch(std::span<const Block> blocks, std::span<double> out) {
    stats_.requested += blocks.size();
    if (blocks.empty()) return;
    if (!memoize_) {
      stats_.evaluated += blocks.size();
      ++stats_.batch_calls;
      model_->predict_batch(blocks, out);
      return;
    }
    miss_blocks_.clear();
    miss_keys_.clear();
    pending_.clear();
    // miss_of_[i] is the index into the miss batch, or npos for a hit.
    miss_of_.assign(blocks.size(), npos);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      std::string key = blocks[i].to_string();
      if (const auto it = cache_.find(key); it != cache_.end()) {
        out[i] = it->second;
        ++stats_.cache_hits;
        continue;
      }
      if (const auto it = pending_.find(key); it != pending_.end()) {
        miss_of_[i] = it->second;  // duplicate within this batch
        ++stats_.cache_hits;
        continue;
      }
      const std::size_t slot = miss_blocks_.size();
      pending_.emplace(key, slot);
      miss_of_[i] = slot;
      miss_blocks_.push_back(blocks[i]);
      miss_keys_.push_back(std::move(key));
    }
    if (!miss_blocks_.empty()) {
      miss_out_.resize(miss_blocks_.size());
      stats_.evaluated += miss_blocks_.size();
      ++stats_.batch_calls;
      model_->predict_batch(std::span<const Block>(miss_blocks_),
                            std::span<double>(miss_out_));
      for (std::size_t s = 0; s < miss_keys_.size(); ++s) {
        cache_.emplace(std::move(miss_keys_[s]), miss_out_[s]);
      }
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (miss_of_[i] != npos) out[i] = miss_out_[miss_of_[i]];
    }
  }

  /// Single-query convenience path (counts as a single predict() call);
  /// engine traffic should use predict_batch instead.
  double predict_one(const Block& block) {
    ++stats_.requested;
    std::string key;
    if (memoize_) {
      key = block.to_string();
      if (const auto it = cache_.find(key); it != cache_.end()) {
        ++stats_.cache_hits;
        return it->second;
      }
    }
    ++stats_.evaluated;
    ++stats_.single_calls;
    const double v = model_->predict(block);
    if (memoize_) cache_.emplace(std::move(key), v);
    return v;
  }

  const QueryStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueryStats{}; }
  const Model& model() const { return *model_; }

  /// Drop every memo entry whose key fails `pred` (signature:
  /// bool(const std::string&)). Used when a sharded pool re-shards the
  /// hash space: entries that now route to a different shard are evicted
  /// so a stale local copy can never shadow the owning shard's. Like
  /// every other method, must run on the thread that owns this broker.
  template <typename Pred>
  void retain_memo_if(Pred pred) {
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (pred(it->first)) {
        ++it;
      } else {
        it = cache_.erase(it);
      }
    }
  }

  /// Live memo-entry count (observability for re-shard tests).
  std::size_t memo_size() const { return cache_.size(); }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  const Model* model_;
  bool memoize_;
  QueryStats stats_;
  std::unordered_map<std::string, double> cache_;
  // Reused per-call scratch (miss gathering); no allocations on the hot
  // path once the buffers have grown to batch size.
  std::vector<Block> miss_blocks_;
  std::vector<std::string> miss_keys_;
  std::vector<double> miss_out_;
  std::vector<std::size_t> miss_of_;
  std::unordered_map<std::string, std::size_t> pending_;
};

}  // namespace comet::cost
