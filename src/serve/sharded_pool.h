// ShardedBrokerPool: fan predict_batch traffic out across N worker threads,
// each owning its own model instance and its own memoizing QueryBroker.
//
// Blocks are hash-sharded by block text (fnv1a64 % shards), so a given
// block always lands on the same shard: its memo entry lives in exactly one
// cache, repeated queries from *different* requests hit that same cache,
// and no result is ever computed twice across the pool. A pool predict_batch
// call partitions the batch, dispatches each sub-batch to its shard's
// queue, and waits for all shards to scatter their results back into the
// caller's output span (disjoint indices, so no synchronization is needed
// on the span itself).
//
// Thread-safety: every shard's model + broker are touched only by that
// shard's worker thread (queries, stats snapshots, and cache all serialize
// through the shard queue), so the pool's predict/predict_batch/stats are
// safe to call concurrently from any number of threads — the pool is a
// const-thread-safe "model" in the QueryBroker sense, which is exactly how
// serve::ShardedCostModel presents it to the explanation engine.
//
// Per-shard QueryStats are exposed raw (load-balance accounting: how even
// is the hash spread?) and merged via QueryStats::operator+=.
//
// Fault recovery: the pool re-shards instead of limping. set_shard_live()
// (driven by a ShardHealthMonitor watching remote shards) removes a shard
// from the routing set — the hash space redistributes over the survivors
// — and adds it back after recovery. On every routing change the pool
// posts a memo sweep to each live shard evicting entries the shard no
// longer owns under the new map (retain_memo_if), so caches track
// ownership instead of accumulating moved ranges. Results stay
// bit-identical across re-shards because every shard's model is
// identical-by-construction (same factory); the routing set only decides
// *where* a block is priced, never what the answer is. With every shard
// marked dead the pool degrades to routing over the full set (each
// shard's model decides what to do when it then fails — a
// RemoteShardClient fails over to its configured fallback), so
// predict_batch never deadlocks on an empty routing set.
//
// Errors: a shard whose model throws does not take the process down. Each
// call waits for all of its sub-batches, then rethrows the first error on
// the calling thread (util::TaskLatch); the pool keeps serving.
//
// Observability: the pool owns an obs::MetricsRegistry with, per shard, a
// sub-batch-size histogram (shard_batch_size{shard="N"} — how the hash
// spread actually partitions traffic) and a memo hit-rate gauge
// (shard_hit_rate{shard="N"}). Both are recorded on the shard's own
// thread, serialized with its broker, so they cost the caller nothing and
// race with nothing.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cost/query_broker.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace comet::serve {

template <typename Block, typename Model>
class ShardedBrokerPool {
 public:
  /// Builds the model instance owned by one shard. Called once per shard
  /// at pool construction; instances must be independent (or safely
  /// shareable) since each is driven from a different thread.
  using Factory =
      std::function<std::shared_ptr<const Model>(std::size_t shard)>;

  ShardedBrokerPool(const Factory& factory, std::size_t shards,
                    bool memoize = true) {
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(factory(s), memoize));
      const std::string label = std::to_string(s);
      shards_.back()->batch_size_hist = &metrics_.histogram(
          obs::MetricsRegistry::labeled("shard_batch_size", "shard", label));
      shards_.back()->hit_rate_gauge = &metrics_.gauge(
          obs::MetricsRegistry::labeled("shard_hit_rate", "shard", label));
    }
    util::MutexLock lock(route_mutex_);
    alive_.assign(shards, true);
  }

  // Destruction is a graceful drain: each shard's pool finishes its
  // queued sub-batches before joining (and is destroyed before the broker
  // and model its tasks reference).
  ShardedBrokerPool(const ShardedBrokerPool&) = delete;
  ShardedBrokerPool& operator=(const ShardedBrokerPool&) = delete;

  /// Predict every block of `blocks` into the parallel `out` span,
  /// fanning sub-batches out across the shards and waiting for all of
  /// them. Element-wise identical to any single instance the factory
  /// builds (deterministic models). If a shard's model throws, the first
  /// error is rethrown here once every sub-batch has finished.
  void predict_batch(std::span<const Block> blocks,
                     std::span<double> out) const {
    if (blocks.empty()) return;
    const std::vector<std::size_t> live = routing_snapshot();
    std::vector<std::vector<std::size_t>> indices_of(shards_.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      indices_of[owner_in(blocks[i].to_string(), live)].push_back(i);
    }
    std::size_t sub_batches = 0;
    for (const auto& idx : indices_of) sub_batches += !idx.empty();
    util::TaskLatch join(sub_batches);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (indices_of[s].empty()) continue;
      std::vector<Block> sub;
      sub.reserve(indices_of[s].size());
      for (const std::size_t i : indices_of[s]) sub.push_back(blocks[i]);
      shards_[s]->post([shard = shards_[s].get(), sub = std::move(sub),
                        idx = std::move(indices_of[s]), out,
                        &join] {
        join.run([&] {
          std::vector<double> sub_out(sub.size());
          shard->broker.predict_batch(std::span<const Block>(sub),
                                      std::span<double>(sub_out));
          // Shard-thread-side observability: the sub-batch width this
          // shard actually received, and its running memo hit rate (reads
          // the broker ledger on the only thread allowed to touch it).
          shard->batch_size_hist->record(sub.size());
          shard->hit_rate_gauge->set(shard->broker.stats().hit_rate());
          for (std::size_t j = 0; j < idx.size(); ++j) {
            out[idx[j]] = sub_out[j];
          }
        });
      });
    }
    join.wait();
  }

  /// Single-block convenience (routes through the owning shard).
  double predict(const Block& block) const {
    double out = 0.0;
    predict_batch(std::span<const Block>(&block, 1),
                  std::span<double>(&out, 1));
    return out;
  }

  /// Which shard owns `block` under the *current* routing set (stable
  /// hash of the full block text — the same string the shard broker
  /// memoizes on).
  std::size_t shard_of(const Block& block) const {
    if (shards_.size() == 1) return 0;
    return owner_in(block.to_string(), routing_snapshot());
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// Mark shard `s` live (routable) or dead. Removing a shard re-shards
  /// the hash space over the survivors; re-adding one re-shards again.
  /// Either way a memo sweep is posted to every live shard evicting
  /// entries it no longer owns, and this call waits for those sweeps
  /// (deterministic ordering for everything posted afterwards). Dead
  /// shards are not swept — they get theirs on re-admission. No-op when
  /// the liveness bit already matches.
  void set_shard_live(std::size_t s, bool live) {
    std::vector<std::size_t> routing;
    {
      util::MutexLock lock(route_mutex_);
      if (s >= shards_.size() || alive_[s] == live) return;
      alive_[s] = live;
      routing = routing_locked();
    }
    util::TaskLatch join(routing.size());
    for (const std::size_t shard_index : routing) {
      shards_[shard_index]->post(
          [shard = shards_[shard_index].get(), shard_index, routing, &join] {
            join.run([&] {
              shard->broker.retain_memo_if([&](const std::string& key) {
                return owner_in(key, routing) == shard_index;
              });
            });
          });
    }
    join.wait();
  }

  /// Indices of the shards currently in the routing set. (All of them at
  /// construction; possibly the degraded full set when everything has
  /// been marked dead — see the header comment.)
  std::vector<std::size_t> live_shards() const {
    return routing_snapshot();
  }

  /// Per-shard memo-entry counts, snapshotted on the shard threads
  /// (re-shard tests watch moved ranges disappear).
  std::vector<std::size_t> memo_sizes() const {
    std::vector<std::size_t> out(shards_.size());
    util::TaskLatch join(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->post([shard = shards_[s].get(), &out, s, &join] {
        join.run([&] { out[s] = shard->broker.memo_size(); });
      });
    }
    join.wait();
    return out;
  }

  /// Per-shard ledgers, snapshotted on each shard's own thread (so the
  /// snapshot serializes with in-flight work instead of racing it).
  std::vector<cost::QueryStats> shard_stats() const {
    std::vector<cost::QueryStats> out(shards_.size());
    util::TaskLatch join(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->post([shard = shards_[s].get(), &out, s, &join] {
        join.run([&] { out[s] = shard->broker.stats(); });
      });
    }
    join.wait();
    return out;
  }

  /// Merged ledger across all shards.
  cost::QueryStats stats() const {
    cost::QueryStats merged;
    for (const auto& s : shard_stats()) merged += s;
    return merged;
  }

  /// The model instance owned by shard `s` (for name/introspection only;
  /// do not call predict on it from outside the shard thread unless the
  /// model is const-thread-safe).
  const Model& shard_model(std::size_t s) const { return *shards_[s]->model; }

  /// Per-shard instrumentation: shard_batch_size{shard="N"} histograms and
  /// shard_hit_rate{shard="N"} gauges, exportable via to_prometheus() /
  /// to_json(). Snapshots may trail in-flight sub-batches by one update
  /// (recordings happen on the shard threads); call after predict_batch
  /// returns for exact counts.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Shard {
    std::shared_ptr<const Model> model;  // declared before broker: broker
    cost::QueryBroker<Block, Model> broker;  // holds a pointer into it
    // Registry-owned instruments, touched only from this shard's thread
    // (the instruments are internally synchronized anyway; confinement
    // just makes the hit-rate read of the broker ledger legal).
    obs::Histogram* batch_size_hist = nullptr;
    obs::Gauge* hit_rate_gauge = nullptr;
    // One single-thread FIFO pool per shard: serializes all broker/model
    // access onto the shard's thread, and drains before broker/model die.
    util::ThreadPool pool{1};

    Shard(std::shared_ptr<const Model> m, bool memoize)
        : model(std::move(m)), broker(model.get(), memoize) {}

    void post(std::function<void()> task) { pool.post(std::move(task)); }
  };

  /// Owner of `key` among the shards listed in `routing` (hash over the
  /// routing set's *size*, so removing a shard redistributes the whole
  /// space over the survivors).
  static std::size_t owner_in(const std::string& key,
                              const std::vector<std::size_t>& routing) {
    if (routing.size() == 1) return routing[0];
    return routing[util::fnv1a64(key.data(), key.size()) % routing.size()];
  }

  std::vector<std::size_t> routing_locked() const
      COMET_REQUIRES(route_mutex_) {
    std::vector<std::size_t> routing;
    for (std::size_t s = 0; s < alive_.size(); ++s) {
      if (alive_[s]) routing.push_back(s);
    }
    if (routing.empty()) {
      // Fully dead: degrade to the full set rather than refuse to route.
      for (std::size_t s = 0; s < alive_.size(); ++s) routing.push_back(s);
    }
    return routing;
  }

  std::vector<std::size_t> routing_snapshot() const
      COMET_EXCLUDES(route_mutex_) {
    util::MutexLock lock(route_mutex_);
    return routing_locked();
  }

  // Declared before shards_: the shards hold pointers into the registry and
  // drain their queued work (which records through those pointers) before
  // the registry is destroyed.
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Routing state: which shards receive traffic. Brief critical sections
  // only (snapshot/rebuild); the memo sweeps run on the shard threads.
  mutable util::Mutex route_mutex_;
  std::vector<bool> alive_ COMET_GUARDED_BY(route_mutex_);
};

}  // namespace comet::serve
