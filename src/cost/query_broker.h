// The query broker: the single funnel through which an explanation engine
// reaches a cost model.
//
// Every Anchors-style explanation consumes thousands of model queries
// (KL-LUCB arm pulls, coverage pools, final verification), and some
// perturbed blocks recur within one search: over perfbench's sweep
// catalog 10.4% of requested blocks are memo hits (cache_hits / requested
// in perfbench/fingerprints.tsv: 10.43% uiCA, 10.37% Ithemal). The broker
// exploits both facts in one place:
//
//   * batching   — callers hand over whole sample batches; the model sees
//                  one predict_batch() call per batch instead of a virtual
//                  predict() per sample,
//   * memoization — results are always cached by block text, so a
//                  recurring perturbation costs a hash lookup instead of a
//                  forward pass (duplicates inside a single batch are
//                  folded too); for a deterministic model a memo hit
//                  returns exactly the value predict() would,
//   * accounting — all query traffic is counted here, giving benches and
//                  tests one authoritative place to audit the query budget,
//   * one session — a model with open_session() (every x86 CostModel) is
//                  asked for one session when the broker is built, and
//                  every miss batch goes through it, so the model can keep
//                  work across the batches of one explanation. A model
//                  without one (the RISC-V analytical model) is called
//                  directly.
//
// The broker is templated over (Block, Model) so the same code serves the
// x86 CostModel hierarchy and the RISC-V analytical model: any pair where
// Block has to_string() and Model has predict()/predict_batch() works.
// The session path is chosen at compile time: this header sees no model
// type, only whether Model has open_session().
//
// Thread-safety contract:
//   * A QueryBroker instance is NOT thread-safe: the memo table, the stats
//     ledger, the model session and the scratch buffers are
//     unsynchronized. Confine each broker to one thread at a time (each
//     explanation owns a private broker, so a served request's broker
//     lives on its worker).
//   * The broker only ever calls const methods on the model, so a single
//     model instance may back many brokers on many threads provided its
//     predict()/predict_batch() are const-thread-safe (true for every
//     model in this repository: they use only locals and const members).
//   * The broker does not own the model; the caller keeps it alive.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/query_stats.h"

namespace comet::cost {

namespace detail {
/// What Model::open_session() returns, or std::nullptr_t for a model
/// without sessions.
template <typename Model>
struct SessionOf {
  using type = std::nullptr_t;
};
template <typename Model>
  requires requires(const Model& m) { m.open_session(); }
struct SessionOf<Model> {
  using type = decltype(std::declval<const Model&>().open_session());
};
}  // namespace detail

template <typename Block, typename Model>
class QueryBroker {
 public:
  /// `model` must outlive the broker.
  explicit QueryBroker(const Model& model) : model_(&model) {
    if constexpr (kSessions) session_ = model.open_session();
  }

  // Movable (so brokers can live in containers), not copyable (a copied
  // memo table would double-count traffic in merged stats).
  QueryBroker(QueryBroker&&) noexcept = default;
  QueryBroker& operator=(QueryBroker&&) noexcept = default;

  /// Predict every block of `blocks` into the parallel `out` span.
  /// Cache misses are deduplicated and evaluated in one predict_batch()
  /// call (through the session, when the model has one); hits never reach
  /// the model.
  void predict_batch(std::span<const Block> blocks, std::span<double> out) {
    stats_.requested += blocks.size();
    if (blocks.empty()) return;
    std::size_t n_miss = 0;
    pending_.clear();
    miss_keys_.clear();
    // pending_ views the keys in miss_keys_, so miss_keys_ must not
    // reallocate during the loop: a short key lives inside its string
    // object (the small-string buffer) and would move with it.
    miss_keys_.reserve(blocks.size());
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
      const std::size_t slot = n_miss++;
      miss_keys_.push_back(std::move(key));
      pending_.emplace(miss_keys_.back(), slot);
      miss_of_[i] = slot;
      // Copy-assigned into a retained slot, so the copy reuses the slot's
      // instruction and operand storage from earlier batches.
      if (slot < miss_blocks_.size()) {
        miss_blocks_[slot] = blocks[i];
      } else {
        miss_blocks_.push_back(blocks[i]);
      }
    }
    if (n_miss > 0) {
      miss_out_.resize(n_miss);
      stats_.evaluated += n_miss;
      ++stats_.batch_calls;
      const std::span<const Block> miss(miss_blocks_.data(), n_miss);
      if constexpr (kSessions) {
        session_->predict_batch(miss, std::span<double>(miss_out_));
      } else {
        model_->predict_batch(miss, std::span<double>(miss_out_));
      }
      for (std::size_t s = 0; s < miss_keys_.size(); ++s) {
        cache_.emplace(std::move(miss_keys_[s]), miss_out_[s]);
      }
    }
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (miss_of_[i] != npos) out[i] = miss_out_[miss_of_[i]];
    }
  }

  const QueryStats& stats() const { return stats_; }
  const Model& model() const { return *model_; }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  using Session = typename detail::SessionOf<Model>::type;
  static constexpr bool kSessions = !std::is_same_v<Session, std::nullptr_t>;

  const Model* model_;  // a pointer, so the broker stays move-assignable
  Session session_{};   // opened once, in the constructor
  QueryStats stats_;
  // Keyed with std::hash<std::string> on purpose: libstdc++ stores the
  // hash code in each node only for the standard string hashes, and a
  // custom transparent hasher would rehash the ~130-byte keys on every
  // bucket walk and rehash (25% slower finds, 41% slower inserts).
  std::unordered_map<std::string, double> cache_;
  // Reused per-call scratch (miss gathering). Every buffer keeps its
  // capacity across calls, and miss_blocks_ keeps its slots: a slot's block
  // is overwritten by copy-assignment, reusing its instruction and operand
  // storage, and only the first n_miss slots of a call are live. A miss's
  // key string is rendered once and moved into miss_keys_, then into
  // cache_; pending_ only views it. What still allocates is the rendered
  // key of every request and, per miss, the nodes of pending_ and cache_.
  std::vector<Block> miss_blocks_;
  std::vector<std::string> miss_keys_;
  std::vector<double> miss_out_;
  std::vector<std::size_t> miss_of_;
  // Views into miss_keys_; they dangle once the keys move into cache_ and
  // are cleared before the next call reads them.
  std::unordered_map<std::string_view, std::size_t> pending_;
};

}  // namespace comet::cost
