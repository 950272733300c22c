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
//   * memoization — results are always cached by a binary memo key, so a
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
// Model has predict()/predict_batch() and an append_memo_key(const Block&,
// std::string&) is found by argument-dependent lookup in Block's namespace
// works. Each ISA defines its key next to its block type, as a binary form
// of exactly the fields the block's text prints: two keys are equal exactly
// when the two texts are, so the hit ledger is the one a text key gives,
// while this header includes no ISA header. The session path is chosen at
// compile time: this header sees no model type, only whether Model has
// open_session().
//
// The caller's batch is the miss batch. predict_batch swaps each batch's
// misses to the front of the caller's span, in first-seen order, and hands
// that prefix to the model: no block is copied, and the span afterwards
// holds the same blocks in another order. A memo hit allocates nothing;
// a miss allocates its memo node and, past the small-string size, its key.
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

  /// Predict every block of `blocks` into the parallel `out` span: out[i]
  /// answers the caller's blocks[i] as passed in. Cache misses are
  /// deduplicated, gathered in place at the front of `blocks` (which is
  /// left permuted) and evaluated in one predict_batch() call (through the
  /// session, when the model has one); hits never reach the model. If the
  /// model throws, the batch's misses are not memoized and the exception
  /// propagates.
  void predict_batch(std::span<Block> blocks, std::span<double> out) {
    stats_.requested += blocks.size();
    if (blocks.empty()) return;
    std::size_t n_miss = 0;
    fresh_.clear();
    // miss_of_[i] is the miss slot answering the caller's blocks[i], or
    // npos for a memo hit, whose value is already in out[i].
    miss_of_.assign(blocks.size(), npos);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      key_.clear();
      append_memo_key(blocks[i], key_);
      const auto [it, inserted] = memo_.try_emplace(key_, Entry{0.0, n_miss});
      Entry& entry = it->second;
      if (!inserted) {
        ++stats_.cache_hits;
        if (entry.slot == npos) {
          out[i] = entry.value;
        } else {
          miss_of_[i] = entry.slot;  // duplicate within this batch
        }
        continue;
      }
      // Blocks before i are all processed, so the swap moves a hit or a
      // duplicate out of the miss prefix and keeps the misses in order.
      if (i != n_miss) {
        using std::swap;
        swap(blocks[n_miss], blocks[i]);
      }
      miss_of_[i] = n_miss++;
      fresh_.push_back(&entry);
    }
    if (n_miss > 0) {
      miss_out_.resize(n_miss);
      stats_.evaluated += n_miss;
      ++stats_.batch_calls;
      const std::span<const Block> miss(blocks.data(), n_miss);
      try {
        if constexpr (kSessions) {
          session_->predict_batch(miss, std::span<double>(miss_out_));
        } else {
          model_->predict_batch(miss, std::span<double>(miss_out_));
        }
      } catch (...) {
        // Only this batch's entries are still pending.
        std::erase_if(memo_,
                      [](const auto& kv) { return kv.second.slot != npos; });
        throw;
      }
      for (std::size_t s = 0; s < n_miss; ++s) {
        *fresh_[s] = Entry{miss_out_[s], npos};
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

  /// A memo entry: the model's value, or, while its batch is being
  /// evaluated, the miss slot that will hold it.
  struct Entry {
    double value;
    std::size_t slot;  // npos once `value` is set
  };

  const Model* model_;  // a pointer, so the broker stays move-assignable
  Session session_{};   // opened once, in the constructor
  QueryStats stats_;
  // Keyed with std::hash<std::string> on purpose: libstdc++ stores the
  // hash code in each node only for the standard string hashes, and a
  // custom transparent hasher would rehash the keys on every bucket walk
  // and rehash (25% slower finds, 41% slower inserts).
  std::unordered_map<std::string, Entry> memo_;
  // Reused per-call scratch; every buffer keeps its capacity across calls.
  std::string key_;  // the request's memo key, rendered in place
  // The entries this call inserted, by miss slot. Pointers into memo_
  // stay valid across its rehashes.
  std::vector<Entry*> fresh_;
  std::vector<double> miss_out_;
  std::vector<std::size_t> miss_of_;
};

}  // namespace comet::cost
