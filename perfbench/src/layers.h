// Layer tracing from outside the library: timing wrappers around the public
// seams the explanation stack already exposes, so the benchmark measures
// each layer without a single change to src/.
//
//   perturb + graph  TimedPerturber / TracedTraits, a benchmark-local traits
//                    type that instantiates core::AnchorEngine<TracedTraits>
//                    around perturb::Perturber and graph::extract_features
//   sim / nn / net   TimedModel, a cost::CostModel decorator (wraps a local
//                    model, a RemoteShardClient, or the model behind a
//                    RemoteShardServer)
//   cost (broker)    the QueryStats every explanation carries
//   serve            ExplanationServer::Served::trace
//
// All counters are relaxed atomics: the served workload runs engines on
// several workers at once and the totals are read only after they joined.
// Timing never feeds the search, so a traced explanation is bit-identical
// to an untraced one (the fingerprint oracle checks both).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/comet.h"
#include "core/explanation.h"
#include "cost/cost_model.h"
#include "graph/features.h"
#include "perturb/perturber.h"

namespace perfbench {

namespace core = comet::core;
namespace cost = comet::cost;
namespace graph = comet::graph;
namespace perturb = comet::perturb;
namespace util = comet::util;
namespace x86 = comet::x86;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A count and the time spent producing it.
struct Tally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};

  void add(std::uint64_t dt_ns, std::uint64_t n = 1) {
    calls.fetch_add(n, std::memory_order_relaxed);
    ns.fetch_add(dt_ns, std::memory_order_relaxed);
  }
  std::uint64_t count() const { return calls.load(std::memory_order_relaxed); }
  std::uint64_t total_ns() const { return ns.load(std::memory_order_relaxed); }
};

/// Γ-side spans of every traced explanation in a run.
struct PerturbLedger {
  Tally sample;        ///< Perturber::sample
  Tally contains;      ///< Perturber::contains
  Tally setup;         ///< Perturber construction (dep graph, candidates)
  Tally features;      ///< graph::extract_features
  std::atomic<std::uint64_t> empty{0};    ///< samples with an empty block
  std::atomic<std::uint64_t> unsound{0};  ///< !contains(sample(F), F)
};

/// Γ with every call timed. Each sample is also checked for soundness —
/// the perturbation must contain the features it was asked to preserve —
/// outside the timed span, so the check shows as tracing overhead only.
/// Violations are reported (perturb.unsound_frac), not counted as failed
/// explanations: the explanations themselves are checked by the oracle.
class TimedPerturber {
 public:
  TimedPerturber(perturb::Perturber inner, PerturbLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  perturb::PerturbedBlock sample(const graph::FeatureSet& preserve,
                                 util::Rng& rng) const {
    const std::uint64_t t0 = now_ns();
    perturb::PerturbedBlock pb = inner_.sample(preserve, rng);
    ledger_->sample.add(now_ns() - t0);
    if (pb.block.empty()) {
      ledger_->empty.fetch_add(1, std::memory_order_relaxed);
    }
    if (!inner_.contains(pb, preserve)) {
      ledger_->unsound.fetch_add(1, std::memory_order_relaxed);
    }
    return pb;
  }

  bool contains(const perturb::PerturbedBlock& pb,
                const graph::FeatureSet& fs) const {
    const std::uint64_t t0 = now_ns();
    const bool hit = inner_.contains(pb, fs);
    ledger_->contains.add(now_ns() - t0);
    return hit;
  }

 private:
  perturb::Perturber inner_;
  PerturbLedger* ledger_;
};

/// CometOptions plus where the traced traits record their spans.
struct TracedOptions : core::CometOptions {
  PerturbLedger* ledger = nullptr;
};

/// The x86 engine binding with Γ and feature extraction timed; everything
/// else is X86AnchorTraits.
struct TracedTraits {
  using Base = core::X86AnchorTraits;
  using Block = Base::Block;
  using Feature = Base::Feature;
  using FeatureSet = Base::FeatureSet;
  using Perturber = TimedPerturber;
  using PerturbedBlock = Base::PerturbedBlock;
  using Model = Base::Model;
  using Options = TracedOptions;
  using Explanation = Base::Explanation;

  static FeatureSet extract_features(const Block& block,
                                     const Options& options) {
    const std::uint64_t t0 = now_ns();
    FeatureSet fs = Base::extract_features(block, options);
    options.ledger->features.add(now_ns() - t0);
    return fs;
  }
  static Perturber make_perturber(const Block& block, const Options& options) {
    const std::uint64_t t0 = now_ns();
    perturb::Perturber inner = Base::make_perturber(block, options);
    options.ledger->setup.add(now_ns() - t0);
    return TimedPerturber(std::move(inner), options.ledger);
  }
};

/// Cost-model decorator: counts blocks and times every call into `inner`.
class TimedModel final : public cost::CostModel {
 public:
  explicit TimedModel(std::shared_ptr<const cost::CostModel> inner)
      : inner_(std::move(inner)) {}

  double predict(const x86::BasicBlock& block) const override {
    const std::uint64_t t0 = now_ns();
    const double v = inner_->predict(block);
    blocks_.add(now_ns() - t0);
    return v;
  }
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) const override {
    const std::uint64_t t0 = now_ns();
    inner_->predict_batch(blocks, out);
    blocks_.add(now_ns() - t0, blocks.size());
  }
  std::string name() const override { return inner_->name(); }

  std::uint64_t blocks() const { return blocks_.count(); }
  std::uint64_t busy_ns() const { return blocks_.total_ns(); }

 private:
  std::shared_ptr<const cost::CostModel> inner_;
  mutable Tally blocks_;  ///< calls = blocks predicted, ns = time inside
};

}  // namespace perfbench
