// The single, ISA-generic anchor-search engine (paper Sections 5.2 and 7).
//
// COMET's central claim is that the explanation formalism is model-agnostic
// and ISA-portable: the relaxed optimization problem (eq. 7)
//
//   F* = argmax_{F ⊆ P̂} Cov(F)   s.t.   Prec(F) ≥ 1 − δ
//
// and its Anchors-style solution — a bottom-up beam search over feature
// sets whose per-level top-B identification runs the KL-LUCB best-arm
// procedure (Kaufmann & Kalyanakrishnan 2013) — never mention the ISA.
// This header is that claim made executable: AnchorEngine<Traits> contains
// the whole search once, and an ISA plugs in through a traits type
// providing its Block, Feature(Set) (for both ISAs, the shared templates of
// graph/vocabulary.h), Perturber, cost-model type, and options. The x86
// CometExplainer and the RISC-V RvExplainer are aliases of this engine;
// see core/comet.h and riscv/explain.h.
//
// The engine is batch-first: every model query it issues flows through a
// cost::QueryBroker as part of a batch (arm pulls are whole perturbation
// batches, never per-sample predict() calls), so vectorized predict_batch
// overrides and the broker's memoization pay off across the thousands of
// queries one explanation consumes. Pulls that need no score in between
// (a level's initial fan-out, a KL-LUCB round's two separating arms) are
// fused into shared broker batches of at most kMaxFusedBlocks blocks.
// A batch's blocks live in retained slots that Γ samples into and the
// broker reorders in place, so a sample is neither copied nor freed.
//
// The engine reads no clock. Per-layer time shares (Γ sample, containment,
// model predict, residual) come from perfbench's layer tracing
// (`--trace 1`), which wraps the traits' perturber and model seams from
// outside the library.
//
// A traits type must provide:
//   Block, Feature, FeatureSet      — ISA feature vocabulary (positional)
//   Perturber, PerturbedBlock      — Γ for a fixed target block, with
//                                     sample(preserve, rng, PerturbedBlock&)
//                                     drawing into a slot
//   Model                           — cost model (predict / predict_batch)
//   Options                         — derived from AnchorSearchOptions
//   Explanation                     — result struct (features, precision,
//                                     coverage, met_threshold,
//                                     model_queries, query_stats)
//   static FeatureSet extract_features(const Block&, const Options&)
//   static Perturber make_perturber(const Block&, const Options&)
// and Block's namespace an append_memo_key(const Block&, std::string&), the
// broker's memo key (see cost/query_broker.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "cost/query_broker.h"
#include "util/kl_bounds.h"
#include "util/rng.h"

namespace comet::core {

/// Widest broker batch a group of fused arm pulls may build. Arms join the
/// pending batch in order; before an arm is sampled, the batch is flushed
/// if its batch_size more blocks could take it past this cap (each flush
/// carries at least one arm, so a single pull with batch_size > cap is
/// still one batch). The cap bounds the working set: fusing a whole
/// level-1 fan-out unbounded raised peak RSS by up to 2x on the benchmark.
inline constexpr std::size_t kMaxFusedBlocks = 64;

// KL-LUCB / beam-search constants (Anchors defaults; no caller varies them).
/// Bandit failure probability of the KL-LUCB confidence bounds.
inline constexpr double kLucbConfidenceDelta = 0.1;
/// KL-LUCB stops once the strongest challenger's upper bound is within
/// this of the weakest top-B arm's lower bound.
inline constexpr double kLucbEpsilon = 0.15;
/// Largest feature set the beam search grows (beam levels 1..3).
inline constexpr std::size_t kMaxExplanationSize = 3;

/// The ISA-independent knobs of the anchor search, shared by every
/// instantiation (x86 CometOptions, RISC-V RvExplainOptions).
struct AnchorSearchOptions {
  /// ε-ball radius around M(β) (paper Appendix E: 0.5 cycles for real cost
  /// models, ∆/4 = 0.25 for the crude model C). The ball is open: a sample
  /// counts as a hit iff |M(α) − M(β)| < ε, so one exactly ε away misses.
  double epsilon = 0.5;
  /// Precision threshold is (1 − delta); the paper uses 0.7.
  double delta = 0.3;

  // -- KL-LUCB / beam-search hyperparameters (Anchors defaults) --
  /// Use the adaptive KL-LUCB best-arm procedure to allocate the per-level
  /// pull budget. When false, the same budget is spent uniformly
  /// round-robin across candidate arms — the baseline the ablation bench
  /// compares against.
  bool use_kl_lucb = true;
  std::size_t batch_size = 12;         ///< perturbations per arm pull
  std::size_t beam_width = 4;
  std::size_t max_pulls_per_level = 160;  ///< arm pulls per beam level

  /// Samples drawn from D (=Γ(∅)) for coverage estimation. The paper uses
  /// 10k; benches scale this down and report the value used.
  std::size_t coverage_samples = 2000;
  /// Extra samples to firm up the precision estimate of the final answer.
  std::size_t final_precision_samples = 200;

  std::uint64_t seed = 1;
};

namespace detail {

/// Draw Γ(preserve) into `out`. Both ISAs' perturbers sample into the
/// caller's slot; the by-value fallback serves perturbers that only return
/// a block, which is perfbench's TimedPerturber decorator alone (ROADMAP
/// item 2 deletes it).
template <typename Perturber, typename FeatureSet, typename PerturbedBlock>
void sample_into(const Perturber& perturber, const FeatureSet& preserve,
                 util::Rng& rng, PerturbedBlock& out) {
  if constexpr (requires { perturber.sample(preserve, rng, out); }) {
    perturber.sample(preserve, rng, out);
  } else {
    out = perturber.sample(preserve, rng);
  }
}

}  // namespace detail

template <typename Traits>
class AnchorEngine {
 public:
  using Block = typename Traits::Block;
  using Feature = typename Traits::Feature;
  using FeatureSet = typename Traits::FeatureSet;
  using Perturber = typename Traits::Perturber;
  using PerturbedBlock = typename Traits::PerturbedBlock;
  using Model = typename Traits::Model;
  using Options = typename Traits::Options;
  using Explanation = typename Traits::Explanation;
  using Broker = cost::QueryBroker<Block, Model>;

  /// `model` must outlive the engine; the engine keeps its own options.
  AnchorEngine(const Model& model, Options options = {})
      : model_(model), options_(std::move(options)) {}

  Explanation explain(const Block& block) const;

  /// Standalone Monte-Carlo estimate of Prec(F) for a given feature set
  /// (used by the Table 3 evaluation). Consumes `samples` model queries,
  /// batched through a broker.
  double estimate_precision(const Block& block, const FeatureSet& features,
                            std::size_t samples, util::Rng& rng) const;

  /// Standalone estimate of Cov(F) over `samples` unconstrained
  /// perturbations (no model queries).
  double estimate_coverage(const Block& block, const FeatureSet& features,
                           std::size_t samples, util::Rng& rng) const;

 private:
  /// One bandit arm: a candidate feature set with its precision statistics.
  struct Arm {
    FeatureSet features;
    std::size_t pulls = 0;  // samples drawn
    std::size_t hits = 0;   // samples with |M(α) − M(β)| < ε

    double mean() const { return util::hit_rate(hits, pulls); }
  };

  /// The blocks of one pending broker batch, kept in retained slots: a
  /// sample is drawn into one reused PerturbedBlock and swapped into the
  /// next free slot, so a flush destroys no block and each later draw
  /// reuses the storage of the block it swaps out.
  class SampleBatch {
   public:
    /// Draw Γ(preserve) and keep it unless it is empty.
    void draw(const Perturber& perturber, const FeatureSet& preserve,
              util::Rng& rng) {
      detail::sample_into(perturber, preserve, rng, drawn_);
      if (drawn_.block.empty()) return;
      using std::swap;
      swap(next_slot(), drawn_.block);
    }
    /// Keep a copy of `block` (the target, whose M(β) is queried once).
    void add(const Block& block) { next_slot() = block; }

    std::span<Block> blocks() { return {slots_.data(), live_}; }
    std::size_t size() const { return live_; }
    void clear() { live_ = 0; }

   private:
    Block& next_slot() {
      if (live_ == slots_.size()) slots_.emplace_back();
      return slots_[live_++];
    }

    PerturbedBlock drawn_;
    std::vector<Block> slots_;  // the first live_ hold the batch
    std::size_t live_ = 0;
  };

  /// M(β) through `broker`, with `batch` as the one-block request.
  static double predict_target(Broker& broker, SampleBatch& batch,
                               const Block& block) {
    double base = 0.0;
    batch.add(block);
    broker.predict_batch(batch.blocks(), std::span<double>(&base, 1));
    batch.clear();
    return base;
  }

  const Model& model_;
  Options options_;
};

template <typename Traits>
double AnchorEngine<Traits>::estimate_precision(const Block& block,
                                                const FeatureSet& features,
                                                std::size_t samples,
                                                util::Rng& rng) const {
  const Perturber perturber = Traits::make_perturber(block, options_);
  Broker broker(model_);
  SampleBatch batch;
  const double base = predict_target(broker, batch, block);
  for (std::size_t i = 0; i < samples; ++i) {
    batch.draw(perturber, features, rng);
  }
  std::vector<double> preds(batch.size());
  broker.predict_batch(batch.blocks(), std::span<double>(preds));
  std::size_t hits = 0;
  for (const double p : preds) {
    hits += std::abs(p - base) < options_.epsilon;
  }
  // Precision is estimated over the non-empty perturbations only — the same
  // denominator the search's arm scoring uses (it counts a pull per
  // evaluated sample). Dividing by the requested sample count instead would
  // bias Prec(F) down on blocks whose perturber emits empties.
  return preds.empty()
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(preds.size());
}

template <typename Traits>
double AnchorEngine<Traits>::estimate_coverage(const Block& block,
                                               const FeatureSet& features,
                                               std::size_t samples,
                                               util::Rng& rng) const {
  const Perturber perturber = Traits::make_perturber(block, options_);
  const FeatureSet none;
  PerturbedBlock alpha;  // one reused slot
  std::size_t hits = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    detail::sample_into(perturber, none, rng, alpha);
    hits += perturber.contains(alpha, features);
  }
  return samples ? static_cast<double>(hits) / static_cast<double>(samples)
                 : 0.0;
}

template <typename Traits>
typename AnchorEngine<Traits>::Explanation AnchorEngine<Traits>::explain(
    const Block& block) const {
  // Per-request determinism: the engine owns its RNG, seeded from the
  // caller's options and the block text, and its broker (below) is private
  // to this call — so concurrently served requests are bit-identical to
  // the same requests run sequentially.
  util::Rng rng(options_.seed ^ util::fnv1a64(block.to_string().c_str()));
  const Perturber perturber = Traits::make_perturber(block, options_);
  Broker broker(model_);
  SampleBatch batch;  // the pending broker batch of fused arm pulls

  const double base = predict_target(broker, batch, block);
  // Requested queries, counted with the historical semantics: every sample
  // drawn from Γ costs one query whether or not it reached the model (empty
  // perturbations are skipped, memo hits are served from cache). The true
  // model traffic is in the broker's QueryStats.
  std::size_t queries = 1;

  // Candidate vocabulary P̂ (instruction features, dependency features, η).
  const FeatureSet vocabulary = Traits::extract_features(block, options_);

  // Shared coverage pool: samples from D = Γ(∅).
  std::vector<PerturbedBlock> coverage_pool;
  coverage_pool.reserve(options_.coverage_samples);
  for (std::size_t i = 0; i < options_.coverage_samples; ++i) {
    coverage_pool.push_back(perturber.sample(FeatureSet{}, rng));
  }
  const auto coverage_of = [&](const FeatureSet& fs) {
    if (coverage_pool.empty()) return 0.0;
    std::size_t hits = 0;
    for (const auto& alpha : coverage_pool) {
      hits += perturber.contains(alpha, fs);
    }
    return static_cast<double>(hits) /
           static_cast<double>(coverage_pool.size());
  };

  // Pull a group of arms: each arm draws batch_size samples, in group
  // order, into one pending broker batch (flushed at kMaxFusedBlocks), and
  // every arm is scored on its own slice of the predictions. No arm's
  // samples depend on another arm's score, so the RNG stream, the broker's
  // block sequence and its memo hits are those of one call per arm; only
  // batch_calls differs.
  std::vector<double> preds;
  std::vector<std::size_t> cuts{0};  // cuts[g]..cuts[g+1]: pending arm g
  const auto flush = [&](std::span<Arm* const> pending) {
    preds.resize(batch.size());
    broker.predict_batch(batch.blocks(), std::span<double>(preds));
    for (std::size_t g = 0; g < pending.size(); ++g) {
      for (std::size_t i = cuts[g]; i < cuts[g + 1]; ++i) {
        pending[g]->hits += std::abs(preds[i] - base) < options_.epsilon;
        ++pending[g]->pulls;
      }
    }
    batch.clear();
    cuts.assign(1, 0);
  };
  const auto pull_group = [&](std::span<Arm* const> group) {
    std::size_t first = 0;  // first arm of the pending batch
    for (std::size_t g = 0; g < group.size(); ++g) {
      if (g > first && batch.size() + options_.batch_size > kMaxFusedBlocks) {
        flush(group.subspan(first, g - first));
        first = g;
      }
      for (std::size_t i = 0; i < options_.batch_size; ++i) {
        batch.draw(perturber, group[g]->features, rng);
        ++queries;
      }
      cuts.push_back(batch.size());
    }
    flush(group.subspan(first));
  };
  const auto pull = [&](Arm& arm) {
    Arm* one = &arm;
    pull_group(std::span<Arm* const>(&one, 1));
  };

  const double threshold = 1.0 - options_.delta;
  util::KlRoundBounds round_bounds;  // one KL-LUCB round's bounds
  std::vector<Explanation> anchors_found;
  std::vector<Arm> beam;  // current beam (feature sets of size = level)
  Arm best_effort;        // highest-precision candidate seen anywhere
  double best_effort_mean = -1.0;

  for (std::size_t level = 1; level <= kMaxExplanationSize; ++level) {
    // --- build candidate arms by extending the beam (or singletons). ---
    std::vector<Arm> arms;
    const auto add_candidate = [&](const FeatureSet& fs) {
      for (const auto& a : arms) {
        if (a.features == fs) return;
      }
      Arm arm;
      arm.features = fs;
      arms.push_back(std::move(arm));
    };
    if (level == 1) {
      for (const Feature& f : vocabulary.items()) {
        add_candidate(FeatureSet{}.with(f));
      }
    } else {
      for (const Arm& parent : beam) {
        for (const Feature& f : vocabulary.items()) {
          if (parent.features.contains(f)) continue;
          add_candidate(parent.features.with(f));
        }
      }
    }
    if (arms.empty()) break;

    // --- KL-LUCB: identify the top-B arms by precision. ---
    // Every candidate gets one initial pull, fused (no arm's batch depends
    // on another's result).
    std::vector<Arm*> all_arms(arms.size());
    for (std::size_t i = 0; i < arms.size(); ++i) all_arms[i] = &arms[i];
    pull_group(std::span<Arm* const>(all_arms));
    std::size_t pulls_done = arms.size();
    const std::size_t B = std::min(options_.beam_width, arms.size());
    std::vector<std::size_t> order(arms.size());
    // Uniform-allocation baseline (ablation): spend the same budget
    // round-robin instead of adaptively.
    std::size_t rr = 0;
    while (!options_.use_kl_lucb &&
           pulls_done < options_.max_pulls_per_level) {
      pull(arms[rr++ % arms.size()]);
      ++pulls_done;
    }
    while (options_.use_kl_lucb &&
           pulls_done < options_.max_pulls_per_level) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return arms[a].mean() > arms[b].mean();
      });
      // The round's level is fixed, so arms sharing (hits, pulls) share
      // their bounds: each is computed once per round.
      round_bounds.reset(util::kl_lucb_level(pulls_done, arms.size(),
                                             kLucbConfidenceDelta));
      // Weakest member of the tentative top set.
      std::size_t weakest = order[0];
      double weakest_lb = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < B; ++i) {
        const Arm& a = arms[order[i]];
        const double lb = round_bounds.lower(a.hits, a.pulls);
        if (lb < weakest_lb) {
          weakest_lb = lb;
          weakest = order[i];
        }
      }
      // Strongest challenger outside the top set.
      std::size_t challenger = order[0];
      double challenger_ub = -std::numeric_limits<double>::infinity();
      for (std::size_t i = B; i < order.size(); ++i) {
        const Arm& a = arms[order[i]];
        const double ub = round_bounds.upper(a.hits, a.pulls);
        if (ub > challenger_ub) {
          challenger_ub = ub;
          challenger = order[i];
        }
      }
      if (order.size() <= B ||
          challenger_ub - weakest_lb < kLucbEpsilon) {
        break;
      }
      // The round's separating arms, pulled as one fused batch.
      Arm* separating[2] = {&arms[weakest], &arms[challenger]};
      pull_group(std::span<Arm* const>(separating, 2));
      pulls_done += 2;
    }

    // --- collect valid anchors at this level. ---
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return arms[a].mean() > arms[b].mean();
    });
    const double verify_beta = std::log(1.0 / kLucbConfidenceDelta);
    for (std::size_t i = 0; i < std::min(B, order.size()); ++i) {
      Arm& arm = arms[order[i]];
      if (arm.mean() > best_effort_mean) {
        best_effort_mean = arm.mean();
        best_effort = arm;
      }
      if (arm.mean() < threshold) continue;
      // Firm up the estimate before accepting the anchor; the bound is
      // computed once per pull and also decides acceptance below.
      double verify_lb = util::kl_lower_bound(arm.mean(), arm.pulls,
                                              verify_beta);
      while (arm.pulls < options_.final_precision_samples &&
             verify_lb < threshold) {
        pull(arm);
        verify_lb = util::kl_lower_bound(arm.mean(), arm.pulls, verify_beta);
      }
      // Acceptance is a KL-lower-bound gate: the anchor's estimated
      // precision must clear the threshold with high confidence, not
      // merely on its raw mean (kl_lower_bound(mean, ...) <= mean always,
      // so also accepting on "mean >= threshold" would make the
      // verification dead code). Exhausting the firm-up budget without
      // separation rejects the anchor at this level; a zero
      // final_precision_samples budget disables verification entirely and
      // falls back to the raw-mean rule (RvExplainOptions pins 0: the
      // analytical RV model is exact, so extra pulls add queries without
      // information).
      if (verify_lb >= threshold || options_.final_precision_samples == 0) {
        Explanation e;
        e.features = arm.features;
        e.precision = arm.mean();
        e.coverage = coverage_of(arm.features);
        e.met_threshold = true;
        anchors_found.push_back(std::move(e));
      }
    }
    if (!anchors_found.empty()) break;  // smallest size wins (simplicity)

    // --- next beam. ---
    beam.clear();
    for (std::size_t i = 0; i < std::min(B, order.size()); ++i) {
      beam.push_back(arms[order[i]]);
    }
  }

  Explanation result;
  if (!anchors_found.empty()) {
    // Maximum coverage among valid anchors (eq. 7).
    const auto best = std::max_element(
        anchors_found.begin(), anchors_found.end(),
        [](const Explanation& a, const Explanation& b) {
          return a.coverage < b.coverage;
        });
    result = *best;
  } else {
    // Best effort: highest-precision candidate seen.
    result.features = best_effort.features;
    result.precision = best_effort.mean();
    result.coverage = coverage_of(best_effort.features);
    result.met_threshold = false;
  }
  result.model_queries = queries;
  result.query_stats = broker.stats();
  return result;
}

}  // namespace comet::core
