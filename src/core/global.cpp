#include "core/global.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "graph/depgraph.h"
#include "util/table.h"

namespace comet::core {

namespace {

/// Precision threshold is 1 − δ.
constexpr double kDelta = 0.3;
/// Beam width of the one-feature candidates that are extended to pairs.
constexpr std::size_t kBeamWidth = 8;
/// Features and pairs rarer than this in the corpus are ignored (unless
/// they hold for every in-set block).
constexpr std::size_t kMinSupport = 3;

}  // namespace

std::string GlobalFeature::to_string() const {
  if (const auto* f = std::get_if<HasOpcode>(&v_)) {
    return "has(" + std::string(x86::mnemonic(f->op)) + ")";
  }
  if (const auto* f = std::get_if<HasOpClass>(&v_)) {
    return "has-class(" + std::string(x86::op_class_name(f->cls)) + ")";
  }
  if (const auto* f = std::get_if<HasDepKind>(&v_)) {
    return "has-dep(" + graph::dep_kind_name(f->kind) + ")";
  }
  return "eta=" + std::to_string(std::get<NumInstsEquals>(v_).count);
}

std::string GlobalExplanation::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i > 0) out += ", ";
    out += features[i].to_string();
  }
  out += "} (prec=" + util::Table::fmt(precision, 2) +
         ", recall=" + util::Table::fmt(recall, 2) +
         ", support=" + std::to_string(support) + ")";
  return out;
}

GlobalExplainer::GlobalExplainer(const cost::CostModel& model,
                                 std::span<const x86::BasicBlock> corpus) {
  if (corpus.empty()) {
    throw std::invalid_argument("GlobalExplainer: empty corpus");
  }
  profiles_.reserve(corpus.size());
  for (const auto& block : corpus) {
    BlockProfile p;
    p.opcode_present.assign(x86::kNumOpcodes, false);
    for (const auto& inst : block.instructions) {
      p.opcode_present[static_cast<std::size_t>(inst.opcode)] = true;
      p.classes |= 1u << static_cast<unsigned>(x86::info(inst.opcode).cls);
    }
    const auto dep_graph = graph::DepGraph::build(block);
    for (const auto& e : dep_graph.edges()) {
      p.dep_kinds |= 1u << static_cast<unsigned>(e.kind);
    }
    p.num_insts = block.size();
    profiles_.push_back(std::move(p));
  }
  // The one model sweep of a global explanation, issued as a single batch.
  predictions_.resize(corpus.size());
  model.predict_batch(corpus, std::span<double>(predictions_));
}

bool GlobalExplainer::holds(const BlockProfile& p,
                            const GlobalFeature& f) const {
  // Evaluated thousands of times per explanation, so it dispatches on the
  // precomputed profile instead of re-walking the block.
  struct Probe {
    const BlockProfile& p;
    bool operator()(const GlobalFeature::HasOpcode& f) const {
      return p.opcode_present[static_cast<std::size_t>(f.op)];
    }
    bool operator()(const GlobalFeature::HasOpClass& f) const {
      return (p.classes >> static_cast<unsigned>(f.cls)) & 1u;
    }
    bool operator()(const GlobalFeature::HasDepKind& f) const {
      return (p.dep_kinds >> static_cast<unsigned>(f.kind)) & 1u;
    }
    bool operator()(const GlobalFeature::NumInstsEquals& f) const {
      return p.num_insts == f.count;
    }
  };
  return std::visit(Probe{p}, f.value());
}

GlobalExplanation GlobalExplainer::explain_range(double lo, double hi) const {
  // In-set membership per corpus block.
  std::vector<bool> in_set(predictions_.size());
  std::size_t n_in = 0;
  for (std::size_t i = 0; i < predictions_.size(); ++i) {
    in_set[i] = predictions_[i] >= lo && predictions_[i] <= hi;
    n_in += in_set[i];
  }
  if (n_in == 0) {
    throw std::invalid_argument(
        "GlobalExplainer::explain_range: no corpus block predicts in range");
  }

  // Candidate vocabulary: every feature that holds for at least one in-set
  // block (anything else has zero recall by construction).
  std::set<GlobalFeature> vocabulary;
  for (std::size_t i = 0; i < predictions_.size(); ++i) {
    if (!in_set[i]) continue;
    const BlockProfile& p = profiles_[i];
    for (std::size_t op = 0; op < x86::kNumOpcodes; ++op) {
      if (p.opcode_present[op]) {
        vocabulary.insert(GlobalFeature(
            GlobalFeature::HasOpcode{static_cast<x86::Opcode>(op)}));
      }
    }
    for (unsigned c = 0; c < 32; ++c) {
      if ((p.classes >> c) & 1u) {
        vocabulary.insert(GlobalFeature(
            GlobalFeature::HasOpClass{static_cast<x86::OpClass>(c)}));
      }
    }
    for (unsigned k = 0; k < 3; ++k) {
      if ((p.dep_kinds >> k) & 1u) {
        vocabulary.insert(GlobalFeature(
            GlobalFeature::HasDepKind{static_cast<graph::DepKind>(k)}));
      }
    }
    vocabulary.insert(
        GlobalFeature(GlobalFeature::NumInstsEquals{p.num_insts}));
  }

  // Stats of a conjunction over the whole corpus.
  const auto evaluate = [&](const std::vector<GlobalFeature>& conj) {
    GlobalExplanation e;
    e.features = conj;
    std::size_t hold = 0, hold_in = 0;
    for (std::size_t i = 0; i < predictions_.size(); ++i) {
      const bool all = std::all_of(
          conj.begin(), conj.end(),
          [&](const GlobalFeature& f) { return holds(profiles_[i], f); });
      if (!all) continue;
      ++hold;
      if (in_set[i]) ++hold_in;
    }
    e.support = hold;
    e.precision = hold > 0 ? double(hold_in) / double(hold) : 0.0;
    e.recall = double(hold_in) / double(n_in);
    e.met_threshold = e.precision >= 1.0 - kDelta;
    return e;
  };

  // Beam search over conjunctions of at most two features: rank by
  // precision (recall as the tie-break) while below the threshold; track the
  // best thresholded candidate by recall (then simplicity).
  const auto better_candidate = [](const GlobalExplanation& a,
                                   const GlobalExplanation& b) {
    if (a.precision != b.precision) return a.precision > b.precision;
    return a.recall > b.recall;
  };
  const auto better_answer = [](const GlobalExplanation& a,
                                const GlobalExplanation& b) {
    if (a.recall != b.recall) return a.recall > b.recall;
    return a.features.size() < b.features.size();
  };

  GlobalExplanation best;  // highest precision overall (fallback)
  bool have_best = false;
  GlobalExplanation answer;  // best thresholded
  bool have_answer = false;
  // Tracks a candidate; false when it lacks the minimum support.
  const auto consider = [&](const GlobalExplanation& e) {
    if (e.support < kMinSupport && e.support < n_in) return false;
    if (!have_best || better_candidate(e, best)) {
      best = e;
      have_best = true;
    }
    if (e.met_threshold && (!have_answer || better_answer(e, answer))) {
      answer = e;
      have_answer = true;
    }
    return true;
  };

  std::vector<GlobalExplanation> beam;
  for (const auto& f : vocabulary) {
    GlobalExplanation e = evaluate({f});
    if (consider(e)) beam.push_back(std::move(e));
  }
  std::sort(beam.begin(), beam.end(), better_candidate);
  if (beam.size() > kBeamWidth) beam.resize(kBeamWidth);

  for (const auto& base : beam) {
    for (const auto& f : vocabulary) {
      if (f == base.features.front()) continue;
      std::vector<GlobalFeature> conj = {base.features.front(), f};
      std::sort(conj.begin(), conj.end());
      const GlobalExplanation e = evaluate(conj);
      // A conjunction must actually sharpen its parent.
      if (e.precision > base.precision) consider(e);
    }
  }

  if (have_answer) return answer;
  if (have_best) return best;
  throw std::runtime_error(
      "GlobalExplainer::explain_range: no candidate with minimum support");
}

}  // namespace comet::core
