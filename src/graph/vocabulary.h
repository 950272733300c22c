// The ISA-neutral explanation vocabulary: block features P̂ (paper Figure
// 1(iii), Section 5.1), feature sets, and positional perturbed blocks.
//
// COMET composes its explanations from three feature types:
//   * an instruction of the block (identified by original position and
//     opcode — "instruction 2: mov"),
//   * a data dependency between two instructions (identified by the
//     positions of its endpoints and the hazard kind),
//   * the number of instructions η of the block.
//
// Only the opcode type names an ISA (paper Section 7: the formalism is
// ISA-portable), so each piece is written once here and instantiated per
// ISA — graph/features.h and perturb/perturber.h bind it to x86,
// riscv/graph.h and riscv/perturb.h to RISC-V. Rendering finds the ISA's
// `mnemonic(op)` by argument-dependent lookup. This header includes no
// ISA header (comet-lint's isa-include rule).
//
// Features are positional: perturbed blocks carry a mapping from their
// instructions back to original positions (PerturbedBlockOf), so "does
// perturbed block α still contain feature f" — the containment test that
// defines coverage — is well defined even after deletions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace comet::graph {

/// Data-dependency hazard kinds (paper Appendix B).
enum class DepKind : std::uint8_t { RAW, WAR, WAW };

inline std::string dep_kind_name(DepKind kind) {
  switch (kind) {
    case DepKind::RAW: return "RAW";
    case DepKind::WAR: return "WAR";
    case DepKind::WAW: return "WAW";
  }
  return "?";
}

/// "Instruction at original position `index` has opcode `opcode`."
template <typename Opcode>
struct InstFeatureOf {
  std::size_t index = 0;
  Opcode opcode{};
  auto operator<=>(const InstFeatureOf&) const = default;
};

/// "A hazard of `kind` exists from original position `from` to `to`."
/// Edges that differ only in carrying resource are collapsed into one
/// feature: the explanation vocabulary names the dependency, not the
/// register that carries it.
struct DepFeature {
  std::size_t from = 0;
  std::size_t to = 0;
  DepKind kind = DepKind::RAW;
  auto operator<=>(const DepFeature&) const = default;
};

/// "The block has exactly `count` instructions."
struct NumInstsFeature {
  std::size_t count = 0;
  auto operator<=>(const NumInstsFeature&) const = default;
};

/// Coarse feature-type tags used in the paper's utility analysis (Figures
/// 2-4): η is coarse-grained; inst and δ are fine-grained. The order is
/// the variant order of FeatureOf, and so the feature sort order.
enum class FeatureType : std::uint8_t { Inst, Dep, NumInsts };

template <typename Opcode>
class FeatureOf {
 public:
  using InstFeature = InstFeatureOf<Opcode>;

  FeatureOf() : v_(NumInstsFeature{}) {}
  explicit FeatureOf(InstFeature f) : v_(f) {}
  explicit FeatureOf(DepFeature f) : v_(f) {}
  explicit FeatureOf(NumInstsFeature f) : v_(f) {}

  FeatureType type() const { return static_cast<FeatureType>(v_.index()); }
  bool is_inst() const { return type() == FeatureType::Inst; }
  bool is_dep() const { return type() == FeatureType::Dep; }
  bool is_num_insts() const { return type() == FeatureType::NumInsts; }

  const InstFeature& as_inst() const { return std::get<InstFeature>(v_); }
  const DepFeature& as_dep() const { return std::get<DepFeature>(v_); }
  const NumInstsFeature& as_num_insts() const {
    return std::get<NumInstsFeature>(v_);
  }

  /// Short name, e.g. "inst2(mov)", "RAW(1->2)", "eta(3)".
  std::string to_string() const;

  auto operator<=>(const FeatureOf&) const = default;

 private:
  std::variant<InstFeature, DepFeature, NumInstsFeature> v_;
};

/// An ordered, duplicate-free set of features.
template <typename Opcode>
class FeatureSetOf {
 public:
  using Feature = FeatureOf<Opcode>;

  FeatureSetOf() = default;
  explicit FeatureSetOf(std::vector<Feature> features);

  void insert(const Feature& f);
  bool contains(const Feature& f) const;
  bool is_subset_of(const FeatureSetOf& other) const;
  std::size_t size() const { return features_.size(); }
  bool empty() const { return features_.empty(); }
  const std::vector<Feature>& items() const { return features_; }

  /// Set union.
  FeatureSetOf with(const Feature& f) const;

  std::string to_string() const;

  bool operator==(const FeatureSetOf&) const = default;

 private:
  std::vector<Feature> features_;  // kept sorted & unique
};

/// A perturbed block plus the mapping from each of its instructions back to
/// the original position in β (deleted instructions simply have no entry).
/// The mapping makes positional feature containment well defined.
template <typename Block>
struct PerturbedBlockOf {
  Block block;
  std::vector<std::size_t> orig_index;

  /// Position of original instruction `orig` in the perturbed block, or
  /// npos if it was deleted.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t position_of(std::size_t orig) const {
    for (std::size_t k = 0; k < orig_index.size(); ++k) {
      if (orig_index[k] == orig) return k;
    }
    return npos;
  }
};

template <typename Opcode>
std::string FeatureOf<Opcode>::to_string() const {
  switch (type()) {
    case FeatureType::Inst: {
      const auto& f = as_inst();
      return "inst" + std::to_string(f.index + 1) + "(" +
             std::string(mnemonic(f.opcode)) + ")";
    }
    case FeatureType::Dep: {
      const auto& f = as_dep();
      return dep_kind_name(f.kind) + "(" + std::to_string(f.from + 1) +
             "->" + std::to_string(f.to + 1) + ")";
    }
    case FeatureType::NumInsts:
      return "eta(" + std::to_string(as_num_insts().count) + ")";
  }
  return "?";
}

template <typename Opcode>
FeatureSetOf<Opcode>::FeatureSetOf(std::vector<Feature> features)
    : features_(std::move(features)) {
  std::sort(features_.begin(), features_.end());
  features_.erase(std::unique(features_.begin(), features_.end()),
                  features_.end());
}

template <typename Opcode>
void FeatureSetOf<Opcode>::insert(const Feature& f) {
  const auto it = std::lower_bound(features_.begin(), features_.end(), f);
  if (it != features_.end() && *it == f) return;
  features_.insert(it, f);
}

template <typename Opcode>
bool FeatureSetOf<Opcode>::contains(const Feature& f) const {
  return std::binary_search(features_.begin(), features_.end(), f);
}

template <typename Opcode>
bool FeatureSetOf<Opcode>::is_subset_of(const FeatureSetOf& other) const {
  return std::includes(other.features_.begin(), other.features_.end(),
                       features_.begin(), features_.end());
}

template <typename Opcode>
FeatureSetOf<Opcode> FeatureSetOf<Opcode>::with(const Feature& f) const {
  FeatureSetOf out = *this;
  out.insert(f);
  return out;
}

template <typename Opcode>
std::string FeatureSetOf<Opcode>::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (i) out += ", ";
    out += features_[i].to_string();
  }
  return out + "}";
}

}  // namespace comet::graph
