#include "graph/features.h"

#include <map>
#include <tuple>

namespace comet::graph {

FeatureSet extract_features(const x86::BasicBlock& block,
                            const DepGraphOptions& options) {
  std::vector<Feature> features;
  for (std::size_t i = 0; i < block.size(); ++i) {
    features.push_back(
        Feature(InstFeature{i, block.instructions[i].opcode}));
  }
  const DepGraph g = DepGraph::build(block, options);
  // Hazards of different kinds between the same pair carried by the same
  // resource are perturbation-equivalent: the perturbation algorithm cannot
  // retain one while breaking the other, so as explanation features they are
  // indistinguishable. Collapse each (pair, carrier) group to its strongest
  // kind (RAW > WAW > WAR) to keep the explanation vocabulary identifiable.
  const auto strength = [](DepKind k) {
    switch (k) {
      case DepKind::RAW: return 2;
      case DepKind::WAW: return 1;
      case DepKind::WAR: return 0;
    }
    return 0;
  };
  std::map<std::tuple<std::size_t, std::size_t, DepResource, x86::RegFamily>,
           DepKind>
      strongest;
  for (const auto& e : g.edges()) {
    const auto key = std::make_tuple(e.from, e.to, e.resource, e.family);
    const auto it = strongest.find(key);
    if (it == strongest.end() || strength(e.kind) > strength(it->second)) {
      strongest[key] = e.kind;
    }
  }
  for (const auto& [key, kind] : strongest) {
    features.push_back(
        Feature(DepFeature{std::get<0>(key), std::get<1>(key), kind}));
  }
  features.push_back(Feature(NumInstsFeature{block.size()}));
  return FeatureSet(std::move(features));
}

}  // namespace comet::graph
