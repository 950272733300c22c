#include "sim/models.h"

#include "util/rng.h"

namespace comet::sim {

HardwareOracle::HardwareOracle(cost::MicroArch uarch) : uarch_(uarch) {
  options_ = SimOptions{};  // full-detail configuration
}

double HardwareOracle::predict(const x86::BasicBlock& block) const {
  return simulate_throughput(block, uarch_, options_);
}

std::string HardwareOracle::name() const {
  return "oracle-" + cost::uarch_name(uarch_);
}

UiCASimModel::UiCASimModel(cost::MicroArch uarch) : uarch_(uarch) {
  // Coarsened parameters: integer-rounded latencies biased slightly high
  // and a pessimistic divider. Keeps uiCA's error small but nonzero.
  options_ = SimOptions{};
  options_.latency_scale = 1.05;
  options_.round_latencies = true;
  options_.div_occupancy_extra = 1.0;
}

double UiCASimModel::predict(const x86::BasicBlock& block) const {
  return simulate_throughput(block, uarch_, options_);
}

std::string UiCASimModel::name() const {
  return "uica-" + cost::uarch_name(uarch_);
}

McaLikeModel::McaLikeModel(cost::MicroArch uarch) : uarch_(uarch) {
  // Static-analysis style: no loop-carried dependencies, no zero idioms.
  options_ = SimOptions{};
  options_.model_loop_carried = false;
  options_.zero_idiom = false;
  options_.round_latencies = true;
}

double McaLikeModel::predict(const x86::BasicBlock& block) const {
  return simulate_throughput(block, uarch_, options_);
}

std::string McaLikeModel::name() const {
  return "mca-" + cost::uarch_name(uarch_);
}

double measured_throughput(const x86::BasicBlock& block,
                           cost::MicroArch uarch) {
  const HardwareOracle oracle(uarch);
  const double base = oracle.predict(block);
  // Deterministic per-block measurement noise in [-2%, +2%].
  const std::string text =
      block.to_string() + cost::uarch_name(uarch);
  util::Rng rng(util::fnv1a64(text.data(), text.size()));
  return base * (1.0 + 0.02 * (2.0 * rng.uniform() - 1.0));
}

}  // namespace comet::sim
