// RemoteStandInModel: a cost model with a simulated backend round-trip.
//
// The serving layer's throughput levers — request-level concurrency in the
// ExplanationServer, round-trip elision by the engine's fused arm pulls —
// pay off when a model query has latency that is not this process's CPU: a
// remote inference service, a cycle-accurate simulator farm, a hardware
// measurement rig. This wrapper makes that regime reproducible on any
// machine (including single-core CI) by charging a fixed wall-clock
// round-trip per predict/predict_batch call before delegating to the
// wrapped model. Predictions are untouched, so explanations stay
// bit-identical to the unwrapped model's.
//
// Used by bench_serving_throughput and serve_demo; never by tests that
// assert timing-independent behavior.
#pragma once

#include <chrono>
#include <memory>
#include <span>
#include <string>

#include "cost/cost_model.h"

namespace comet::serve {

class RemoteStandInModel final : public cost::CostModel {
 public:
  RemoteStandInModel(std::shared_ptr<const cost::CostModel> inner,
                     std::chrono::microseconds round_trip);

  double predict(const x86::BasicBlock& block) const override;
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) const override;
  /// "remote(<inner model name>)".
  std::string name() const override;

  std::chrono::microseconds round_trip() const { return round_trip_; }

 private:
  std::shared_ptr<const cost::CostModel> inner_;
  std::chrono::microseconds round_trip_;
};

}  // namespace comet::serve
