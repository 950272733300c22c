#include "cost/cost_model.h"

#include "util/contract.h"

namespace comet::cost {

namespace {
/// open_session()'s default: every batch goes straight to the model.
class ForwardingSession final : public ModelSession {
 public:
  explicit ForwardingSession(const CostModel& model) : model_(&model) {}
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) override {
    model_->predict_batch(blocks, out);
  }

 private:
  const CostModel* model_;
};
}  // namespace

void CostModel::predict_batch(std::span<const x86::BasicBlock> blocks,
                              std::span<double> out) const {
  COMET_CHECK_MSG(blocks.size() == out.size(),
                  "predict_batch: " << blocks.size() << " blocks but "
                                    << out.size() << " output slots");
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    out[i] = predict(blocks[i]);
  }
}

std::unique_ptr<ModelSession> CostModel::open_session() const {
  return std::make_unique<ForwardingSession>(*this);
}

}  // namespace comet::cost
