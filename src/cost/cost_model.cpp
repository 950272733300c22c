#include "cost/cost_model.h"

#include "util/contract.h"

namespace comet::cost {

void CostModel::predict_batch(std::span<const x86::BasicBlock> blocks,
                              std::span<double> out) const {
  COMET_CHECK_MSG(blocks.size() == out.size(),
                  "predict_batch: " << blocks.size() << " blocks but "
                                    << out.size() << " output slots");
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    out[i] = predict(blocks[i]);
  }
}

}  // namespace comet::cost
