// The one compiled copy of the RISC-V explainer (riscv/explain.h declares
// it `extern template`, so no other file instantiates it).
#include "riscv/explain.h"

namespace comet::core {

template class AnchorEngine<riscv::RvAnchorTraits>;

}  // namespace comet::core
