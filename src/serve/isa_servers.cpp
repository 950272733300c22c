// The one compiled copy of each ISA's explanation server
// (serve/isa_servers.h declares them `extern template`, so no other file
// instantiates them).
#include "serve/isa_servers.h"

namespace comet::serve {

template class ExplanationServer<core::X86AnchorTraits>;
template class ExplanationServer<riscv::RvAnchorTraits>;

}  // namespace comet::serve
