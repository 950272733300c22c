// The one compiled copy of the x86 explainer (core/comet.h declares it
// `extern template`, so no other file instantiates it).
#include "core/comet.h"

namespace comet::core {

template class AnchorEngine<X86AnchorTraits>;

}  // namespace comet::core
