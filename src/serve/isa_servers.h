// Ready-made ExplanationServer instantiations for both ISAs.
//
// The server template is ISA-generic for the same reason the engine is
// (paper Section 7's portability claim): nothing in scheduling, flow
// control, or result delivery mentions the ISA. These aliases are the
// served path of both explainers — register models, submit (block,
// model-key, options) jobs, collect completion-ordered explanations.
//
//   serve::X86ExplanationServer server({.workers = 4});
//   server.register_model("crude-hsw", crude);        // a local model
//   server.register_model("ithemal-hsw", remote);     // or a RemoteShardClient
//   server.submit("crude-hsw", block, options);
//   while (auto r = server.next()) { ... }
#pragma once

#include "core/comet.h"
#include "riscv/explain.h"
#include "serve/explanation_server.h"

namespace comet::serve {

/// Serves x86 jobs against any cost::CostModel (including a
/// RemoteShardClient); one model key per registered (model kind, µarch)
/// instance.
using X86ExplanationServer = ExplanationServer<core::X86AnchorTraits>;

/// Serves RISC-V jobs against RvCostModel instances.
using RvExplanationServer = ExplanationServer<riscv::RvAnchorTraits>;

// Both servers are compiled once, in serve/isa_servers.cpp; every other
// file links those copies.
extern template class ExplanationServer<core::X86AnchorTraits>;
extern template class ExplanationServer<riscv::RvAnchorTraits>;

}  // namespace comet::serve
