// serve_demo: a concurrent multi-model explanation sweep through the full
// serving stack — scheduler → per-model-kind pools → shards → models.
//
// Registers four x86 cost models (a 2-shard crude pool, the hardware
// oracle, uiCA, and llvm-mca stand-ins), streams one explanation job per
// (paper block, model kind) pair through a 4-worker ExplanationServer,
// prints results as they complete (completion order, not submission
// order), and finishes with the per-model query-traffic drain report.
// A second section serves RISC-V jobs through the same scheduler template
// — the served path is ISA-generic, like the engine underneath it.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bhive/paper_blocks.h"
#include "cost/crude_model.h"
#include "riscv/parser.h"
#include "serve/isa_servers.h"
#include "serve/sharded_cost_model.h"
#include "sim/models.h"

namespace cb = comet::bhive;
namespace cc = comet::core;
namespace ck = comet::cost;
namespace cs = comet::serve;
namespace cx = comet::x86;
namespace rv = comet::riscv;

namespace {

cc::CometOptions demo_options(std::uint64_t seed) {
  cc::CometOptions opt;
  opt.epsilon = 0.5;
  opt.coverage_samples = 300;
  opt.batch_size = 8;
  opt.max_pulls_per_level = 48;
  opt.final_precision_samples = 64;
  opt.seed = seed;
  return opt;
}

}  // namespace

int main() {
  std::printf("== concurrent multi-model explanation sweep (x86) ==\n");

  // One model key per registered backend; the crude model is served from a
  // 2-shard broker pool (per-shard model instance + memo cache).
  auto sharded_crude = std::make_shared<const cs::ShardedCostModel>(
      [](std::size_t) {
        return std::make_shared<const ck::CrudeModel>(ck::MicroArch::Haswell);
      },
      /*shards=*/2);
  auto oracle =
      std::make_shared<const comet::sim::HardwareOracle>(ck::MicroArch::Haswell);
  auto uica =
      std::make_shared<const comet::sim::UiCASimModel>(ck::MicroArch::Haswell);
  auto mca =
      std::make_shared<const comet::sim::McaLikeModel>(ck::MicroArch::Haswell);

  cs::X86ExplanationServer server({.workers = 4, .queue_capacity = 16});
  server.register_model("crude-hsw[2shards]", sharded_crude);
  server.register_model("oracle-hsw", oracle);
  server.register_model("uica-hsw", uica);
  server.register_model("mca-hsw", mca);

  const std::vector<std::pair<std::string, cx::BasicBlock>> jobs_blocks = {
      {"listing1", cb::listing1_motivating()},
      {"listing2", cb::listing2_case_study1()},
      {"listing3", cb::listing3_case_study2()},
  };
  const std::vector<std::string> keys = {"crude-hsw[2shards]", "oracle-hsw",
                                         "uica-hsw", "mca-hsw"};

  std::vector<std::string> label_of;  // label_of[ticket - 1]
  std::uint64_t seed = 1;
  for (const auto& [block_name, block] : jobs_blocks) {
    for (const auto& key : keys) {
      server.submit(key, block, demo_options(seed++));
      label_of.push_back(block_name);
    }
  }
  std::printf("submitted %zu jobs on 4 workers; streaming completions:\n\n",
              label_of.size());

  while (auto served = server.next()) {
    std::printf("  [done #%llu] %-9s @ %-18s -> %s\n",
                static_cast<unsigned long long>(served->id),
                label_of[served->id - 1].c_str(), served->model_key.c_str(),
                served->explanation.to_string().c_str());
  }

  std::printf("\nper-model drain report (merged QueryStats):\n%s",
              server.report().c_str());

  // The server's whole metrics surface — lifecycle counters, queue gauges,
  // per-model latency histograms — as one JSON snapshot (what a monitoring
  // hook would export; server.metrics_text() is the Prometheus twin).
  std::printf("\nmetrics snapshot (JSON):\n%s\n",
              server.metrics_json().c_str());

  std::printf("\n== the same scheduler, serving RISC-V ==\n");
  auto rv_model = std::make_shared<const rv::RvCostModel>();
  rv::RvExplainOptions rv_options;
  rv_options.coverage_samples = 300;

  cs::RvExplanationServer rv_server({.workers = 2, .queue_capacity = 8});
  rv_server.register_model("crude-rv64", rv_model);
  const std::vector<rv::BasicBlock> rv_blocks = {
      rv::parse_block("add a0, a1, a2\ndiv a3, a0, a4\naddi a5, a3, 1"),
      rv::parse_block("lw a0, 0(a1)\nadd a2, a0, a3\nsw a2, 4(a1)"),
  };
  for (const auto& block : rv_blocks) {
    rv_server.submit("crude-rv64", block, rv_options);
  }
  for (const auto& served : rv_server.drain()) {
    std::printf("  [done #%llu] crude-rv64 -> %s (prec=%.3f, cov=%.3f)\n",
                static_cast<unsigned long long>(served.id),
                served.explanation.features.to_string().c_str(),
                served.explanation.precision, served.explanation.coverage);
  }
  std::printf("\nrv drain report:\n%s", rv_server.report().c_str());
  return 0;
}
