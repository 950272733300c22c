// Ablation: KL-LUCB adaptive arm allocation vs a
// uniform round-robin baseline, at equal per-level pull budgets.
//
// COMET adopts Anchors' KL-LUCB best-arm identification to concentrate
// model queries on the feature sets whose confidence intervals actually
// gate the beam. The ablation holds the budget fixed and toggles only the
// allocation policy; the adaptive policy should dominate at small budgets
// and converge with the baseline as the budget grows.
#include "bench/bench_common.h"
#include "cost/crude_model.h"

using namespace comet;

int main() {
  const std::size_t n_blocks = bench::scaled(40);
  bench::print_header(
      "Ablation: KL-LUCB vs uniform arm allocation, C_HSW",
      "blocks=" + std::to_string(n_blocks) +
          ", budgets are per-level pull caps");

  const auto& dataset = core::zoo_dataset();
  const auto test_set =
      bhive::explanation_test_set(dataset, n_blocks, /*seed=*/71);
  const cost::CrudeModel model(cost::MicroArch::Haswell);

  util::Table table(
      {"pull budget/level", "KL-LUCB acc (%)", "uniform acc (%)"});
  for (const std::size_t budget : {40u, 80u, 160u}) {
    double acc[2];
    for (const bool lucb : {true, false}) {
      core::CometOptions opt = bench::crude_options();
      opt.max_pulls_per_level = budget;
      opt.use_kl_lucb = lucb;
      const auto r =
          core::run_accuracy_experiment(model, test_set, opt, /*seed=*/3);
      acc[lucb ? 0 : 1] = r.comet_pct;
    }
    table.add_row({std::to_string(budget), util::Table::fmt(acc[0], 1),
                   util::Table::fmt(acc[1], 1)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "Expected: adaptive allocation matches or beats uniform at every "
      "budget,\nwith the gap largest at the smallest budget.\n");
  return 0;
}
