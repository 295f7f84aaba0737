// Reproduces Table 2 of the paper: cold-start RMSE/MAE of all seven methods
// on the six cross-domain scenarios of the Amazon-like corpus.
//
//   ./build/bench/table2_amazon [--trials=1] [--seed=99]

#include <cstdio>

#include "bench_util.h"
#include "data/synthetic.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  eval::RunnerOptions options;
  options.trials = flags.GetInt("trials", 1);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 99));

  std::printf(
      "Table 2 — Amazon-like corpus, %d trial(s) per scenario "
      "(paper: Table 2, §5.5)\n",
      options.trials);
  std::vector<eval::ScenarioResult> results;
  for (const auto& [source, target] : eval::PaperScenarios()) {
    results.push_back(eval::RunScenario(world, source, target, options));
    std::fprintf(stderr, "  done %s\n", results.back().scenario.c_str());
  }
  bench::PrintScenarioTable(results);
  return 0;
}
