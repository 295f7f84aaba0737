// Reproduces Table 6 of the paper: wall-clock training time of the full
// model vs. removing the Domain Adversarial (DA) module or the Supervised
// Contrastive Learning (SCL) module, on two scenarios.
//
//   ./build/bench/table6_timing [--seed=99]

#include <cstdio>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/table.h"

using namespace omnimatch;

namespace {

double TrainSeconds(const data::CrossDomainDataset& cross,
                    const data::ColdStartSplit& split,
                    const core::OmniMatchConfig& config) {
  core::OmniMatchTrainer trainer(config, &cross, split);
  Status status = trainer.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "Prepare failed: %s\n", status.ToString().c_str());
    return 0.0;
  }
  return trainer.Train().train_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 99));

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  const std::vector<std::pair<std::string, std::string>> scenarios = {
      {"Books", "Music"}, {"Movies", "Music"}};

  std::printf(
      "Table 6 — training time with modules removed "
      "(paper: Table 6, §5.9; minutes on an A100 there, seconds on CPU "
      "here — the *ratios* are the reproduced quantity)\n");
  eval::AsciiTable table;
  table.SetHeader({"Scenario", "Full Model", "w/o DA", "w/o SCL"});
  for (const auto& [source, target] : scenarios) {
    data::CrossDomainDataset cross = world.MakePair(source, target);
    Rng split_rng(seed);
    data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

    core::OmniMatchConfig full;
    full.seed = seed;
    // Timing comparisons want identical epoch counts, not best-epoch extras.
    full.select_best_epoch = false;
    full.epochs = flags.GetInt("epochs", 8);

    core::OmniMatchConfig no_da = full;
    no_da.use_domain_adversarial = false;
    core::OmniMatchConfig no_scl = full;
    no_scl.use_scl = false;

    double t_full = TrainSeconds(cross, split, full);
    double t_no_da = TrainSeconds(cross, split, no_da);
    double t_no_scl = TrainSeconds(cross, split, no_scl);
    table.AddRow({cross.ScenarioName(),
                  StrFormat("%.1f s", t_full),
                  StrFormat("%.1f s (x%.2f)", t_no_da, t_no_da / t_full),
                  StrFormat("%.1f s (x%.2f)", t_no_scl, t_no_scl / t_full)});
    std::fprintf(stderr, "  done %s\n", cross.ScenarioName().c_str());
  }
  std::printf("%s", table.Render().c_str());
  return 0;
}
