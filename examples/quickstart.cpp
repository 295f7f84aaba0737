// Quickstart: generate a synthetic cross-domain corpus, train OmniMatch on
// the Books -> Movies scenario, and evaluate cold-start users.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--epochs=8] [--seed=7] [--verbose]
//
// Crash-safe training: add --checkpoint_every=2 --checkpoint_dir=ckpt to
// save a resumable checkpoint every 2 epochs, and --resume (latest in the
// checkpoint dir) or --resume=path/to/checkpoint_epoch4.omck to continue a
// killed run bit-for-bit.
//
// Self-healing training: the numerical-health guard is on by default
// (disable with --guard=false); tune --max_recoveries=3 --lr_backoff=0.5.
// Rehearse a failure with deterministic fault injection, e.g.
//   --faults="grad@5" (NaN gradient at step 5) or
//   --faults="loss@8:mag=20" (20x loss spike at step 8).
//
// Observability: --metrics_out=metrics.jsonl writes a JSONL snapshot of the
// phase histograms / pool counters when training finishes;
// --trace_out=trace.json writes a Chrome trace_event file — open it in
// chrome://tracing or https://ui.perfetto.dev to see the per-step timeline.

#include <cstdio>

#include "common/flags.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "eval/table.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  Status parse_status = flags.Parse(argc, argv);
  if (!parse_status.ok()) {
    std::fprintf(stderr, "%s\n", parse_status.ToString().c_str());
    return 1;
  }
  ApplyThreadsFlag(flags);
  Status fault_status = ApplyFaultsFlag(flags);
  if (!fault_status.ok()) {
    std::fprintf(stderr, "--faults: %s\n", fault_status.ToString().c_str());
    return 1;
  }

  // 1. Generate a small Amazon-like world and pick a scenario.
  data::SyntheticConfig data_config = data::SyntheticConfig::AmazonLike();
  data_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  data::SyntheticWorld world(data_config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  std::printf("Scenario %s: %zu source reviews, %zu target reviews, %zu "
              "overlapping users\n",
              cross.ScenarioName().c_str(), cross.source().num_reviews(),
              cross.target().num_reviews(), cross.overlapping_users().size());

  // 2. Split overlapping users: 80%% train, 20%% cold-start (§5.2).
  Rng split_rng(data_config.seed + 1);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);
  std::printf("Split: %zu train / %zu validation / %zu test users\n",
              split.train_users.size(), split.validation_users.size(),
              split.test_users.size());

  // 3. Configure and train OmniMatch.
  core::OmniMatchConfig config;
  config.epochs = flags.GetInt("epochs", config.epochs);
  config.learning_rate = static_cast<float>(
      flags.GetDouble("lr", config.learning_rate));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  config.verbose = flags.GetBool("verbose", false);
  config.dropout = static_cast<float>(
      flags.GetDouble("dropout", config.dropout));
  config.aux_augmentation_prob = static_cast<float>(
      flags.GetDouble("aux_prob", config.aux_augmentation_prob));
  config.alpha = static_cast<float>(flags.GetDouble("alpha", config.alpha));
  config.beta = static_cast<float>(flags.GetDouble("beta", config.beta));
  if (flags.GetBool("adam", false)) {
    config.optimizer = core::OptimizerKind::kAdam;
    config.adam_lr = static_cast<float>(
        flags.GetDouble("adam_lr", config.adam_lr));
  }
  config.checkpoint_every = flags.GetInt("checkpoint_every", 0);
  config.checkpoint_dir = flags.GetString("checkpoint_dir", "checkpoints");
  config.guard_enabled = flags.GetBool("guard", config.guard_enabled);
  config.max_recoveries = flags.GetInt("max_recoveries",
                                       config.max_recoveries);
  config.lr_backoff = static_cast<float>(
      flags.GetDouble("lr_backoff", config.lr_backoff));
  config.metrics_out = flags.GetString("metrics_out", "");
  config.trace_out = flags.GetString("trace_out", "");
  core::OmniMatchTrainer trainer(config, &cross, split);
  Status status = trainer.Prepare();
  if (!status.ok()) {
    std::fprintf(stderr, "Prepare failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.Has("resume")) {
    // Bare --resume picks the newest checkpoint in the checkpoint dir;
    // --resume=<path> loads that exact file.
    std::string resume_path = flags.GetString("resume", "");
    if (resume_path.empty() || resume_path == "true") {
      Result<std::string> latest =
          core::FindLatestCheckpoint(config.checkpoint_dir);
      if (!latest.ok()) {
        std::fprintf(stderr, "--resume: %s\n",
                     latest.status().ToString().c_str());
        return 1;
      }
      resume_path = latest.value();
    }
    Status resumed = trainer.LoadCheckpoint(resume_path);
    if (!resumed.ok()) {
      std::fprintf(stderr, "LoadCheckpoint failed: %s\n",
                   resumed.ToString().c_str());
      return 1;
    }
    std::printf("Resumed from %s (epoch %d)\n", resume_path.c_str(),
                trainer.epochs_completed());
  }
  core::TrainStats stats = trainer.Train();
  std::printf("Trained %d steps in %.1f s (final loss %.4f)\n", stats.steps,
              stats.train_seconds,
              stats.total_loss.empty() ? 0.0 : stats.total_loss.back());
  if (!config.metrics_out.empty()) {
    std::printf("Metrics snapshot written to %s\n",
                config.metrics_out.c_str());
  }
  if (!config.trace_out.empty()) {
    std::printf("Chrome trace written to %s (open in chrome://tracing)\n",
                config.trace_out.c_str());
  }
  for (const core::RecoveryEvent& e : stats.recovery_events) {
    std::printf("Guard recovery at step %lld: %s (observed %.4g), "
                "lr %.4g -> %.4g\n",
                static_cast<long long>(e.step),
                core::FaultReasonName(e.reason), e.observed,
                static_cast<double>(e.lr_before),
                static_cast<double>(e.lr_after));
  }
  if (stats.guard_gave_up) {
    std::fprintf(stderr,
                 "Guard exhausted --max_recoveries=%d; training stopped on "
                 "the last good state.\n",
                 config.max_recoveries);
  }

  // 4. Evaluate on the cold-start validation and test users.
  if (flags.GetBool("eval_train", false)) {
    eval::Metrics train_metrics = trainer.Evaluate(split.train_users);
    std::printf("train-user RMSE %.3f MAE %.3f (in-sample, real target docs)\n",
                train_metrics.rmse, train_metrics.mae);
  }
  if (flags.GetBool("oracle_docs", false)) {
    trainer.UseOracleTargetDocs(split.validation_users);
    trainer.UseOracleTargetDocs(split.test_users);
  }
  eval::Metrics valid = trainer.Evaluate(split.validation_users);
  eval::Metrics test = trainer.Evaluate(split.test_users);
  eval::AsciiTable table;
  table.SetHeader({"Cold-start set", "RMSE", "MAE", "#ratings"});
  table.AddRow({"validation", eval::FormatMetric(valid.rmse),
                eval::FormatMetric(valid.mae), std::to_string(valid.count)});
  table.AddRow({"test", eval::FormatMetric(test.rmse),
                eval::FormatMetric(test.mae), std::to_string(test.count)});
  std::printf("%s", table.Render().c_str());

  // 5. Predict a single rating for one cold-start test user.
  int cold_user = split.test_users.front();
  const auto& records = cross.target().RecordsOfUser(cold_user);
  if (!records.empty()) {
    const int item = cross.target().ReviewItem(records[0]);
    float pred = trainer.PredictRating(cold_user, item);
    std::printf("Cold user %d on item %d: predicted %.2f, actual %.0f\n",
                cold_user, item, pred,
                cross.target().ReviewRating(records[0]));
  }
  return 0;
}
