#ifndef OMNIMATCH_CORE_CHECKPOINT_H_
#define OMNIMATCH_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/guard.h"
#include "nn/optimizer.h"

namespace omnimatch {
namespace core {

/// Everything needed to resume a training run bit-for-bit at an epoch
/// boundary: parameters, optimizer accumulators, both RNG streams, the
/// current epoch-shuffle permutation, the loss/validation traces and the
/// best-epoch parameter snapshot. OmniMatchTrainer fills/consumes this;
/// Save/LoadCheckpointFile handle the on-disk format.
struct CheckpointState {
  /// OmniMatchConfig::Fingerprint() of the run that wrote the checkpoint.
  uint64_t config_fingerprint = 0;
  int32_t epochs_completed = 0;
  int64_t steps = 0;

  /// Model parameters in Parameters() order.
  std::vector<std::vector<float>> params;
  nn::OptimizerState optimizer;
  /// Trainer stream (shuffling, document seeds, aux generation).
  Rng::State trainer_rng;
  /// Every model-owned dropout stream, in OmniMatchModel::RngStates()
  /// order (pooled-feature stream + one per Mlp).
  std::vector<Rng::State> model_rngs;

  /// Per-epoch traces accumulated so far (TrainStats prefix).
  std::vector<double> total_loss;
  std::vector<double> rating_loss;
  std::vector<double> scl_loss;
  std::vector<double> domain_loss;
  std::vector<double> validation_rmse;
  int32_t best_epoch = -1;
  double best_rmse = 0.0;
  /// Best-epoch parameter snapshot (empty when validation tracking is off
  /// or no epoch has been selected yet).
  std::vector<std::vector<float>> best_params;

  /// Current permutation of training-sample indices (the in-place epoch
  /// shuffles compose, so the order must travel with the checkpoint).
  std::vector<int32_t> sample_order;

  /// --- self-healing guard state (format v2) ---
  /// Full recovery trace so far, the retry budget already spent, and
  /// whether the guard gave up. `current_lr` is the optimizer's live
  /// learning rate — after a divergence backoff it differs from the config
  /// value, and resuming with the config LR would re-diverge.
  std::vector<RecoveryEvent> recovery_events;
  int32_t recoveries = 0;
  uint8_t guard_gave_up = 0;
  float current_lr = 0.0f;
  double guard_ema = 0.0;
  int64_t guard_healthy_steps = 0;
};

/// On-disk layout: the CRC-framed file of common/io.h (magic "OMCK",
/// version, payload size, payload CRC-32), whose payload holds the
/// CheckpointState sections. The file is written atomically (tmp + fsync +
/// rename), so a crash mid-save leaves the previous checkpoint intact. See
/// DESIGN.md "Checkpoint format" for the section layout inside the payload.
///
/// Version 2 appended the guard section (recovery trace, live learning rate,
/// EMA state); v1 files are rejected — silently resuming without the
/// backed-off LR would re-diverge a recovered run.
inline constexpr FrameFormat kCheckpointFormat = {
    {'O', 'M', 'C', 'K'}, 2, "checkpoint"};

/// Serializes `state` and writes it crash-safely to `path`.
Status SaveCheckpointFile(const std::string& path,
                          const CheckpointState& state);

/// Reads and validates a checkpoint. Returns InvalidArgument for anything
/// structurally wrong (bad magic, unknown version, size mismatch, CRC
/// failure, truncated sections) and IoError when the file cannot be read.
Result<CheckpointState> LoadCheckpointFile(const std::string& path);

/// Scans `dir` for files named like SaveCheckpoint's periodic output
/// (checkpoint_epoch<N>.omck) and returns the path with the highest epoch.
/// NotFound when the directory holds no checkpoints.
Result<std::string> FindLatestCheckpoint(const std::string& dir);

}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_CORE_CHECKPOINT_H_
