#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace core {
namespace {

data::SyntheticConfig TinyWorld() {
  data::SyntheticConfig c;
  c.num_users = 60;
  c.items_per_domain = 30;
  c.mean_reviews_per_user = 5;
  c.seed = 21;
  return c;
}

OmniMatchConfig TinyModel() {
  OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 16;
  config.epochs = 4;
  config.seed = 31;
  return config;
}

std::string FreshDir(const std::string& name) {
  std::string dir = testing_util::TestTempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Rewrites the byte at `offset` of the file at `path` in place.
void OverwriteByte(const std::string& path, size_t offset, char value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(value);
}

CheckpointState SampleState() {
  CheckpointState s;
  s.config_fingerprint = 0x1234567890ABCDEFull;
  s.epochs_completed = 3;
  s.steps = 77;
  s.params = {{1.0f, -2.5f, 0.0f}, {4.0f}};
  s.optimizer.counters = {9};
  s.optimizer.slots = {{0.5f, 0.25f, 0.125f, 1.0f}};
  s.trainer_rng.state = 0xAAAAAAAAAAAAAAAAull;
  s.trainer_rng.inc = 0x5555555555555555ull;
  s.trainer_rng.has_cached_normal = 1;
  s.trainer_rng.cached_normal = -0.75;
  s.model_rngs.resize(2);
  s.model_rngs[0].state = 42;
  s.model_rngs[0].inc = 43;
  s.model_rngs[1].state = 44;
  s.model_rngs[1].inc = 45;
  s.model_rngs[1].has_cached_normal = 1;
  s.model_rngs[1].cached_normal = 0.5;
  s.total_loss = {2.0, 1.5, 1.2};
  s.rating_loss = {1.8, 1.4, 1.1};
  s.scl_loss = {0.1, 0.05, 0.04};
  s.domain_loss = {0.1, 0.05, 0.06};
  s.validation_rmse = {1.3, 1.25, 1.26};
  s.best_epoch = 1;
  s.best_rmse = 1.25;
  s.best_params = {{9.0f, 8.0f, 7.0f}, {6.0f}};
  s.sample_order = {2, 0, 1, 3};
  return s;
}

TEST(CheckpointFileTest, SaveLoadRoundTripsEveryField) {
  std::string path = testing_util::TestTempDir() + "/ckpt_roundtrip.omck";
  CheckpointState s = SampleState();
  ASSERT_TRUE(SaveCheckpointFile(path, s).ok());
  Result<CheckpointState> r = LoadCheckpointFile(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const CheckpointState& b = r.value();
  EXPECT_EQ(b.config_fingerprint, s.config_fingerprint);
  EXPECT_EQ(b.epochs_completed, s.epochs_completed);
  EXPECT_EQ(b.steps, s.steps);
  EXPECT_EQ(b.params, s.params);
  EXPECT_EQ(b.optimizer.counters, s.optimizer.counters);
  EXPECT_EQ(b.optimizer.slots, s.optimizer.slots);
  EXPECT_EQ(b.trainer_rng.state, s.trainer_rng.state);
  EXPECT_EQ(b.trainer_rng.inc, s.trainer_rng.inc);
  EXPECT_EQ(b.trainer_rng.has_cached_normal, s.trainer_rng.has_cached_normal);
  EXPECT_DOUBLE_EQ(b.trainer_rng.cached_normal, s.trainer_rng.cached_normal);
  ASSERT_EQ(b.model_rngs.size(), s.model_rngs.size());
  for (size_t i = 0; i < s.model_rngs.size(); ++i) {
    EXPECT_EQ(b.model_rngs[i].state, s.model_rngs[i].state);
    EXPECT_EQ(b.model_rngs[i].inc, s.model_rngs[i].inc);
    EXPECT_EQ(b.model_rngs[i].has_cached_normal,
              s.model_rngs[i].has_cached_normal);
    EXPECT_DOUBLE_EQ(b.model_rngs[i].cached_normal,
                     s.model_rngs[i].cached_normal);
  }
  EXPECT_EQ(b.total_loss, s.total_loss);
  EXPECT_EQ(b.rating_loss, s.rating_loss);
  EXPECT_EQ(b.scl_loss, s.scl_loss);
  EXPECT_EQ(b.domain_loss, s.domain_loss);
  EXPECT_EQ(b.validation_rmse, s.validation_rmse);
  EXPECT_EQ(b.best_epoch, s.best_epoch);
  EXPECT_DOUBLE_EQ(b.best_rmse, s.best_rmse);
  EXPECT_EQ(b.best_params, s.best_params);
  EXPECT_EQ(b.sample_order, s.sample_order);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, MissingFileIsIoError) {
  Result<CheckpointState> r =
      LoadCheckpointFile("/nonexistent/dir/ckpt.omck");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CheckpointFileTest, TruncationAtEveryBoundaryRejectedCleanly) {
  std::string path = testing_util::TestTempDir() + "/ckpt_trunc_src.omck";
  ASSERT_TRUE(SaveCheckpointFile(path, SampleState()).ok());
  std::string bytes = ReadFileToString(path).value();
  ASSERT_GT(bytes.size(), 24u);
  // Every prefix: inside the header, at the header/payload boundary,
  // inside and between the payload's sections, and one byte short of
  // complete. Cut in place, longest first.
  std::string trunc_path = testing_util::TestTempDir() + "/ckpt_trunc.omck";
  std::ofstream(trunc_path, std::ios::binary) << bytes;
  for (size_t cut = bytes.size(); cut-- > 0;) {
    std::filesystem::resize_file(trunc_path, cut);
    Result<CheckpointState> r = LoadCheckpointFile(trunc_path);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << r.status().ToString();
  }
  std::remove(trunc_path.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, BitFlipAnywhereRejected) {
  std::string path = testing_util::TestTempDir() + "/ckpt_flip_src.omck";
  ASSERT_TRUE(SaveCheckpointFile(path, SampleState()).ok());
  std::string bytes = ReadFileToString(path).value();
  // Every bit of the magic, version, payload size, CRC field and payload:
  // a single flipped bit anywhere must be caught.
  std::string flip_path = testing_util::TestTempDir() + "/ckpt_flip.omck";
  std::ofstream(flip_path, std::ios::binary) << bytes;
  for (size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      OverwriteByte(flip_path, at, static_cast<char>(bytes[at] ^ (1 << bit)));
      Result<CheckpointState> r = LoadCheckpointFile(flip_path);
      ASSERT_FALSE(r.ok()) << "flip at " << at << " bit " << bit;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << "flip at " << at << " bit " << bit << ": "
          << r.status().ToString();
    }
    OverwriteByte(flip_path, at, bytes[at]);
  }
  ASSERT_TRUE(LoadCheckpointFile(flip_path).ok());
  std::remove(flip_path.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, TrailingGarbageRejected) {
  std::string path = testing_util::TestTempDir() + "/ckpt_trail.omck";
  ASSERT_TRUE(SaveCheckpointFile(path, SampleState()).ok());
  std::string bytes = ReadFileToString(path).value();
  bytes.push_back('\0');
  std::ofstream(path, std::ios::binary) << bytes;
  Result<CheckpointState> r = LoadCheckpointFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointFileTest, UnknownVersionRejected) {
  std::string path = testing_util::TestTempDir() + "/ckpt_version.omck";
  ASSERT_TRUE(SaveCheckpointFile(path, SampleState()).ok());
  std::string bytes = ReadFileToString(path).value();
  bytes[4] = 99;  // version lives at bytes 4-7
  std::ofstream(path, std::ios::binary) << bytes;
  Result<CheckpointState> r = LoadCheckpointFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointFindTest, FindsHighestEpochAndIgnoresOtherFiles) {
  std::string dir = FreshDir("ckpt_find");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  CheckpointState s = SampleState();
  ASSERT_TRUE(SaveCheckpointFile(dir + "/checkpoint_epoch2.omck", s).ok());
  ASSERT_TRUE(SaveCheckpointFile(dir + "/checkpoint_epoch10.omck", s).ok());
  ASSERT_TRUE(SaveCheckpointFile(dir + "/checkpoint_epoch4.omck", s).ok());
  std::ofstream(dir + "/notes.txt") << "not a checkpoint";
  Result<std::string> latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value(), dir + "/checkpoint_epoch10.omck");
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFindTest, EmptyDirIsNotFound) {
  std::string dir = FreshDir("ckpt_find_empty");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  Result<std::string> latest = FindLatestCheckpoint(dir);
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

// The ISSUE's core acceptance test: train 4 epochs straight through; train
// the same run but "kill" it after 2 epochs (by configuring epochs=2 with
// periodic checkpointing), restart a FRESH trainer from the checkpoint and
// finish. Final weights and metrics must be bit-identical.
TEST(CheckpointResumeTest, KillAndResumeIsBitIdentical) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  std::string dir = FreshDir("ckpt_resume");

  // Uninterrupted reference run: 4 epochs, no checkpointing.
  OmniMatchTrainer uninterrupted(TinyModel(), &cross, split);
  ASSERT_TRUE(uninterrupted.Prepare().ok());
  TrainStats ref_stats = uninterrupted.Train();

  // "Killed" run: same config, stops after epoch 2, checkpointing every
  // epoch (epochs and checkpoint knobs are outside the fingerprint).
  OmniMatchConfig killed_config = TinyModel();
  killed_config.epochs = 2;
  killed_config.checkpoint_every = 1;
  killed_config.checkpoint_dir = dir;
  OmniMatchTrainer killed(killed_config, &cross, split);
  ASSERT_TRUE(killed.Prepare().ok());
  killed.Train();

  // Restart: fresh process/trainer, full epoch budget, resume from the
  // newest checkpoint.
  OmniMatchTrainer resumed(TinyModel(), &cross, split);
  ASSERT_TRUE(resumed.Prepare().ok());
  Result<std::string> latest = FindLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value(), dir + "/checkpoint_epoch2.omck");
  ASSERT_TRUE(resumed.LoadCheckpoint(latest.value()).ok());
  EXPECT_EQ(resumed.epochs_completed(), 2);
  TrainStats resumed_stats = resumed.Train();

  // Same step count and full loss trace across the splice point.
  EXPECT_EQ(resumed_stats.steps, ref_stats.steps);
  ASSERT_EQ(resumed_stats.total_loss.size(), ref_stats.total_loss.size());
  for (size_t i = 0; i < ref_stats.total_loss.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_stats.total_loss[i], ref_stats.total_loss[i])
        << "epoch " << i;
  }
  EXPECT_EQ(resumed_stats.validation_rmse, ref_stats.validation_rmse);
  EXPECT_EQ(resumed_stats.best_epoch, ref_stats.best_epoch);

  // Bit-identical final weights.
  std::vector<nn::Tensor> a = uninterrupted.model()->Parameters();
  std::vector<nn::Tensor> b = resumed.model()->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].data(), b[i].data()) << "parameter " << i;
  }

  // And identical evaluation metrics.
  eval::Metrics ma = uninterrupted.Evaluate(split.test_users);
  eval::Metrics mb = resumed.Evaluate(split.test_users);
  EXPECT_DOUBLE_EQ(ma.rmse, mb.rmse);
  EXPECT_DOUBLE_EQ(ma.mae, mb.mae);
  EXPECT_EQ(ma.count, mb.count);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, FingerprintMismatchRejectedAndTrainerStaysUsable) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  std::string dir = FreshDir("ckpt_mismatch");

  OmniMatchConfig writer_config = TinyModel();
  writer_config.epochs = 1;
  OmniMatchTrainer writer(writer_config, &cross, split);
  ASSERT_TRUE(writer.Prepare().ok());
  writer.Train();
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  std::string path = dir + "/checkpoint_epoch1.omck";
  ASSERT_TRUE(writer.SaveCheckpoint(path).ok());

  // Different trajectory-shaping hyperparameter -> different fingerprint.
  OmniMatchConfig other_config = TinyModel();
  other_config.alpha = 0.3f;
  OmniMatchTrainer other(other_config, &cross, split);
  ASSERT_TRUE(other.Prepare().ok());
  Status status = other.LoadCheckpoint(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fingerprint"), std::string::npos);

  // A rejected load leaves the trainer fully usable from scratch.
  EXPECT_EQ(other.epochs_completed(), 0);
  TrainStats stats = other.Train();
  EXPECT_GT(stats.steps, 0);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, CorruptedCheckpointRejectedByTrainer) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);

  OmniMatchConfig config = TinyModel();
  config.epochs = 1;
  OmniMatchTrainer trainer(config, &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  trainer.Train();
  std::string path = testing_util::TestTempDir() + "/ckpt_corrupt.omck";
  ASSERT_TRUE(trainer.SaveCheckpoint(path).ok());

  // Fields the CRC cannot vouch for: each variant changes one field of the
  // valid checkpoint and is written back with a valid CRC.
  const CheckpointState valid = LoadCheckpointFile(path).value();
  ASSERT_EQ(valid.epochs_completed, 1);
  ASSERT_FALSE(valid.optimizer.slots.empty());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::pair<std::string,
                              std::function<void(CheckpointState*)>>>
      variants = {
          {"current_lr NaN", [&](CheckpointState* s) { s->current_lr = nan; }},
          {"current_lr -1", [](CheckpointState* s) { s->current_lr = -1.0f; }},
          {"current_lr 0", [](CheckpointState* s) { s->current_lr = 0.0f; }},
          {"current_lr inf",
           [](CheckpointState* s) {
             s->current_lr = std::numeric_limits<float>::infinity();
           }},
          {"guard_ema NaN", [&](CheckpointState* s) { s->guard_ema = nan; }},
          {"sample_order all zeros",
           [](CheckpointState* s) {
             std::fill(s->sample_order.begin(), s->sample_order.end(), 0);
           }},
          {"sample_order one repeat",
           [](CheckpointState* s) { s->sample_order[1] = s->sample_order[0]; }},
          {"best_epoch 99", [](CheckpointState* s) { s->best_epoch = 99; }},
          {"best_epoch 1 of 1", [](CheckpointState* s) { s->best_epoch = 1; }},
          {"best_epoch -2", [](CheckpointState* s) { s->best_epoch = -2; }},
          {"steps -5", [](CheckpointState* s) { s->steps = -5; }},
          {"parameter NaN", [&](CheckpointState* s) { s->params[0][0] = nan; }},
          {"optimizer slot NaN",
           [&](CheckpointState* s) { s->optimizer.slots.back()[0] = nan; }},
      };
  const std::string variant_path =
      testing_util::TestTempDir() + "/ckpt_variant.omck";
  OmniMatchConfig longer = config;
  longer.epochs = 2;
  OmniMatchTrainer resumed(longer, &cross, split);
  ASSERT_TRUE(resumed.Prepare().ok());
  for (const auto& [name, mutate] : variants) {
    CheckpointState state = valid;
    mutate(&state);
    ASSERT_TRUE(SaveCheckpointFile(variant_path, state).ok()) << name;
    const Status rejected = resumed.LoadCheckpoint(variant_path);
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument)
        << name << ": " << rejected.ToString();
  }
  std::remove(variant_path.c_str());

  // The rejected loads left no trace: resuming the valid checkpoint now
  // trains exactly as a trainer that never saw them.
  ASSERT_TRUE(resumed.LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed.epochs_completed(), 1);
  const TrainStats after_rejections = resumed.Train();
  OmniMatchTrainer clean(longer, &cross, split);
  ASSERT_TRUE(clean.Prepare().ok());
  ASSERT_TRUE(clean.LoadCheckpoint(path).ok());
  const TrainStats clean_stats = clean.Train();
  EXPECT_EQ(after_rejections.total_loss, clean_stats.total_loss);
  EXPECT_EQ(after_rejections.steps, clean_stats.steps);

  std::string bytes = ReadFileToString(path).value();
  bytes[bytes.size() / 3] ^= 0x40;
  std::ofstream(path, std::ios::binary) << bytes;
  Status status = trainer.LoadCheckpoint(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
