#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
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
  config.epochs = 2;
  config.seed = 31;
  return config;
}

/// Rewrites the byte at `offset` of the file at `path` in place.
void OverwriteByte(const std::string& path, size_t offset, char value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(value);
}

/// Every parameter's values, in Parameters() order.
std::vector<std::vector<float>> ParameterValues(OmniMatchTrainer& trainer) {
  std::vector<std::vector<float>> out;
  for (const nn::Tensor& p : trainer.model()->Parameters()) {
    out.push_back(p.data());
  }
  return out;
}

TEST(SerializationTest, SaveLoadRoundTripReproducesPredictions) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);

  OmniMatchTrainer trained(TinyModel(), &cross, split);
  ASSERT_TRUE(trained.Prepare().ok());
  trained.Train();
  std::string path = testing_util::TestTempDir() + "/omnimatch_weights.bin";
  ASSERT_TRUE(trained.SaveWeights(path).ok());

  OmniMatchTrainer fresh(TinyModel(), &cross, split);
  ASSERT_TRUE(fresh.Prepare().ok());
  ASSERT_TRUE(fresh.LoadWeights(path).ok());

  eval::Metrics a = trained.Evaluate(split.test_users);
  eval::Metrics b = fresh.Evaluate(split.test_users);
  EXPECT_DOUBLE_EQ(a.rmse, b.rmse);
  EXPECT_DOUBLE_EQ(a.mae, b.mae);
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadRejectsDifferentArchitecture) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);

  OmniMatchTrainer trained(TinyModel(), &cross, split);
  ASSERT_TRUE(trained.Prepare().ok());
  std::string path = testing_util::TestTempDir() + "/omnimatch_weights2.bin";
  ASSERT_TRUE(trained.SaveWeights(path).ok());

  OmniMatchConfig bigger = TinyModel();
  bigger.feature_dim = 12;
  OmniMatchTrainer other(bigger, &cross, split);
  ASSERT_TRUE(other.Prepare().ok());
  Status status = other.LoadWeights(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadMissingFileFails) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(TinyModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  Status status = trainer.LoadWeights("/nonexistent/weights.bin");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(SerializationTest, LoadTruncatedFileFails) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(TinyModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  std::string path = testing_util::TestTempDir() + "/omnimatch_trunc.bin";
  ASSERT_TRUE(trainer.SaveWeights(path).ok());
  const std::vector<std::vector<float>> weights = ParameterValues(trainer);
  // Truncate the file to half.
  FILE* f = fopen(path.c_str(), "r+");
  ASSERT_NE(f, nullptr);
  fseek(f, 0, SEEK_END);
  long size = ftell(f);
  ASSERT_EQ(ftruncate(fileno(f), size / 2), 0);
  fclose(f);
  Status status = trainer.LoadWeights(path);
  EXPECT_FALSE(status.ok());
  // Then every other length, cut in place longest first.
  ASSERT_TRUE(trainer.SaveWeights(path).ok());
  for (long cut = size; cut-- > 0;) {
    std::filesystem::resize_file(path, static_cast<uintmax_t>(cut));
    status = trainer.LoadWeights(path);
    ASSERT_FALSE(status.ok()) << "cut at " << cut;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << status.ToString();
  }
  EXPECT_EQ(ParameterValues(trainer), weights);
  std::remove(path.c_str());
}

// Regression: the old bare-ofstream format loaded silently after a bit
// flip anywhere in the payload. The OMWT CRC must reject it — and a failed
// load must leave the model's weights untouched.
TEST(SerializationTest, LoadCorruptedPayloadFailsAndPreservesWeights) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(TinyModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  std::string path = testing_util::TestTempDir() + "/omnimatch_corrupt.bin";
  ASSERT_TRUE(trainer.SaveWeights(path).ok());

  Result<std::string> raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string bytes = raw.value();
  bytes[bytes.size() / 2] ^= 0x40;  // one bit flip deep in the payload
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

  eval::Metrics before = trainer.Evaluate(split.test_users);
  Status status = trainer.LoadWeights(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The rejected load must not have half-written anything.
  eval::Metrics after = trainer.Evaluate(split.test_users);
  EXPECT_DOUBLE_EQ(before.rmse, after.rmse);

  // Every single-bit flip of the header and the payload, in place.
  bytes[bytes.size() / 2] ^= 0x40;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  const std::vector<std::vector<float>> weights = ParameterValues(trainer);
  for (size_t at = 0; at < bytes.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      OverwriteByte(path, at, static_cast<char>(bytes[at] ^ (1 << bit)));
      status = trainer.LoadWeights(path);
      ASSERT_FALSE(status.ok()) << "flip at " << at << " bit " << bit;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "flip at " << at << " bit " << bit << ": " << status.ToString();
    }
    OverwriteByte(path, at, bytes[at]);
  }
  EXPECT_EQ(ParameterValues(trainer), weights);
  ASSERT_TRUE(trainer.LoadWeights(path).ok());
  std::remove(path.c_str());
}

// Regression: trailing bytes after the payload (a concatenated or
// double-written file) used to pass unnoticed — the old reader simply never
// looked past the last parameter.
TEST(SerializationTest, LoadRejectsTrailingGarbage) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(TinyModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  std::string path = testing_util::TestTempDir() + "/omnimatch_trailing.bin";
  ASSERT_TRUE(trainer.SaveWeights(path).ok());

  std::ofstream(path, std::ios::binary | std::ios::app) << "garbage";
  Status status = trainer.LoadWeights(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializationTest, LoadRejectsForeignMagic) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(TinyModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  std::string path = testing_util::TestTempDir() + "/omnimatch_notweights.bin";
  std::ofstream(path, std::ios::binary)
      << "this is not a weight file, but it is long enough to have a header";
  Status status = trainer.LoadWeights(path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// SaveWeights must stage through a tmp file: after a successful save the
// destination directory holds exactly the final file, no leftover staging
// artifacts, and an existing file is replaced atomically (never truncated
// in place).
TEST(SerializationTest, SaveOverwritesAtomically) {
  data::SyntheticWorld world(TinyWorld());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng rng(5);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &rng);
  OmniMatchTrainer trainer(TinyModel(), &cross, split);
  ASSERT_TRUE(trainer.Prepare().ok());
  std::string path = testing_util::TestTempDir() + "/omnimatch_overwrite.bin";
  ASSERT_TRUE(trainer.SaveWeights(path).ok());
  ASSERT_TRUE(trainer.SaveWeights(path).ok());  // overwrite in place
  ASSERT_TRUE(trainer.LoadWeights(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace omnimatch
