#include "data/omds.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/rng.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "test_util/temp_dir.h"

namespace omnimatch {
namespace data {
namespace {

std::string TempPath(const std::string& name) {
  return testing_util::TestTempDir() + "/" + name;
}

/// Datasets built from the same records must agree record for record AND
/// index for index, however their image was built (DESIGN.md "Out-of-core
/// data path").
void ExpectDatasetsIdentical(const DomainDataset& a, const DomainDataset& b) {
  ASSERT_EQ(a.num_reviews(), b.num_reviews());
  for (size_t i = 0; i < a.num_reviews(); ++i) {
    EXPECT_EQ(a.ReviewUser(i), b.ReviewUser(i)) << "record " << i;
    EXPECT_EQ(a.ReviewItem(i), b.ReviewItem(i)) << "record " << i;
    EXPECT_EQ(a.ReviewRating(i), b.ReviewRating(i)) << "record " << i;
    EXPECT_EQ(a.ReviewSummary(i), b.ReviewSummary(i)) << "record " << i;
    EXPECT_EQ(a.ReviewFullText(i), b.ReviewFullText(i)) << "record " << i;
  }
  ASSERT_EQ(a.users(), b.users());
  ASSERT_EQ(a.items(), b.items());
  for (int u : a.users()) {
    EXPECT_EQ(a.RecordsOfUser(u), b.RecordsOfUser(u)) << "user " << u;
  }
  for (int item : a.items()) {
    EXPECT_EQ(a.RecordsOfItem(item), b.RecordsOfItem(item)) << "item " << item;
  }
  const CsrIndex<long long>& ia = a.item_rating_index();
  const CsrIndex<long long>& ib = b.item_rating_index();
  EXPECT_EQ(ia.keys(), ib.keys());
  EXPECT_EQ(ia.offsets(), ib.offsets());
  EXPECT_EQ(ia.values(), ib.values());
}

TEST(OmdsTest, MappedDatasetIdenticalToTsvLoaderOnRandomWorlds) {
  Rng trial_rng(404);
  for (int trial = 0; trial < 3; ++trial) {
    SyntheticConfig config;
    config.num_users = 40 + static_cast<int>(trial_rng.UniformU32(60));
    config.items_per_domain = 20 + static_cast<int>(trial_rng.UniformU32(40));
    config.mean_reviews_per_user = 4.0;
    config.min_reviews_per_user = 1;
    config.seed = 7000 + static_cast<uint64_t>(trial);
    SyntheticWorld world(config, {"Books", "Movies"});
    const DomainDataset& mem = world.domain("Books");

    std::string tsv = TempPath("omds_prop.tsv");
    std::string omds = TempPath("omds_prop.omds");
    ASSERT_TRUE(SaveDomainTsv(mem, tsv).ok());
    ASSERT_TRUE(WriteDomainOmds(mem, omds).ok());

    Result<DomainDataset> from_tsv = LoadDomainTsv(tsv, "Books");
    ASSERT_TRUE(from_tsv.ok()) << from_tsv.status().ToString();
    Result<DomainDataset> mapped = LoadDomainOmds(omds, "Books");
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    // Generator, TSV loader and file mapping hold the same image bytes.
    EXPECT_EQ(from_tsv.value().image().bytes(), mem.image().bytes());
    EXPECT_EQ(mapped.value().image().bytes(), mem.image().bytes());

    ExpectDatasetsIdentical(from_tsv.value(), mapped.value());
    ExpectDatasetsIdentical(mem, mapped.value());
  }
}

TEST(OmdsTest, EmptyDomainRoundTrips) {
  DomainDataset empty;
  std::string path = TempPath("omds_empty.omds");
  ASSERT_TRUE(WriteDomainOmds(empty, path).ok());
  Result<DomainDataset> loaded = LoadDomainOmds(path, "Empty");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_reviews(), 0u);
  EXPECT_TRUE(loaded.value().users().empty());
}

TEST(OmdsTest, BufferImageByteIdenticalToStreamedFile) {
  SyntheticConfig config;
  config.num_users = 35;
  config.items_per_domain = 25;
  config.seed = 19;
  SyntheticWorld world(config, {"Books", "Movies"});
  OmdsWriter buffered;
  ASSERT_TRUE(world.WriteDomain("Books", &buffered).ok());
  OmdsWriter streamed;
  std::string path = TempPath("omds_streamed.omds");
  ASSERT_TRUE(streamed.Open(path).ok());
  ASSERT_TRUE(world.WriteDomain("Books", &streamed).ok());
  EXPECT_EQ(buffered.num_records(), streamed.num_records());

  Result<std::shared_ptr<const OmdsFile>> image = buffered.TakeImage();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<std::string> file_bytes = ReadFileToString(path);
  ASSERT_TRUE(file_bytes.ok());
  EXPECT_EQ(image.value()->bytes(), file_bytes.value());
  EXPECT_GT(image.value()->num_records(), 0u);
}

TEST(OmdsTest, EveryFlippedByteOfABufferIsRejected) {
  OmdsWriter writer;
  ASSERT_TRUE(writer.Add(0, 10, 5.0f, "good", "a good read").ok());
  ASSERT_TRUE(writer.Add(1, 11, 2.5f, "meh", "").ok());
  ASSERT_TRUE(writer.Add(2, 10, 1.0f, "", "no summary").ok());
  ASSERT_TRUE(writer.Finalize().ok());
  Result<std::shared_ptr<const OmdsFile>> image = writer.TakeImage();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const std::string bytes(image.value()->bytes());
  ASSERT_TRUE(OmdsFile::FromBuffer(bytes).ok());

  // Every byte is covered by a CRC or a structural check, the header's
  // reserved word and the padding before the meta table included.
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] ^= 0x01;
    EXPECT_FALSE(OmdsFile::FromBuffer(std::move(mutated)).ok())
        << "flipped byte " << at << " was accepted";
  }
}

TEST(OmdsTest, MappedDatasetSavesBackToTsv) {
  SyntheticConfig config;
  config.num_users = 30;
  config.items_per_domain = 20;
  config.seed = 11;
  SyntheticWorld world(config, {"Books", "Movies"});
  std::string omds = TempPath("omds_save.omds");
  ASSERT_TRUE(WriteDomainOmds(world.domain("Movies"), omds).ok());
  Result<DomainDataset> mapped = LoadDomainOmds(omds, "Movies");
  ASSERT_TRUE(mapped.ok());

  std::string tsv = TempPath("omds_save.tsv");
  ASSERT_TRUE(SaveDomainTsv(mapped.value(), tsv).ok());
  Result<DomainDataset> reloaded = LoadDomainTsv(tsv, "Movies");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectDatasetsIdentical(mapped.value(), reloaded.value());
}

class OmdsCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_users = 25;
    config.items_per_domain = 15;
    config.seed = 33;
    SyntheticWorld world(config, {"Books", "Movies"});
    path_ = TempPath("omds_corrupt.omds");
    ASSERT_TRUE(WriteDomainOmds(world.domain("Books"), path_).ok());
    Result<std::string> bytes = ReadFileToString(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = std::move(bytes).value();
    ASSERT_GT(bytes_.size(), 200u);
  }

  /// Expects both the file path (a mutated copy written to disk, then
  /// Open) and the buffer path (FromBuffer) to reject `mutated` with `what`.
  void ExpectRejected(std::string mutated, const std::string& what) {
    std::string path = TempPath("omds_corrupt_mut.omds");
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());
    Result<std::shared_ptr<const OmdsFile>> opened = OmdsFile::Open(path);
    ASSERT_FALSE(opened.ok()) << "corruption was not detected: " << what;
    EXPECT_NE(opened.status().ToString().find(what), std::string::npos)
        << opened.status().ToString();
    Result<std::shared_ptr<const OmdsFile>> buffered =
        OmdsFile::FromBuffer(std::move(mutated));
    ASSERT_FALSE(buffered.ok()) << "buffer corruption not detected: " << what;
    EXPECT_NE(buffered.status().ToString().find(what), std::string::npos)
        << buffered.status().ToString();
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(OmdsCorruptionTest, RejectsBadMagic) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  ExpectRejected(mutated, "magic");
}

TEST_F(OmdsCorruptionTest, RejectsTruncation) {
  ExpectRejected(bytes_.substr(0, bytes_.size() / 2), "");
  ExpectRejected(bytes_.substr(0, 10), "shorter than the header");
}

TEST_F(OmdsCorruptionTest, RejectsHeaderBitFlip) {
  std::string mutated = bytes_;
  mutated[16] ^= 0x40;  // num_records field
  ExpectRejected(mutated, "header CRC");
}

TEST_F(OmdsCorruptionTest, RejectsTextBitFlip) {
  std::string mutated = bytes_;
  mutated[80] ^= 0x01;  // inside the text blob
  ExpectRejected(mutated, "text section CRC");
}

TEST_F(OmdsCorruptionTest, RejectsMetaBitFlip) {
  std::string mutated = bytes_;
  mutated[mutated.size() - 20] ^= 0x01;  // inside the meta table
  ExpectRejected(mutated, "meta table CRC");
}

TEST_F(OmdsCorruptionTest, RejectsMissingFile) {
  Result<std::shared_ptr<const OmdsFile>> opened =
      OmdsFile::Open(TempPath("does_not_exist.omds"));
  EXPECT_FALSE(opened.ok());
}

TEST(OmdsWriterTest, RejectsInvalidRecords) {
  OmdsWriter writer;
  ASSERT_TRUE(writer.Open(TempPath("omds_invalid.omds")).ok());
  EXPECT_FALSE(writer.Add(-1, 0, 3.0f, "s", "f").ok());
  EXPECT_FALSE(writer.Add(0, -2, 3.0f, "s", "f").ok());
  EXPECT_FALSE(writer.Add(0, 0, 0.5f, "s", "f").ok());
  EXPECT_FALSE(writer.Add(0, 0, std::nanf(""), "s", "f").ok());
  EXPECT_TRUE(writer.Add(0, 0, 5.0f, "s", "f").ok());
}

TEST(MemoryMappedFileTest, MapsWholeFile) {
  std::string path = TempPath("mmap_roundtrip.bin");
  std::string payload("omnimatch mmap payload \0 with a nul", 35);
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  Result<MemoryMappedFile> mapped = MemoryMappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(std::string_view(mapped.value().data(), mapped.value().size()),
            payload);
}

TEST(MemoryMappedFileTest, MissingFileIsIoError) {
  Result<MemoryMappedFile> mapped =
      MemoryMappedFile::Open(TempPath("mmap_missing.bin"));
  EXPECT_FALSE(mapped.ok());
}

TEST(MemoryMappedFileTest, EmptyFileIsValid) {
  std::string path = TempPath("mmap_empty.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  Result<MemoryMappedFile> mapped = MemoryMappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().size(), 0u);
}

}  // namespace
}  // namespace data
}  // namespace omnimatch
