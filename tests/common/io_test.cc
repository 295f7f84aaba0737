#include "common/io.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util/temp_dir.h"

namespace omnimatch {
namespace {

std::string TempPath(const std::string& name) {
  return testing_util::TestTempDir() + "/" + name;
}

TEST(IoTest, WriteAtomicThenReadRoundTrips) {
  std::string path = TempPath("io_roundtrip.bin");
  std::string payload = "binary\0payload\nwith newlines";
  payload.push_back('\0');
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  Result<std::string> back = ReadFileToString(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), payload);
  std::remove(path.c_str());
}

TEST(IoTest, WriteAtomicLeavesNoTmpFile) {
  std::string path = TempPath("io_notmp.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "x").ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(IoTest, WriteAtomicReplacesExistingFile) {
  std::string path = TempPath("io_replace.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "new");
  std::remove(path.c_str());
}

TEST(IoTest, ReadMissingFileIsIoError) {
  Result<std::string> r = ReadFileToString("/nonexistent/dir/file.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, WriteToMissingDirectoryIsIoError) {
  Status s = WriteFileAtomic("/nonexistent/dir/file.bin", "x");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(IoTest, EnsureDirectoryIsIdempotent) {
  std::string dir = TempPath("io_dir");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  ASSERT_TRUE(EnsureDirectory(dir).ok());  // already exists -> still OK
  ASSERT_TRUE(WriteFileAtomic(dir + "/f.bin", "x").ok());
  std::remove((dir + "/f.bin").c_str());
}

TEST(ByteCodecTest, ScalarsRoundTrip) {
  ByteWriter w;
  w.Write<uint32_t>(0xDEADBEEFu);
  w.Write<int64_t>(-42);
  w.Write<double>(3.5);
  w.Write<uint8_t>(7);
  ByteReader r(w.buffer());
  uint32_t a = 0;
  int64_t b = 0;
  double c = 0;
  uint8_t d = 0;
  ASSERT_TRUE(r.Read(&a));
  ASSERT_TRUE(r.Read(&b));
  ASSERT_TRUE(r.Read(&c));
  ASSERT_TRUE(r.Read(&d));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, -42);
  EXPECT_DOUBLE_EQ(c, 3.5);
  EXPECT_EQ(d, 7);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodecTest, StringsAndVectorsRoundTrip) {
  ByteWriter w;
  w.WriteString("hello\0world");
  w.WriteVector(std::vector<float>{1.5f, -2.25f, 0.0f});
  w.WriteVector(std::vector<int32_t>{});
  ByteReader r(w.buffer());
  std::string s;
  std::vector<float> f;
  std::vector<int32_t> i;
  ASSERT_TRUE(r.ReadString(&s));
  ASSERT_TRUE(r.ReadVector(&f));
  ASSERT_TRUE(r.ReadVector(&i));
  EXPECT_EQ(s, std::string("hello\0world", 5));  // string_view stops at \0
  EXPECT_EQ(f, (std::vector<float>{1.5f, -2.25f, 0.0f}));
  EXPECT_TRUE(i.empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodecTest, TruncatedScalarReadFails) {
  ByteWriter w;
  w.Write<uint32_t>(1);
  std::string_view buf(w.buffer());
  ByteReader r(buf.substr(0, 2));
  uint32_t v = 0;
  EXPECT_FALSE(r.Read(&v));
}

TEST(ByteCodecTest, TruncatedStringBodyFails) {
  ByteWriter w;
  w.WriteString("abcdef");
  std::string_view buf(w.buffer());
  ByteReader r(buf.substr(0, buf.size() - 2));
  std::string s;
  EXPECT_FALSE(r.ReadString(&s));
}

TEST(ByteCodecTest, OversizedLengthPrefixFails) {
  // A corrupt length prefix far larger than the buffer must fail cleanly
  // instead of allocating or reading out of bounds.
  ByteWriter w;
  w.Write<uint64_t>(uint64_t{1} << 60);
  ByteReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s));
}

TEST(ByteCodecTest, VectorSizeNotMultipleOfElementFails) {
  ByteWriter w;
  w.Write<uint64_t>(7);  // 7 bytes is not a whole number of floats
  for (int i = 0; i < 7; ++i) w.Write<uint8_t>(0);
  ByteReader r(w.buffer());
  std::vector<float> f;
  EXPECT_FALSE(r.ReadVector(&f));
}

}  // namespace
}  // namespace omnimatch
