#include "data/omds.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "common/check.h"
#include "common/crc32.h"
#include "common/string_util.h"
#include "common/threadpool.h"

namespace omnimatch {
namespace data {

namespace {

constexpr char kMagic[8] = {'O', 'M', 'D', 'S', 'v', '0', '1', '\n'};
constexpr uint32_t kVersion = 1;
constexpr uint64_t kTextOffset = 64;

struct OmdsHeader {
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t num_records = 0;
  uint64_t text_offset = 0;
  uint64_t text_bytes = 0;
  uint64_t meta_offset = 0;
  uint32_t meta_crc32 = 0;
  uint32_t header_crc32 = 0;  // CRC of the 52 bytes preceding this field
  uint32_t text_crc32 = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(OmdsHeader) == 64, "OMDS header layout is fixed");
static_assert(offsetof(OmdsHeader, header_crc32) == 52,
              "header CRC covers bytes [0, 52)");

uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(path + ": " + what);
}

}  // namespace

Result<std::shared_ptr<const OmdsFile>> OmdsFile::Open(
    const std::string& path) {
  Result<MemoryMappedFile> mapped = MemoryMappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  auto file = std::shared_ptr<OmdsFile>(new OmdsFile());
  file->map_ = std::move(mapped).value();
  file->bytes_ = std::string_view(file->map_.data(), file->map_.size());
  OM_RETURN_IF_ERROR(file->Validate(path));
  return std::shared_ptr<const OmdsFile>(std::move(file));
}

Result<std::shared_ptr<const OmdsFile>> OmdsFile::FromBuffer(
    std::string bytes, const std::string& origin) {
  auto file = std::shared_ptr<OmdsFile>(new OmdsFile());
  file->buffer_ = std::move(bytes);
  file->bytes_ = file->buffer_;
  OM_RETURN_IF_ERROR(file->Validate(origin));
  return std::shared_ptr<const OmdsFile>(std::move(file));
}

Status OmdsFile::Validate(const std::string& origin) {
  const char* base = bytes_.data();
  const uint64_t size = bytes_.size();

  if (size < sizeof(OmdsHeader)) {
    return Corrupt(origin, "not an OMDS file (shorter than the header)");
  }
  OmdsHeader header;
  std::memcpy(&header, base, sizeof header);
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
    return Corrupt(origin, "bad magic (not an OMDS file)");
  }
  if (header.version != kVersion) {
    return Corrupt(origin, StrFormat("unsupported OMDS version %u",
                                     header.version));
  }
  if (Crc32(base, offsetof(OmdsHeader, header_crc32)) != header.header_crc32) {
    return Corrupt(origin, "header CRC mismatch");
  }
  if (header.text_offset != kTextOffset) {
    return Corrupt(origin, "unexpected text offset");
  }
  if (header.text_bytes > size - kTextOffset) {
    return Corrupt(origin, "truncated file (text section out of bounds)");
  }
  if (header.reserved != 0) {
    return Corrupt(origin, "nonzero reserved header word");
  }
  // The meta table starts at the text section's end rounded up to 8 bytes,
  // and the padding between them is zero, so no byte of the image escapes
  // a check.
  if (header.meta_offset != kTextOffset + AlignUp8(header.text_bytes) ||
      header.meta_offset > size) {
    return Corrupt(origin, "misaligned or overlapping meta table");
  }
  for (uint64_t at = kTextOffset + header.text_bytes; at < header.meta_offset;
       ++at) {
    if (base[at] != 0) return Corrupt(origin, "nonzero meta table padding");
  }
  if (header.num_records > (uint64_t{1} << 40)) {
    return Corrupt(origin, "implausible record count");
  }
  const uint64_t meta_bytes = header.num_records * sizeof(OmdsRecordMeta);
  if (meta_bytes > size - header.meta_offset) {
    return Corrupt(origin, "truncated file (meta table out of bounds)");
  }
  if (Crc32(base + header.meta_offset, meta_bytes) != header.meta_crc32) {
    return Corrupt(origin, "meta table CRC mismatch");
  }
  if (Crc32(base + kTextOffset, header.text_bytes) != header.text_crc32) {
    return Corrupt(origin, "text section CRC mismatch");
  }

  text_ = base + kTextOffset;
  meta_ = base + header.meta_offset;
  num_records_ = static_cast<size_t>(header.num_records);

  // Record-level validation, parallel over fixed chunks: every text span in
  // bounds, ids and ratings in the ranges OmdsWriter::Add enforces.
  std::atomic<bool> ok{true};
  const int64_t n = static_cast<int64_t>(num_records_);
  ParallelFor(0, n, 4096, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      OmdsRecordMeta m = meta(static_cast<size_t>(i));
      uint64_t span = uint64_t{m.summary_len} + uint64_t{m.full_len};
      if (m.text_off > header.text_bytes ||
          span > header.text_bytes - m.text_off || m.user_id < 0 ||
          m.item_id < 0 || !(m.rating >= 1.0f && m.rating <= 5.0f)) {
        ok.store(false, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (!ok.load()) {
    return Corrupt(origin, "invalid record (bad text span, id or rating)");
  }
  return Status::OK();
}

std::string_view OmdsFile::summary(size_t i) const {
  OmdsRecordMeta m = meta(i);
  return std::string_view(text_ + m.text_off, m.summary_len);
}

std::string_view OmdsFile::full_text(size_t i) const {
  OmdsRecordMeta m = meta(i);
  return std::string_view(text_ + m.text_off + m.summary_len, m.full_len);
}

OmdsWriter::OmdsWriter() : buffer_(sizeof(OmdsHeader), '\0') {}

OmdsWriter::~OmdsWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_path_.c_str());
  }
}

Status OmdsWriter::Open(const std::string& path) {
  OM_CHECK(path_.empty() && meta_.empty() && !finalized_)
      << "OmdsWriter::Open must come first, once";
  std::string tmp_path = UniqueTmpPath(path);
  file_ = std::fopen(tmp_path.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::IoError(tmp_path + ": " + std::strerror(errno));
  }
  path_ = path;
  tmp_path_ = std::move(tmp_path);
  // The placeholder header moves from the buffer to the file; Finalize()
  // seeks back and fills it in.
  Status placeholder = Write(buffer_.data(), buffer_.size());
  buffer_ = std::string();
  return placeholder;
}

Status OmdsWriter::Write(const void* data, size_t size) {
  if (size == 0) return Status::OK();
  if (file_ == nullptr) {
    buffer_.append(static_cast<const char*>(data), size);
    return Status::OK();
  }
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::IoError("write failed for " + tmp_path_);
  }
  return Status::OK();
}

Status OmdsWriter::Add(int user_id, int item_id, float rating,
                       std::string_view summary, std::string_view full_text) {
  OM_CHECK(!finalized_) << "OmdsWriter already finalized";
  if (user_id < 0 || item_id < 0 || !(rating >= 1.0f && rating <= 5.0f)) {
    return Status::InvalidArgument(
        StrFormat("record %zu: invalid ids or rating (user %d, item %d, "
                  "rating %g)",
                  meta_.size(), user_id, item_id, static_cast<double>(rating)));
  }
  OmdsRecordMeta m;
  m.user_id = user_id;
  m.item_id = item_id;
  m.rating = rating;
  m.summary_len = static_cast<uint32_t>(summary.size());
  m.full_len = static_cast<uint32_t>(full_text.size());
  m.text_off = text_bytes_;
  OM_RETURN_IF_ERROR(Write(summary.data(), summary.size()));
  OM_RETURN_IF_ERROR(Write(full_text.data(), full_text.size()));
  if (file_ != nullptr) {
    // The text leaves RAM as it is written; a buffer is checksummed once,
    // in Finalize().
    text_crc_ = Crc32(summary, text_crc_);
    text_crc_ = Crc32(full_text, text_crc_);
  }
  text_bytes_ += summary.size() + full_text.size();
  meta_.push_back(m);
  return Status::OK();
}

Status OmdsWriter::Finalize() {
  OM_CHECK(!finalized_) << "OmdsWriter already finalized";
  finalized_ = true;
  // Pad the text section so the meta table lands 8-byte aligned.
  const uint64_t meta_offset = kTextOffset + AlignUp8(text_bytes_);
  const char zeros[8] = {};
  const size_t meta_bytes = meta_.size() * sizeof(OmdsRecordMeta);
  Status tail = Write(zeros, meta_offset - kTextOffset - text_bytes_);
  if (tail.ok()) tail = Write(meta_.data(), meta_bytes);

  OmdsHeader header;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kVersion;
  header.num_records = meta_.size();
  header.text_offset = kTextOffset;
  header.text_bytes = text_bytes_;
  header.meta_offset = meta_offset;
  header.meta_crc32 = Crc32(meta_.data(), meta_bytes);
  header.text_crc32 =
      file_ != nullptr ? text_crc_
                       : Crc32(buffer_.data() + kTextOffset, text_bytes_);
  header.header_crc32 =
      Crc32(&header, offsetof(OmdsHeader, header_crc32));
  if (file_ == nullptr) {
    std::memcpy(buffer_.data(), &header, sizeof header);
    return Status::OK();
  }

  bool written = tail.ok() && std::fseek(file_, 0, SEEK_SET) == 0 &&
                 std::fwrite(&header, 1, sizeof header, file_) ==
                     sizeof header &&
                 std::fflush(file_) == 0 &&
                 // fsync before rename, like WriteFileAtomic: the name must
                 // never point at data the disk has not seen.
                 ::fsync(fileno(file_)) == 0;
  if (std::fclose(file_) != 0) written = false;
  file_ = nullptr;
  if (!written) {
    std::remove(tmp_path_.c_str());
    return Status::IoError("write failed for " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::IoError(StrFormat("rename %s -> %s: %s", tmp_path_.c_str(),
                                     path_.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

Result<std::shared_ptr<const OmdsFile>> OmdsWriter::TakeImage() {
  OM_CHECK(finalized_ && path_.empty())
      << "TakeImage needs a finalized buffer-destination writer";
  return OmdsFile::FromBuffer(std::move(buffer_));
}

Status WriteDomainOmds(const DomainDataset& dataset, const std::string& path) {
  return WriteFileAtomic(path, dataset.image().bytes());
}

Result<DomainDataset> LoadDomainOmds(const std::string& path,
                                     const std::string& name) {
  Result<std::shared_ptr<const OmdsFile>> file = OmdsFile::Open(path);
  if (!file.ok()) return file.status();
  return DomainDataset(name, std::move(file).value());
}

}  // namespace data
}  // namespace omnimatch
