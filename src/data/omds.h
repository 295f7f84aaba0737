#ifndef OMNIMATCH_DATA_OMDS_H_
#define OMNIMATCH_DATA_OMDS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "data/dataset.h"

namespace omnimatch {
namespace data {

/// OMDS ("OmniMatch Dataset") v1: the binary, memory-mappable record format
/// every DomainDataset stores its reviews in, in RAM or in a mapped file
/// (DESIGN.md "Out-of-core data path"). Layout, all little-endian:
///
///   [ 0,  64)  OmdsHeader (below)
///   [64,  64 + text_bytes)           text blob: per record, the summary
///                                    bytes immediately followed by the
///                                    full_text bytes — no separators
///   [meta_offset, + 32*num_records)  OmdsRecordMeta table
///
/// meta_offset is the text section's end rounded up to 8 bytes, so every
/// OmdsRecordMeta (whose widest member is the 8-byte text_off) is 8-byte
/// aligned both in the file and — because mmap bases are page-aligned — in
/// memory. Integrity: CRC-32 over the meta table and over the text blob,
/// plus a header CRC; validation verifies all three, requires the header's
/// reserved word and the padding before the meta table to be zero, and
/// bounds-checks every record, so a truncated or bit-flipped image is
/// rejected instead of served.

/// Fixed 32-byte per-record entry. text_off is relative to the text
/// section's start (file offset 64), so records are position-independent.
struct OmdsRecordMeta {
  int32_t user_id = 0;
  int32_t item_id = 0;
  float rating = 0.0f;
  uint32_t summary_len = 0;
  uint64_t text_off = 0;
  uint32_t full_len = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(OmdsRecordMeta) == 32, "OMDS meta layout is fixed");

/// A validated OMDS image, the record storage behind every DomainDataset.
/// It owns its bytes: either a read-only memory mapping of a file (Open) or
/// an in-memory buffer (FromBuffer, which OmdsWriter::TakeImage feeds).
/// Both run the same validation. Immutable after construction; shared via
/// shared_ptr so DomainDataset copies (and string_views into the text blob)
/// keep the bytes alive.
class OmdsFile {
 public:
  static Result<std::shared_ptr<const OmdsFile>> Open(const std::string& path);
  /// Takes ownership of `bytes` without copying them and validates them like
  /// Open(). `origin` names the image in error messages.
  static Result<std::shared_ptr<const OmdsFile>> FromBuffer(
      std::string bytes, const std::string& origin = "<buffer>");

  size_t num_records() const { return num_records_; }
  OmdsRecordMeta meta(size_t i) const {
    OmdsRecordMeta m;
    std::memcpy(&m, meta_ + i * sizeof(OmdsRecordMeta), sizeof m);
    return m;
  }
  std::string_view summary(size_t i) const;
  std::string_view full_text(size_t i) const;
  /// The whole image: header, text section and meta table.
  std::string_view bytes() const { return bytes_; }

 private:
  OmdsFile() = default;
  /// The checks Open() and FromBuffer() share; sets the section pointers.
  Status Validate(const std::string& origin);

  MemoryMappedFile map_;  // file-backed image
  std::string buffer_;    // buffer-backed image
  std::string_view bytes_;  // whichever of the two holds the image
  const char* text_ = nullptr;  // text section base
  const char* meta_ = nullptr;  // meta table base (8-byte aligned)
  size_t num_records_ = 0;
};

/// Builds an OMDS image record by record. Two destinations share one Add
/// (the only record validator) and one Finalize (meta table, CRCs, header):
///   * memory buffer (the default): the image grows in RAM and TakeImage()
///     hands it to OmdsFile::FromBuffer without copying it;
///   * streaming file (after Open): text goes straight to disk and only the
///     32-byte metas accumulate in RAM, so a million-user world can be
///     converted without materializing it. Writes to a UniqueTmpPath and
///     renames into place on Finalize() — crash-safe like WriteFileAtomic.
///     Abandoning a writer (destruction without Finalize) removes the tmp
///     file.
class OmdsWriter {
 public:
  OmdsWriter();
  ~OmdsWriter();
  OmdsWriter(const OmdsWriter&) = delete;
  OmdsWriter& operator=(const OmdsWriter&) = delete;

  /// Switches to the streaming-file destination; must precede every Add.
  Status Open(const std::string& path);
  /// Rejects a record whose ids are negative or whose rating is outside
  /// [1, 5] (NaN included).
  Status Add(int user_id, int item_id, float rating, std::string_view summary,
             std::string_view full_text);
  /// Pads the text, appends the meta table and writes the header with its
  /// CRCs; a file is then fsynced and renamed into place.
  Status Finalize();
  /// Buffer destination, after Finalize(): the validated image.
  Result<std::shared_ptr<const OmdsFile>> TakeImage();

  size_t num_records() const { return meta_.size(); }

 private:
  Status Write(const void* data, size_t size);

  std::string path_;  // empty for the buffer destination
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::vector<OmdsRecordMeta> meta_;
  uint64_t text_bytes_ = 0;
  uint32_t text_crc_ = 0;  // streaming CRC of the text; file destination only
  bool finalized_ = false;
};

/// Writes the image of `dataset` to `path` with WriteFileAtomic.
Status WriteDomainOmds(const DomainDataset& dataset, const std::string& path);

/// Opens `path` as a memory-mapped DomainDataset named `name` — the
/// out-of-core counterpart of LoadDomainTsv.
Result<DomainDataset> LoadDomainOmds(const std::string& path,
                                     const std::string& name);

}  // namespace data
}  // namespace omnimatch

#endif  // OMNIMATCH_DATA_OMDS_H_
