#ifndef OMNIMATCH_COMMON_IO_H_
#define OMNIMATCH_COMMON_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace omnimatch {

/// Reads a whole binary file into a string. IoError when the file cannot be
/// opened or read.
Result<std::string> ReadFileToString(const std::string& path);

/// A staging path `<path>.tmp.<pid>.<n>` in the same directory as `path`
/// (so a later rename stays atomic — same filesystem), unique per call even
/// across concurrent processes and threads targeting the same destination.
std::string UniqueTmpPath(const std::string& path);

/// Crash-safe file write: the payload goes to a UniqueTmpPath() staging
/// file, is flushed and fsync'd, and only then renamed over `path`. A crash
/// at any point leaves either the old file or the new file — never a torn
/// half-write; concurrent writers never clobber each other's staging files.
Status WriteFileAtomic(const std::string& path, std::string_view data);

/// A CRC-framed file format. The file is a 20-byte little-endian header
///   bytes 0-3   magic
///   bytes 4-7   format version (u32)
///   bytes 8-15  payload size in bytes (u64)
///   bytes 16-19 CRC-32 of the payload (u32)
/// followed by exactly `payload size` payload bytes. OMCK checkpoints and
/// OMWT weight files share this framing; each names its own magic, version
/// and the noun its error messages use.
struct FrameFormat {
  char magic[4];
  uint32_t version;
  const char* noun;  // "checkpoint", "weight file"
};

/// Writes the header for `payload`, then the payload itself, with the
/// crash-safety of WriteFileAtomic. The payload is written from where it
/// lies, not copied behind the header first.
Status WriteFramedFile(const std::string& path, const FrameFormat& format,
                       std::string_view payload);

/// Checks the header of the framed file image `file` (read from `path`,
/// which names it in messages) against `format` and the payload's CRC, and
/// returns a view of the payload inside `file`. InvalidArgument for a file
/// shorter than the header, a foreign magic, another version, a size that
/// differs from the header's in either direction, or a checksum mismatch.
Result<std::string_view> ParseFramedFile(const std::string& path,
                                         std::string_view file,
                                         const FrameFormat& format);

/// Creates `path` as a directory if it does not already exist (single
/// level, like mkdir -p for one component at a time). OK when the directory
/// already exists; IoError otherwise.
Status EnsureDirectory(const std::string& path);

/// Read-only memory mapping of a whole file (mmap PROT_READ MAP_PRIVATE).
///
/// The out-of-core data path: a mapped OMDS domain file is paged in
/// on demand by the kernel, so resident memory tracks the working set
/// instead of the file size. Lifetime contract: data() stays valid exactly
/// as long as this object lives — holders that hand out string_views into
/// the mapping (DomainDataset via OmdsFile) keep it alive via shared_ptr.
/// The mapping base is page-aligned, so any record structure placed at an
/// 8-byte-aligned file offset is correctly aligned in memory.
///
/// Move-only: the destructor unmaps.
class MemoryMappedFile {
 public:
  MemoryMappedFile() = default;
  ~MemoryMappedFile();
  MemoryMappedFile(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile& operator=(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile(const MemoryMappedFile&) = delete;
  MemoryMappedFile& operator=(const MemoryMappedFile&) = delete;

  /// Maps `path` read-only. An empty file yields a valid zero-size mapping
  /// (data() == nullptr, size() == 0). IoError when the file cannot be
  /// opened, stat'd or mapped.
  static Result<MemoryMappedFile> Open(const std::string& path);

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

/// Append-only little-endian binary encoder for checkpoint payloads.
///
/// All multi-byte values are written via memcpy in host order; the library
/// targets little-endian platforms only (asserted in io.cc) so files are
/// portable across the machines we run on.
class ByteWriter {
 public:
  template <typename T>
  void Write(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t at = buffer_.size();
    buffer_.resize(at + sizeof(T));
    std::memcpy(buffer_.data() + at, &value, sizeof(T));
  }

  /// Length-prefixed (u64) raw byte blob.
  void WriteBytes(const void* data, size_t size) {
    Write<uint64_t>(size);
    size_t at = buffer_.size();
    buffer_.resize(at + size);
    if (size > 0) std::memcpy(buffer_.data() + at, data, size);
  }

  void WriteString(std::string_view s) { WriteBytes(s.data(), s.size()); }

  /// Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(v.data(), v.size() * sizeof(T));
  }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked reader over a byte buffer written by ByteWriter. Every
/// accessor returns false (instead of reading past the end) when the buffer
/// is truncated, so corrupt checkpoints surface as clean Status errors.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* out) {
    uint64_t size = 0;
    if (!Read(&size) || remaining() < size) return false;
    out->assign(data_.data() + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return true;
  }

  /// Reads a length-prefixed vector; the stored byte count must be an exact
  /// multiple of sizeof(T).
  template <typename T>
  bool ReadVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t bytes = 0;
    if (!Read(&bytes) || remaining() < bytes || bytes % sizeof(T) != 0) {
      return false;
    }
    out->resize(static_cast<size_t>(bytes / sizeof(T)));
    if (bytes > 0) std::memcpy(out->data(), data_.data() + pos_, bytes);
    pos_ += static_cast<size_t>(bytes);
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_IO_H_
