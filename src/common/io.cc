#include "common/io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <initializer_list>

#include "common/crc32.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace omnimatch {

static_assert(std::endian::native == std::endian::little,
              "checkpoint format is little-endian only");
static_assert(sizeof(float) == 4 && sizeof(double) == 8,
              "checkpoint format assumes IEEE-754 floats");

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(path + ": " + std::strerror(errno));
  }
  std::string data;
  // Size the string once for a regular file instead of regrowing it chunk
  // by chunk; the loop below still reads whatever is there.
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long end = std::ftell(f);
    if (end > 0) data.reserve(static_cast<size_t>(end));
    std::rewind(f);
  }
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IoError("read failed for " + path);
  return data;
}

std::string UniqueTmpPath(const std::string& path) {
  // pid + process-local counter: concurrent writers (other processes, other
  // threads) targeting the same destination each stage into their own tmp
  // file, so the losing rename replaces — never misses — and no writer can
  // observe a half-written staging file it didn't create.
  static std::atomic<uint64_t> counter{0};
  return StrFormat("%s.tmp.%d.%llu", path.c_str(),
                   static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

namespace {

constexpr size_t kFrameHeaderSize = 4 + 4 + 8 + 4;

/// WriteFileAtomic over the concatenation of `parts`.
Status WriteFileAtomicParts(const std::string& path,
                            std::initializer_list<std::string_view> parts) {
  std::string tmp = UniqueTmpPath(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(tmp + ": " + std::strerror(errno));
  }
  bool ok = true;
  for (std::string_view part : parts) {
    ok = ok && (part.empty() ||
                std::fwrite(part.data(), 1, part.size(), f) == part.size());
  }
  ok = ok && std::fflush(f) == 0;
  // fsync before rename: otherwise the rename can hit disk before the data
  // and a power loss leaves a valid name pointing at garbage.
  ok = ok && ::fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(
        StrFormat("rename %s -> %s: %s", tmp.c_str(), path.c_str(),
                  std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  return WriteFileAtomicParts(path, {data});
}

Status WriteFramedFile(const std::string& path, const FrameFormat& format,
                       std::string_view payload) {
  ByteWriter header;
  for (char c : format.magic) header.Write<char>(c);
  header.Write<uint32_t>(format.version);
  header.Write<uint64_t>(payload.size());
  header.Write<uint32_t>(Crc32(payload));
  return WriteFileAtomicParts(path, {header.buffer(), payload});
}

Result<std::string_view> ParseFramedFile(const std::string& path,
                                         std::string_view file,
                                         const FrameFormat& format) {
  if (file.size() < kFrameHeaderSize) {
    return Status::InvalidArgument(
        StrFormat("%s: too small to be a %s", path.c_str(), format.noun));
  }
  if (std::memcmp(file.data(), format.magic, sizeof(format.magic)) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: not a %s", path.c_str(), format.noun));
  }
  ByteReader header(file.substr(sizeof(format.magic),
                                kFrameHeaderSize - sizeof(format.magic)));
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t crc = 0;
  header.Read(&version);
  header.Read(&payload_size);
  header.Read(&crc);
  if (version != format.version) {
    return Status::InvalidArgument(
        StrFormat("%s: %s version %u, this build reads %u", path.c_str(),
                  format.noun, version, format.version));
  }
  std::string_view payload = file.substr(kFrameHeaderSize);
  // An exact size match rejects both truncation AND trailing garbage — an
  // appended byte is as much corruption as a missing one.
  if (payload.size() != payload_size) {
    return Status::InvalidArgument(StrFormat(
        "%s: payload is %zu bytes, header promises %llu "
        "(truncated or trailing garbage)",
        path.c_str(), payload.size(),
        static_cast<unsigned long long>(payload_size)));
  }
  OM_TRACE_SPAN("io.frame_crc32");
  if (Crc32(payload) != crc) {
    return Status::InvalidArgument(path + ": payload checksum mismatch");
  }
  return payload;
}

Status EnsureDirectory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("mkdir " + path + ": " + std::strerror(errno));
}

MemoryMappedFile::~MemoryMappedFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

MemoryMappedFile::MemoryMappedFile(MemoryMappedFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MemoryMappedFile& MemoryMappedFile::operator=(
    MemoryMappedFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, size_);
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MemoryMappedFile> MemoryMappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status err = Status::IoError("fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  MemoryMappedFile mapped;
  mapped.size_ = static_cast<size_t>(st.st_size);
  if (mapped.size_ > 0) {
    void* addr =
        ::mmap(nullptr, mapped.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      Status err =
          Status::IoError("mmap " + path + ": " + std::strerror(errno));
      ::close(fd);
      return err;
    }
    mapped.addr_ = addr;
  }
  // The mapping outlives the descriptor; closing it releases nothing mapped.
  ::close(fd);
  return mapped;
}

}  // namespace omnimatch
