#ifndef OMNIMATCH_COMMON_ID_SPAN_H_
#define OMNIMATCH_COMMON_ID_SPAN_H_

#include <cstddef>
#include <ostream>
#include <vector>

namespace omnimatch {

/// Non-owning view of a contiguous run of int ids: a bucket inside a
/// data::CsrIndex, a record's tokens in a text::TokenTable, or a
/// std::vector<int>. Cheap to copy (pointer + length); valid as long as the
/// owner is alive and unchanged. Supports range-for and comparison with
/// std::vector<int> so call sites (and tests) read like the
/// map-of-vectors API it replaced.
class IdSpan {
 public:
  IdSpan() = default;
  IdSpan(const int* data, size_t size) : data_(data), size_(size) {}
  // Implicit, like std::span: a vector of ids is a run of ids.
  IdSpan(const std::vector<int>& ids) : data_(ids.data()), size_(ids.size()) {}

  const int* begin() const { return data_; }
  const int* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int operator[](size_t i) const { return data_[i]; }
  int front() const { return data_[0]; }
  int back() const { return data_[size_ - 1]; }

 private:
  const int* data_ = nullptr;
  size_t size_ = 0;
};

inline bool operator==(const IdSpan& a, const IdSpan& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}
inline bool operator==(const IdSpan& a, const std::vector<int>& b) {
  return a == IdSpan(b);
}
inline bool operator==(const std::vector<int>& a, const IdSpan& b) {
  return b == a;
}
inline bool operator!=(const IdSpan& a, const IdSpan& b) { return !(a == b); }

/// Readable gtest/log output: "[1, 5, 9]".
inline std::ostream& operator<<(std::ostream& os, const IdSpan& s) {
  os << '[';
  for (size_t i = 0; i < s.size(); ++i) {
    if (i > 0) os << ", ";
    os << s[i];
  }
  return os << ']';
}

}  // namespace omnimatch

#endif  // OMNIMATCH_COMMON_ID_SPAN_H_
