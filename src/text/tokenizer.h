#ifndef OMNIMATCH_TEXT_TOKENIZER_H_
#define OMNIMATCH_TEXT_TOKENIZER_H_

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace omnimatch {
namespace text {

/// The byte classes of §5.2 tokenization, as <cctype> has them in the "C"
/// locale whatever the process locale is: an ASCII letter or digit maps to
/// its lowercase form, every other byte (bytes >= 0x80 included) to 0, a
/// separator.
inline constexpr std::array<char, 256> kTokenBytes = [] {
  std::array<char, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = static_cast<char>(c - 'A' + 'a');
  return table;
}();

/// Calls `emit(token)` for every token of `text`, in order. Each token is
/// a view into `*scratch`, which is overwritten by the next token, so a
/// caller that keeps tokens copies them and one that only looks them up
/// allocates nothing per token.
template <typename Emit>
void ForEachToken(std::string_view text, std::string* scratch, Emit&& emit) {
  const char* p = text.data();
  const char* const end = p + text.size();
  auto is_token_byte = [](char c) {
    return kTokenBytes[static_cast<unsigned char>(c)] != 0;
  };
  while (p != end) {
    while (p != end && !is_token_byte(*p)) ++p;
    if (p == end) return;
    const char* const start = p;
    while (p != end && is_token_byte(*p)) ++p;
    scratch->assign(start, p);
    for (char& c : *scratch) c = kTokenBytes[static_cast<unsigned char>(c)];
    emit(std::string_view(*scratch));
  }
}

/// Tokenizes review text following §5.2 of the paper: lowercase, strip all
/// punctuation, split on whitespace. Digits and letters are kept; every
/// other character becomes a separator (kTokenBytes).
std::vector<std::string> Tokenize(std::string_view text);

}  // namespace text
}  // namespace omnimatch

#endif  // OMNIMATCH_TEXT_TOKENIZER_H_
