#include "text/tokenizer.h"

namespace omnimatch {
namespace text {

std::vector<std::string> Tokenize(std::string_view input) {
  std::vector<std::string> tokens;
  std::string scratch;
  ForEachToken(input, &scratch,
               [&](std::string_view token) { tokens.emplace_back(token); });
  return tokens;
}

}  // namespace text
}  // namespace omnimatch
