#ifndef OMNIMATCH_TEXT_VOCABULARY_H_
#define OMNIMATCH_TEXT_VOCABULARY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace omnimatch {
namespace text {

/// Token <-> id mapping with reserved ids.
///
/// Id 0 is `<pad>` (document padding), id 1 is `<unk>` (out-of-vocabulary
/// tokens at encode time). The vocabulary of a corpus is built by
/// TokenizeColumns (text/token_table.h) in the same pass that tokenizes it.
class Vocabulary {
 public:
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;

  Vocabulary();

  /// Adds a token (no-op if present); returns its id.
  int AddToken(const std::string& token);

  /// Token id, or kUnkId when absent.
  int IdOf(const std::string& token) const;

  /// Token string for an id. OM_CHECKs the id is in range.
  const std::string& TokenOf(int id) const;

  bool Contains(const std::string& token) const;

  /// Encodes tokens to ids (unknown -> kUnkId).
  std::vector<int> Encode(const std::vector<std::string>& tokens) const;

  /// Number of entries including the reserved ids.
  int size() const { return static_cast<int>(id_to_token_.size()); }

  /// Persists one token per line (reserved ids included).
  Status Save(const std::string& path) const;

  /// Loads a vocabulary saved with Save().
  static Result<Vocabulary> Load(const std::string& path);

 private:
  std::unordered_map<std::string, int> token_to_id_;
  std::vector<std::string> id_to_token_;
};

}  // namespace text
}  // namespace omnimatch

#endif  // OMNIMATCH_TEXT_VOCABULARY_H_
