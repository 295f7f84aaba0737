#include "text/vocabulary.h"

#include <fstream>

#include "common/check.h"

namespace omnimatch {
namespace text {

Vocabulary::Vocabulary() {
  AddToken("<pad>");
  AddToken("<unk>");
}

int Vocabulary::AddToken(const std::string& token) {
  auto [it, inserted] =
      token_to_id_.emplace(token, static_cast<int>(id_to_token_.size()));
  if (inserted) id_to_token_.push_back(token);
  return it->second;
}

int Vocabulary::IdOf(const std::string& token) const {
  auto it = token_to_id_.find(token);
  return it == token_to_id_.end() ? kUnkId : it->second;
}

const std::string& Vocabulary::TokenOf(int id) const {
  OM_CHECK(id >= 0 && id < size()) << "vocab id " << id;
  return id_to_token_[static_cast<size_t>(id)];
}

bool Vocabulary::Contains(const std::string& token) const {
  return token_to_id_.count(token) > 0;
}

std::vector<int> Vocabulary::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<int> ids;
  ids.reserve(tokens.size());
  for (const auto& tok : tokens) ids.push_back(IdOf(tok));
  return ids;
}

Status Vocabulary::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  for (const auto& tok : id_to_token_) out << tok << "\n";
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<Vocabulary> Vocabulary::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  Vocabulary vocab;
  std::string line;
  int index = 0;
  while (std::getline(in, line)) {
    if (index >= 2) {  // skip the reserved tokens written by Save()
      vocab.AddToken(line);
    } else {
      // Sanity: the file must start with the reserved tokens.
      if ((index == 0 && line != "<pad>") || (index == 1 && line != "<unk>")) {
        return Status::InvalidArgument(path +
                                       " is not a Vocabulary::Save file");
      }
    }
    ++index;
  }
  return vocab;
}

}  // namespace text
}  // namespace omnimatch
