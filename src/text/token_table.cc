#include "text/token_table.h"

#include <limits>
#include <string>
#include <string_view>

#include "text/tokenizer.h"

namespace omnimatch {
namespace text {

namespace {

/// Interns token strings under dense provisional ids 0, 1, 2, ... in order
/// of first sight: open addressing with linear probing over a power-of-two
/// slot array, and every token's bytes packed in one arena.
class InternTable {
 public:
  InternTable() : slots_(kInitialSlots), starts_(1, 0) {}

  /// The token's id, and whether this call assigned it.
  std::pair<int, bool> Intern(std::string_view token) {
    const uint64_t hash = Hash(token);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id < 0) {
        const int id = static_cast<int>(starts_.size() - 1);
        slot = {hash, id};
        chars_.append(token);
        starts_.push_back(static_cast<uint32_t>(chars_.size()));
        if (2 * (starts_.size() - 1) > slots_.size()) Grow();
        return {id, true};
      }
      if (slot.hash == hash && Token(slot.id) == token) return {slot.id, false};
    }
  }

  std::string_view Token(int id) const {
    const size_t i = static_cast<size_t>(id);
    return std::string_view(chars_).substr(starts_[i],
                                           starts_[i + 1] - starts_[i]);
  }

  size_t size() const { return starts_.size() - 1; }

 private:
  struct Slot {
    uint64_t hash = 0;
    int id = -1;  // -1: empty
  };
  static constexpr size_t kInitialSlots = 1024;

  /// FNV-1a, 64-bit.
  static uint64_t Hash(std::string_view token) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : token) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h;
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id < 0) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].id >= 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::string chars_;             // every token's bytes, by id
  std::vector<uint32_t> starts_;  // size() + 1 offsets into chars_
};

}  // namespace

std::vector<TokenTable> TokenizeColumns(const std::vector<TextColumn>& columns,
                                        int min_count, Vocabulary* vocab) {
  OM_CHECK_GE(min_count, 1);
  OM_CHECK(vocab != nullptr);
  // One pass interns every token under a provisional id (first occurrence
  // in any record), counting only counted records; a second pass over the
  // ids alone maps provisional ids to vocabulary ids.
  InternTable interned;
  std::vector<int> counts;         // counted occurrences, by provisional id
  std::vector<int> first_counted;  // provisional ids, in order
  std::string scratch;
  std::vector<TokenTable> tables(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    const TextColumn& column = columns[c];
    TokenTable& table = tables[c];
    table.offsets_.reserve(column.num_records + 1);
    for (size_t r = 0; r < column.num_records; ++r) {
      const bool counted = column.counted(r);
      ForEachToken(column.text(r), &scratch, [&](std::string_view token) {
        const auto [id, inserted] = interned.Intern(token);
        if (inserted) counts.push_back(0);
        if (counted && counts[static_cast<size_t>(id)]++ == 0) {
          first_counted.push_back(id);
        }
        table.ids_.push_back(id);
      });
      OM_CHECK_LE(table.ids_.size(),
                  static_cast<size_t>(std::numeric_limits<uint32_t>::max()))
          << "token table overflows 32-bit offsets";
      table.offsets_.push_back(static_cast<uint32_t>(table.ids_.size()));
    }
  }

  *vocab = Vocabulary();
  std::vector<int> final_id(interned.size(), Vocabulary::kUnkId);
  for (int id : first_counted) {
    if (counts[static_cast<size_t>(id)] >= min_count) {
      final_id[static_cast<size_t>(id)] =
          vocab->AddToken(std::string(interned.Token(id)));
    }
  }
  for (TokenTable& table : tables) {
    for (int& id : table.ids_) id = final_id[static_cast<size_t>(id)];
    table.ids_.shrink_to_fit();
  }
  return tables;
}

}  // namespace text
}  // namespace omnimatch
