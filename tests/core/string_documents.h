#ifndef OMNIMATCH_TESTS_CORE_STRING_DOCUMENTS_H_
#define OMNIMATCH_TESTS_CORE_STRING_DOCUMENTS_H_

// The string document path the token tables replaced, kept as an
// executable reference for the equivalence tests: every use of a review
// tokenizes its text again, concatenates, maps the tokens through the
// vocabulary, truncates and pads.

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/aux_review.h"
#include "core/config.h"
#include "data/dataset.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace omnimatch {
namespace core {
namespace string_documents {

inline std::string TextOf(const data::DomainDataset& domain, int record,
                          TextField field) {
  const size_t i = static_cast<size_t>(record);
  return std::string(field == TextField::kSummary ? domain.ReviewSummary(i)
                                                  : domain.ReviewFullText(i));
}

inline std::vector<std::string> Texts(const data::DomainDataset& domain,
                                      const std::vector<int>& records,
                                      TextField field) {
  std::vector<std::string> texts;
  for (int r : records) texts.push_back(TextOf(domain, r, field));
  return texts;
}

inline std::vector<int> Records(data::IdSpan span) {
  return std::vector<int>(span.begin(), span.end());
}

/// Training-visible text — every source review, then the target reviews of
/// `train_users`, in record order — counted, then walked again adding
/// every token seen at least `min_count` times.
inline text::Vocabulary Vocabulary(const data::CrossDomainDataset& cross,
                                   const std::vector<int>& train_users,
                                   TextField field, int min_count) {
  std::vector<std::vector<std::string>> docs;
  for (size_t i = 0; i < cross.source().num_reviews(); ++i) {
    docs.push_back(text::Tokenize(
        TextOf(cross.source(), static_cast<int>(i), field)));
  }
  const std::unordered_set<int> train(train_users.begin(), train_users.end());
  for (size_t i = 0; i < cross.target().num_reviews(); ++i) {
    if (train.count(cross.target().ReviewUser(i)) > 0) {
      docs.push_back(text::Tokenize(
          TextOf(cross.target(), static_cast<int>(i), field)));
    }
  }
  std::unordered_map<std::string, int> counts;
  for (const auto& doc : docs) {
    for (const auto& tok : doc) ++counts[tok];
  }
  text::Vocabulary vocab;
  for (const auto& doc : docs) {
    for (const auto& tok : doc) {
      if (counts[tok] >= min_count) vocab.AddToken(tok);
    }
  }
  return vocab;
}

/// Concatenate, tokenize, encode, truncate, pad.
inline std::vector<int> Document(const std::vector<std::string>& reviews,
                                 const text::Vocabulary& vocab, int max_len) {
  std::vector<std::string> tokens;
  for (const std::string& review : reviews) {
    for (std::string& tok : text::Tokenize(review)) tokens.push_back(tok);
  }
  std::vector<int> ids = vocab.Encode(tokens);
  ids.resize(static_cast<size_t>(max_len), text::Vocabulary::kPadId);
  return ids;
}

/// Cold-start documents from Algorithm 1's review texts, falling back to the
/// user's own source reviews.
inline std::vector<std::vector<int>> ColdStartDocs(
    const AuxReviewGenerator& generator, const OmniMatchConfig& config,
    const text::Vocabulary& vocab, int user_id, Rng* rng) {
  const int samples =
      config.use_aux_reviews ? std::max(1, config.aux_eval_samples) : 1;
  std::vector<std::vector<int>> docs;
  for (int k = 0; k < samples; ++k) {
    std::vector<std::string> reviews;
    if (config.use_aux_reviews) {
      reviews = generator.GenerateForUser(user_id, rng);
    }
    if (reviews.empty()) reviews = generator.SourceReviews(user_id);
    docs.push_back(Document(reviews, vocab, config.doc_len));
  }
  return docs;
}

}  // namespace string_documents
}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_TESTS_CORE_STRING_DOCUMENTS_H_
