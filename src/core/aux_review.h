#ifndef OMNIMATCH_CORE_AUX_REVIEW_H_
#define OMNIMATCH_CORE_AUX_REVIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "core/config.h"
#include "data/dataset.h"
#include "text/token_table.h"
#include "text/vocabulary.h"

namespace omnimatch {
namespace core {

/// One step of Algorithm 1 for a single source-domain purchase record:
/// which like-minded user was picked and which of their target-domain
/// reviews was appended to the auxiliary document. Used by the §5.10 case
/// study and by tests.
struct AuxReviewChoice {
  int source_item = -1;
  float rating = 0.0f;
  std::string source_review;      // the cold user's own source review
  int num_like_minded = 0;        // |like_minded_t| for this record
  int like_minded_user = -1;      // -1 when no like-minded user existed
  int target_item = -1;           // item whose review was borrowed
  std::string aux_review;         // empty when skipped
};

/// Full generation trace for one cold-start user.
struct AuxReviewTrace {
  int user_id = -1;
  std::vector<AuxReviewChoice> choices;
};

/// The Auxiliary Reviews Generation Module (§4.1, Algorithm 1).
///
/// For a cold-start user u: for every purchase record (item, rating) of u in
/// the source domain, find the overlapping users who gave the *same item the
/// same rating* (the like-minded users, restricted to `eligible_users` —
/// the training overlap users whose target-domain data the model may see),
/// pick one uniformly at random, pick one of their target-domain records
/// uniformly at random, and append that record's review text to u's
/// auxiliary target-domain document.
///
/// The constructor pre-filters the source's CSR (item, rating) -> users
/// dictionary down to the eligible users once, so GenerateForUser draws a
/// like-minded user with a single UniformU32 over a contiguous span — no
/// per-record candidate list is materialized and no hash probes run on the
/// hot path. The draw is bit-identical to filtering the raw bucket per
/// record: buckets are sorted and duplicate-free, the eligibility filter
/// preserves order, and the cold user's own entry (the one per-query
/// exclusion) is skipped by index remapping around its lower_bound position
/// without consuming extra randomness.
class AuxReviewGenerator {
 public:
  /// `cross` must outlive the generator. `eligible_users` are the users
  /// whose target reviews may be borrowed (train overlap users).
  AuxReviewGenerator(const data::CrossDomainDataset* cross,
                     std::vector<int> eligible_users,
                     TextField field = TextField::kSummary);

  /// Runs Algorithm 1's inner loop for one user. Returns the borrowed
  /// target-domain record indices (one per usable source record, in source
  /// record order). `trace`, when non-null, receives the full decision log
  /// including skipped records (tracing is the only mode that materializes
  /// per-choice strings). The one implementation of Algorithm 1: every
  /// method below and ColdStartDocs draw through it.
  std::vector<int> GenerateRecords(int user_id, Rng* rng,
                                   AuxReviewTrace* trace = nullptr) const;

  /// GenerateRecords as review texts: the configured text field of each
  /// borrowed record.
  std::vector<std::string> GenerateForUser(int user_id, Rng* rng,
                                           AuxReviewTrace* trace = nullptr) const;

  /// Algorithm 1's outer loop: auxiliary documents for every user in
  /// `cold_users`, in order, drawn from one shared sequential stream.
  std::vector<std::vector<std::string>> GenerateAll(
      const std::vector<int>& cold_users, Rng* rng) const;

  /// Parallel outer loop: each user draws from its own stream seeded
  /// PerUserSeed(base_seed, user), so the result is independent of thread
  /// count and of the order users are processed in — and matches what the
  /// serving path generates online for the same (base_seed, user) pair.
  std::vector<std::vector<std::string>> GenerateAll(
      const std::vector<int>& cold_users, uint64_t base_seed) const;

  /// The per-user seeding contract shared by offline generation and online
  /// cold-start admission (serve's ModelSnapshot uses its version digest as
  /// `base_seed`): base ^ SplitMix64(uint32(user)). Mixing the id through
  /// SplitMix64 decorrelates the streams of adjacent user ids.
  static uint64_t PerUserSeed(uint64_t base_seed, int user_id) {
    return base_seed ^
           SplitMix64(static_cast<uint64_t>(static_cast<uint32_t>(user_id)));
  }

  /// The user's own source-domain records, ascending.
  data::IdSpan SourceRecords(int user_id) const {
    return cross_->source().RecordsOfUser(user_id);
  }

  /// The user's own source-domain review texts, in record order.
  std::vector<std::string> SourceReviews(int user_id) const;

  const std::vector<int>& eligible_users() const {
    return eligible_sorted_;
  }

 private:
  const data::CrossDomainDataset* cross_;
  std::vector<int> eligible_sorted_;
  /// source.item_rating_index() restricted to eligible users: same keys,
  /// buckets sorted / duplicate-free / eligible-only. Rebuilding-free view —
  /// valid as long as the source dataset's indices are.
  data::CsrIndex<long long> eligible_ir_;
  TextField field_;
};

/// Every review of one scenario tokenized once per (dataset, vocabulary,
/// text field): the vocabulary of training-visible text and one token-id
/// table per domain, indexed by record. Every document — fixed, per-step
/// training and Algorithm 1 — is built from id spans of these tables.
struct ReviewTokens {
  text::Vocabulary vocab;
  text::TokenTable source;
  text::TokenTable target;
};

/// Tokenizes the `field` text of every record of `cross` once. The
/// vocabulary is built from training-visible text — every source review,
/// then the target reviews of `train_users`, each in record order — and
/// keeps the tokens seen at least `min_count` times there, in order of
/// first occurrence. Cold users' target reviews are tokenized too (the
/// oracle documents read them) but never enter the vocabulary.
std::shared_ptr<const ReviewTokens> TokenizeReviews(
    const data::CrossDomainDataset& cross, const std::vector<int>& train_users,
    TextField field, int min_count);

/// The cold-start target documents of `user_id` (§5.2 evaluation
/// ensemble): aux_eval_samples Algorithm 1 documents drawn from `rng` in
/// order (first = primary, rest = ensemble variants), each falling back to
/// the user's raw source reviews when Algorithm 1 finds no like-minded
/// match. With use_aux_reviews off (the w/o-AuxReviews ablation) it is one
/// document of the raw source reviews, and `rng` is not drawn from.
/// `tokens` must come from the generator's dataset and text field.
std::vector<std::vector<int>> ColdStartDocs(const AuxReviewGenerator& generator,
                                            const OmniMatchConfig& config,
                                            const ReviewTokens& tokens,
                                            int user_id, Rng* rng);

}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_CORE_AUX_REVIEW_H_
