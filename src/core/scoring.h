#ifndef OMNIMATCH_CORE_SCORING_H_
#define OMNIMATCH_CORE_SCORING_H_

#include <unordered_map>
#include <vector>

#include "core/model.h"

namespace omnimatch {
namespace core {

/// The one implementation of OmniMatch's cold-start scoring math, shared by
/// trainer evaluation and the serving Scorer: ExtractUserRows turns
/// documents into per-pass representation rows, and ExpectedRatings turns
/// (user rows, item row) pairs into ensemble-averaged expected ratings
/// through the model's rating head. Every forward here is
/// row-independent (fixed-order GEMM accumulation, per-row conv/pooling,
/// eval-mode dropout), so batching and chunking never change an output
/// bit: a pair's score depends only on its own user's documents and item.

/// The documents one user is scored from; a null pointer stands for the
/// all-pad document. `target` holds the ensemble (pass 0 = primary
/// document, then the Algorithm 1 variants); `source` is shared by every
/// pass and read only under hybrid inference.
struct UserDocs {
  std::vector<const std::vector<int>*> target;
  const std::vector<int>* source = nullptr;
};

/// One user's per-pass representation rows. rep_rows[k] is r_target =
/// invariant ⊕ specific (Eq. 10) of the k-th target document; under hybrid
/// inference hybrid_rows[k] is source-invariant ⊕ k-th target-specific.
struct UserRows {
  std::vector<std::vector<float>> rep_rows;
  std::vector<std::vector<float>> hybrid_rows;  // empty unless hybrid
  int passes() const { return static_cast<int>(rep_rows.size()); }
};

/// Pointer to docs[key], or null (the all-pad document) when absent.
const std::vector<int>* FindDoc(
    const std::unordered_map<int, std::vector<int>>& docs, int key);

/// A user's frozen evaluation documents: the primary target document (null
/// when the user has none), its ensemble variants, and its source document.
UserDocs FrozenUserDocs(
    int user, const std::unordered_map<int, std::vector<int>>& target_docs,
    const std::unordered_map<int, std::vector<std::vector<int>>>& variants,
    const std::unordered_map<int, std::vector<int>>& source_docs);

/// Runs the user extractors (eval mode) over every (user, pass) document of
/// `users`, in chunks; the result is aligned with `users`.
std::vector<UserRows> ExtractUserRows(OmniMatchModel* model,
                                      const std::vector<UserDocs>& users);

/// Item representation rows (eval mode), one per document.
std::vector<std::vector<float>> ExtractItemRows(
    OmniMatchModel* model, const std::vector<const std::vector<int>*>& docs);

/// One (user, item) pair to score.
struct ScorePair {
  const UserRows* user = nullptr;
  const std::vector<float>* item = nullptr;
};

/// Expected rating sum_c c·softmax(logits)_c per pair, with the logits from
/// OmniMatchModel::RatingLogits (Eq. 18) in eval mode (max-subtracted exp
/// in double, final product in float), averaged over the pair's own user
/// ensemble: each readout is weighted 1/(passes · readouts) and accumulated
/// in the order pass 0 plain, pass 0 hybrid, pass 1 plain, ... Every user
/// must have at least one pass.
std::vector<float> ExpectedRatings(OmniMatchModel* model,
                                   const std::vector<ScorePair>& pairs);

}  // namespace core
}  // namespace omnimatch

#endif  // OMNIMATCH_CORE_SCORING_H_
