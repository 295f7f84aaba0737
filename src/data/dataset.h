#ifndef OMNIMATCH_DATA_DATASET_H_
#define OMNIMATCH_DATA_DATASET_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/csr.h"
#include "data/types.h"

namespace omnimatch {
namespace data {

class OmdsFile;

/// All reviews of one domain plus the two lookup dictionaries the paper's
/// Algorithm 1 preprocessing builds (§4.1):
///   1. user_id -> [(item, rating, review)] — RecordsOfUser()
///   2. (item_id, rating) -> [user_id]      — UsersWhoRated()
/// Both dictionaries (and the item index) are CSR-packed flat arrays built
/// in parallel shards with a deterministic merge order, so index
/// construction is thread-count independent and a lookup is one binary
/// search over a contiguous key array — no per-bucket heap allocations,
/// which is what makes the million-user worlds fit.
///
/// The records live in one validated OMDS image (data/omds.h), shared and
/// read-only: an in-memory buffer (LoadDomainTsv, SyntheticWorld, any
/// OmdsWriter) or a mapped file (LoadDomainOmds), behind the same
/// accessors. A dataset is immutable; its indices are built once, in the
/// constructor, and copies share the image.
class DomainDataset {
 public:
  /// An empty, unnamed domain.
  DomainDataset();
  /// Indexes the records of `image` (never null).
  DomainDataset(std::string name, std::shared_ptr<const OmdsFile> image);

  const std::string& name() const { return name_; }
  /// The OMDS image holding the records.
  const OmdsFile& image() const;

  size_t num_reviews() const;

  // --- per-record accessors ---
  int ReviewUser(size_t i) const;
  int ReviewItem(size_t i) const;
  float ReviewRating(size_t i) const;
  /// Views are valid as long as the dataset (or any copy sharing its image)
  /// is alive.
  std::string_view ReviewSummary(size_t i) const;
  std::string_view ReviewFullText(size_t i) const;

  /// Users and items present, sorted ascending.
  const std::vector<int>& users() const { return user_index_.keys(); }
  const std::vector<int>& items() const { return item_index_.keys(); }

  bool HasUser(int user_id) const { return !RecordsOfUser(user_id).empty(); }
  bool HasItem(int item_id) const { return !RecordsOfItem(item_id).empty(); }

  /// Indices (into records) of a user's reviews, ascending; empty if
  /// unknown user.
  IdSpan RecordsOfUser(int user_id) const;

  /// Indices (into records) of an item's reviews; empty if unknown item.
  IdSpan RecordsOfItem(int item_id) const;

  /// The like-minded lookup: users who rated `item_id` exactly `rating`.
  /// Ratings match at half-star resolution (4.5 and 5.0 are distinct
  /// buckets). The returned span is sorted ascending and duplicate-free —
  /// a user appears once even if they reviewed the item with that rating
  /// several times. Empty if none.
  IdSpan UsersWhoRated(int item_id, float rating) const;

  /// The packed (item, rating) -> users dictionary itself. Key layout:
  /// ItemRatingKey(). AuxReviewGenerator derives its eligible-filtered view
  /// from this.
  const CsrIndex<long long>& item_rating_index() const {
    return item_rating_index_;
  }

  /// key = item_id * 16 + lround(rating * 2): half-step rating buckets, so
  /// half-star ratings never collide with their neighbours.
  static long long ItemRatingKey(int item_id, float rating);

  /// Mean rating across all records (the mu fallback of rating baselines).
  /// Returns 3.0 for an empty dataset.
  float GlobalMeanRating() const;

  /// Average number of reviews per user (the paper's M in §4.1).
  double MeanReviewsPerUser() const;

 private:
  std::string name_;
  std::shared_ptr<const OmdsFile> image_;

  CsrIndex<int> user_index_;              // user -> record indices
  CsrIndex<int> item_index_;              // item -> record indices
  CsrIndex<long long> item_rating_index_;  // (item, rating) -> users
};

/// A (source, target) domain pair plus the overlap bookkeeping of §2:
/// U^o = U^s ∩ U^t.
class CrossDomainDataset {
 public:
  CrossDomainDataset() = default;
  CrossDomainDataset(DomainDataset source, DomainDataset target);

  const DomainDataset& source() const { return source_; }
  const DomainDataset& target() const { return target_; }

  /// Users with records in both domains, sorted.
  const std::vector<int>& overlapping_users() const {
    return overlapping_users_;
  }

  /// "<source> -> <target>", e.g. "Books -> Movies".
  std::string ScenarioName() const;

 private:
  DomainDataset source_;
  DomainDataset target_;
  std::vector<int> overlapping_users_;
};

}  // namespace data
}  // namespace omnimatch

#endif  // OMNIMATCH_DATA_DATASET_H_
