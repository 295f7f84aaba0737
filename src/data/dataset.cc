#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "data/omds.h"

namespace omnimatch {
namespace data {

namespace {

/// The image of a record-less domain, shared by every default-constructed
/// dataset.
std::shared_ptr<const OmdsFile> EmptyImage() {
  static const std::shared_ptr<const OmdsFile> empty = [] {
    OmdsWriter writer;
    Status finalized = writer.Finalize();
    OM_CHECK(finalized.ok()) << finalized.ToString();
    Result<std::shared_ptr<const OmdsFile>> image = writer.TakeImage();
    OM_CHECK(image.ok()) << image.status().ToString();
    return std::move(image).value();
  }();
  return empty;
}

}  // namespace

long long DomainDataset::ItemRatingKey(int item_id, float rating) {
  // Half-step buckets: 4.5 and 5.0 must key differently (Algorithm 1's
  // "same rating" is exact, and half-star ratings are legal inputs).
  int r = static_cast<int>(std::lround(rating * 2.0f));
  OM_CHECK(r >= 0 && r <= 15) << "rating out of key range: " << rating;
  return static_cast<long long>(item_id) * 16 + r;
}

DomainDataset::DomainDataset() : DomainDataset("", EmptyImage()) {}

DomainDataset::DomainDataset(std::string name,
                             std::shared_ptr<const OmdsFile> image)
    : name_(std::move(name)), image_(std::move(image)) {
  OM_CHECK(image_ != nullptr);
  const size_t n = num_reviews();
  user_index_ = CsrIndex<int>::Build(
      n, [this](size_t i) { return ReviewUser(i); },
      [](size_t i) { return static_cast<int>(i); },
      /*sort_unique_values=*/false);
  item_index_ = CsrIndex<int>::Build(
      n, [this](size_t i) { return ReviewItem(i); },
      [](size_t i) { return static_cast<int>(i); },
      /*sort_unique_values=*/false);
  // A user who reviewed the same item with the same rating twice must still
  // appear once per bucket: Algorithm 1 samples like-minded users uniformly,
  // so duplicates would skew the draw — hence sort_unique_values.
  item_rating_index_ = CsrIndex<long long>::Build(
      n, [this](size_t i) { return ItemRatingKey(ReviewItem(i),
                                                 ReviewRating(i)); },
      [this](size_t i) { return ReviewUser(i); },
      /*sort_unique_values=*/true);
}

const OmdsFile& DomainDataset::image() const { return *image_; }

size_t DomainDataset::num_reviews() const { return image_->num_records(); }

int DomainDataset::ReviewUser(size_t i) const {
  return image_->meta(i).user_id;
}

int DomainDataset::ReviewItem(size_t i) const {
  return image_->meta(i).item_id;
}

float DomainDataset::ReviewRating(size_t i) const {
  return image_->meta(i).rating;
}

std::string_view DomainDataset::ReviewSummary(size_t i) const {
  return image_->summary(i);
}

std::string_view DomainDataset::ReviewFullText(size_t i) const {
  return image_->full_text(i);
}

IdSpan DomainDataset::RecordsOfUser(int user_id) const {
  return user_index_.Find(user_id);
}

IdSpan DomainDataset::RecordsOfItem(int item_id) const {
  return item_index_.Find(item_id);
}

IdSpan DomainDataset::UsersWhoRated(int item_id, float rating) const {
  return item_rating_index_.Find(ItemRatingKey(item_id, rating));
}

float DomainDataset::GlobalMeanRating() const {
  const size_t n = num_reviews();
  if (n == 0) return 3.0f;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += ReviewRating(i);
  return static_cast<float>(sum / static_cast<double>(n));
}

double DomainDataset::MeanReviewsPerUser() const {
  if (users().empty()) return 0.0;
  return static_cast<double>(num_reviews()) /
         static_cast<double>(users().size());
}

CrossDomainDataset::CrossDomainDataset(DomainDataset source,
                                       DomainDataset target)
    : source_(std::move(source)), target_(std::move(target)) {
  std::set_intersection(source_.users().begin(), source_.users().end(),
                        target_.users().begin(), target_.users().end(),
                        std::back_inserter(overlapping_users_));
}

std::string CrossDomainDataset::ScenarioName() const {
  return source_.name() + " -> " + target_.name();
}

}  // namespace data
}  // namespace omnimatch
