#include "core/aux_review.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/document.h"

namespace omnimatch {
namespace core {

namespace {

obs::Counter* LikeMindedHits() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("auxgen.like_minded_hits");
  return c;
}
obs::Counter* LikeMindedMisses() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("auxgen.like_minded_misses");
  return c;
}
obs::Counter* EmptyTargetFallbacks() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "auxgen.empty_target_fallbacks");
  return c;
}
obs::Histogram* BucketSizeHist() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "auxgen.bucket_size",
      std::vector<double>{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  return h;
}

/// The `field` text of record `record`.
std::string_view TextOf(const data::DomainDataset& domain, int record,
                        TextField field) {
  const size_t i = static_cast<size_t>(record);
  return field == TextField::kSummary ? domain.ReviewSummary(i)
                                      : domain.ReviewFullText(i);
}

}  // namespace

AuxReviewGenerator::AuxReviewGenerator(const data::CrossDomainDataset* cross,
                                       std::vector<int> eligible_users,
                                       TextField field)
    : cross_(cross),
      eligible_sorted_(std::move(eligible_users)),
      field_(field) {
  OM_CHECK(cross_ != nullptr);
  std::sort(eligible_sorted_.begin(), eligible_sorted_.end());
  // One pass over the packed dictionary up front buys hash-free, span-sized
  // draws for every subsequent record (§4.1 complexity analysis).
  eligible_ir_ = data::CsrIndex<long long>::Filter(
      cross_->source().item_rating_index(), [this](int v) {
        return std::binary_search(eligible_sorted_.begin(),
                                  eligible_sorted_.end(), v);
      });
}

std::vector<int> AuxReviewGenerator::GenerateRecords(
    int user_id, Rng* rng, AuxReviewTrace* trace) const {
  OM_CHECK(rng != nullptr);
  OM_TRACE_SPAN("aux.generate");
  const bool tracing = trace != nullptr;
  if (tracing) {
    trace->user_id = user_id;
    trace->choices.clear();
  }
  const data::DomainDataset& source = cross_->source();
  const data::DomainDataset& target = cross_->target();
  // Histogram observations cost a CAS per record; keep the scan free unless
  // a metrics sink is attached. Counters stay always-on (their contract).
  const bool observe = obs::MetricsEnabled();

  const data::IdSpan records = source.RecordsOfUser(user_id);
  std::vector<int> borrowed;
  borrowed.reserve(records.size());
  // foreach record in u's source-domain purchase records (Alg. 1 line 5).
  for (int rec_idx : records) {
    const int item = source.ReviewItem(static_cast<size_t>(rec_idx));
    const float rating = source.ReviewRating(static_cast<size_t>(rec_idx));

    // like_minded_t = the pre-filtered eligible bucket (lines 7-11), minus
    // the cold user's own entry. The bucket is sorted, so the self entry —
    // if present — sits at its lower_bound position; drawing over n-1 and
    // shifting indices at/after it is the same uniform draw over
    // "bucket \ {u}" the scan-and-filter implementation made.
    data::IdSpan bucket = eligible_ir_.Find(
        data::DomainDataset::ItemRatingKey(item, rating));
    const int* lo = std::lower_bound(bucket.begin(), bucket.end(), user_id);
    const size_t self_pos = static_cast<size_t>(lo - bucket.begin());
    const bool has_self = lo != bucket.end() && *lo == user_id;
    const uint32_t n =
        static_cast<uint32_t>(bucket.size()) - (has_self ? 1u : 0u);
    if (observe) BucketSizeHist()->Observe(static_cast<double>(n));

    int aux_user = -1;
    int aux_idx = -1;
    if (n > 0) {
      LikeMindedHits()->Increment();
      // Randomly select one like-minded user (line 12).
      uint32_t draw = rng->UniformU32(n);
      aux_user = bucket[draw + (has_self && draw >= self_pos ? 1 : 0)];
      // Randomly select one of their target-domain records (lines 13-15).
      data::IdSpan aux_records = target.RecordsOfUser(aux_user);
      if (!aux_records.empty()) {
        aux_idx = aux_records[rng->UniformU32(
            static_cast<uint32_t>(aux_records.size()))];
        borrowed.push_back(aux_idx);
      } else {
        EmptyTargetFallbacks()->Increment();
      }
    } else {
      LikeMindedMisses()->Increment();
    }

    if (tracing) {
      AuxReviewChoice choice;
      choice.source_item = item;
      choice.rating = rating;
      choice.source_review = std::string(TextOf(source, rec_idx, field_));
      choice.num_like_minded = static_cast<int>(n);
      choice.like_minded_user = aux_user;
      if (aux_idx >= 0) {
        choice.target_item = target.ReviewItem(static_cast<size_t>(aux_idx));
        choice.aux_review = std::string(TextOf(target, aux_idx, field_));
      }
      trace->choices.push_back(std::move(choice));
    }
  }
  return borrowed;
}

std::vector<std::string> AuxReviewGenerator::GenerateForUser(
    int user_id, Rng* rng, AuxReviewTrace* trace) const {
  std::vector<std::string> texts;
  for (int idx : GenerateRecords(user_id, rng, trace)) {
    texts.emplace_back(TextOf(cross_->target(), idx, field_));
  }
  return texts;
}

std::vector<std::string> AuxReviewGenerator::SourceReviews(
    int user_id) const {
  std::vector<std::string> texts;
  for (int idx : SourceRecords(user_id)) {
    texts.emplace_back(TextOf(cross_->source(), idx, field_));
  }
  return texts;
}

std::vector<std::vector<std::string>> AuxReviewGenerator::GenerateAll(
    const std::vector<int>& cold_users, Rng* rng) const {
  std::vector<std::vector<std::string>> out;
  out.reserve(cold_users.size());
  for (int u : cold_users) out.push_back(GenerateForUser(u, rng));
  return out;
}

std::vector<std::vector<std::string>> AuxReviewGenerator::GenerateAll(
    const std::vector<int>& cold_users, uint64_t base_seed) const {
  std::vector<std::vector<std::string>> out(cold_users.size());
  // Disjoint contiguous chunks + per-user derived streams: bit-identical
  // for any thread count (the ParallelFor determinism contract).
  ParallelFor(0, static_cast<int64_t>(cold_users.size()), 8,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  int u = cold_users[static_cast<size_t>(i)];
                  Rng rng(PerUserSeed(base_seed, u));
                  out[static_cast<size_t>(i)] = GenerateForUser(u, &rng);
                }
              });
  return out;
}

std::shared_ptr<const ReviewTokens> TokenizeReviews(
    const data::CrossDomainDataset& cross, const std::vector<int>& train_users,
    TextField field, int min_count) {
  const data::DomainDataset& source = cross.source();
  const data::DomainDataset& target = cross.target();
  const std::unordered_set<int> train_set(train_users.begin(),
                                          train_users.end());
  std::vector<text::TextColumn> columns(2);
  columns[0].num_records = source.num_reviews();
  columns[0].text = [&](size_t i) {
    return TextOf(source, static_cast<int>(i), field);
  };
  columns[0].counted = [](size_t) { return true; };
  columns[1].num_records = target.num_reviews();
  columns[1].text = [&](size_t i) {
    return TextOf(target, static_cast<int>(i), field);
  };
  columns[1].counted = [&](size_t i) {
    return train_set.count(target.ReviewUser(i)) > 0;
  };
  auto tokens = std::make_shared<ReviewTokens>();
  std::vector<text::TokenTable> tables =
      text::TokenizeColumns(columns, min_count, &tokens->vocab);
  tokens->source = std::move(tables[0]);
  tokens->target = std::move(tables[1]);
  return tokens;
}

std::vector<std::vector<int>> ColdStartDocs(const AuxReviewGenerator& generator,
                                            const OmniMatchConfig& config,
                                            const ReviewTokens& tokens,
                                            int user_id, Rng* rng) {
  const int samples =
      config.use_aux_reviews ? std::max(1, config.aux_eval_samples) : 1;
  std::vector<std::vector<int>> docs;
  docs.reserve(static_cast<size_t>(samples));
  for (int k = 0; k < samples; ++k) {
    std::vector<int> borrowed;
    if (config.use_aux_reviews) {
      borrowed = generator.GenerateRecords(user_id, rng);
    }
    docs.push_back(
        borrowed.empty()
            ? text::BuildDocument(tokens.source,
                                  generator.SourceRecords(user_id),
                                  config.doc_len)
            : text::BuildDocument(tokens.target, borrowed, config.doc_len));
  }
  return docs;
}

}  // namespace core
}  // namespace omnimatch
