#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "common/check.h"
#include "common/string_util.h"
#include "data/omds.h"
#include "obs/trace.h"

namespace omnimatch {
namespace data {

namespace {

/// Item ids are namespaced per domain so scenario pairs never collide.
int GlobalItemId(int domain_idx, int local_idx) {
  return domain_idx * 100000 + local_idx;
}

float Dot(const std::vector<float>& a, const std::vector<float>& b) {
  OM_CHECK_EQ(a.size(), b.size());
  float acc = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

std::vector<float> RandomUnitVector(int dim, Rng* rng) {
  std::vector<float> v(dim);
  double sq = 0.0;
  for (float& x : v) {
    x = static_cast<float>(rng->Normal());
    sq += static_cast<double>(x) * x;
  }
  float inv = static_cast<float>(1.0 / (std::sqrt(sq) + 1e-9));
  for (float& x : v) x *= inv;
  return v;
}

// Human-readable stems so the §5.10 case study output reads like the paper's.
constexpr const char* kTopicStems[] = {
    "vampire", "romance", "action",  "space", "magic",  "crime",
    "history", "comedy",  "melody",  "sport", "nature", "gadget"};
constexpr const char* kSentimentStems[] = {"awful", "weak", "decent", "good",
                                           "superb"};

}  // namespace

SyntheticConfig SyntheticConfig::AmazonLike() {
  SyntheticConfig c;
  c.num_users = 550;
  c.items_per_domain = 520;
  c.mean_reviews_per_user = 8.0;
  c.rating_noise = 0.60;
  c.user_bias_std = 0.45;
  c.seed = 41001;
  return c;
}

SyntheticConfig SyntheticConfig::DoubanLike() {
  SyntheticConfig c;
  c.num_users = 420;
  c.items_per_domain = 240;
  c.mean_reviews_per_user = 4.5;
  c.min_reviews_per_user = 2;
  c.rating_noise = 0.62;
  c.user_bias_std = 0.40;
  c.item_bias_std = 0.30;
  c.affinity_scale = 1.15;   // preferences matter more, ratings alone mislead
  c.domain_specific_std = 0.30;  // shared tastes transfer well via text
  c.participation = 0.80;
  c.seed = 52002;
  return c;
}

struct SyntheticWorld::LazyDomain {
  std::once_flag built;
  DomainDataset dataset;
};

SyntheticWorld::SyntheticWorld(const SyntheticConfig& config,
                               std::vector<std::string> domain_names)
    : config_(config), domain_names_(std::move(domain_names)) {
  OM_CHECK_GE(domain_names_.size(), 2u);
  OM_CHECK_GT(config_.num_users, 0);
  OM_CHECK_GT(config_.items_per_domain, 0);
  OM_CHECK_LE(config_.num_topics,
              static_cast<int>(std::size(kTopicStems)));

  Rng master(config_.seed);
  GenerateVocabularyWords();

  // Topic directions in latent space.
  Rng topic_rng = master.Fork();
  topic_dirs_.clear();
  for (int t = 0; t < config_.num_topics; ++t) {
    topic_dirs_.push_back(RandomUnitVector(config_.latent_dim, &topic_rng));
  }

  // Users: shared preferences, biases, per-domain offsets & participation.
  Rng user_rng = master.Fork();
  user_pref_.resize(config_.num_users);
  user_bias_.resize(config_.num_users);
  for (int u = 0; u < config_.num_users; ++u) {
    user_pref_[u].resize(config_.latent_dim);
    for (float& v : user_pref_[u]) {
      v = static_cast<float>(user_rng.Normal());
    }
    user_bias_[u] =
        static_cast<float>(user_rng.Normal(0.0, config_.user_bias_std));
  }
  int num_domains = static_cast<int>(domain_names_.size());
  user_offset_.resize(num_domains);
  participates_.resize(num_domains);
  for (int d = 0; d < num_domains; ++d) {
    user_offset_[d].resize(config_.num_users);
    participates_[d].resize(config_.num_users);
    for (int u = 0; u < config_.num_users; ++u) {
      user_offset_[d][u].resize(config_.latent_dim);
      for (float& v : user_offset_[d][u]) {
        v = static_cast<float>(
            user_rng.Normal(0.0, config_.domain_specific_std));
      }
      participates_[d][u] = user_rng.Bernoulli(config_.participation);
    }
  }

  // Item latents per domain: the first draws of each domain's forked
  // stream. The RNG state after them is kept, so a domain's reviews can be
  // generated later, and as often as asked, from the same point.
  item_attr_.resize(num_domains);
  item_bias_.resize(num_domains);
  for (int d = 0; d < num_domains; ++d) {
    Rng domain_rng = master.Fork();
    GenerateItemLatents(d, &domain_rng);
    review_rngs_.push_back(domain_rng);
  }
  domains_ = std::make_unique<LazyDomain[]>(static_cast<size_t>(num_domains));
}

SyntheticWorld::~SyntheticWorld() = default;

void SyntheticWorld::GenerateVocabularyWords() {
  // Per-domain surface forms for shared topic concepts, e.g. the "vampire"
  // taste shows up as vampireb* tokens in Books and vampirem* in Movies.
  topic_words_.assign(domain_names_.size(), {});
  for (size_t d = 0; d < domain_names_.size(); ++d) {
    std::string domain_tag = ToLower(domain_names_[d]).substr(0, 1);
    topic_words_[d].assign(config_.num_topics, {});
    for (int t = 0; t < config_.num_topics; ++t) {
      for (int w = 0; w < config_.words_per_topic; ++w) {
        topic_words_[d][t].push_back(StrFormat(
            "%s%s%d", kTopicStems[t], domain_tag.c_str(), w));
      }
    }
  }
  sentiment_words_.assign(5, {});
  for (int level = 0; level < 5; ++level) {
    for (int w = 0; w < config_.sentiment_words_per_level; ++w) {
      sentiment_words_[level].push_back(
          StrFormat("%s%d", kSentimentStems[level], w));
    }
  }
  domain_words_.assign(domain_names_.size(), {});
  for (size_t d = 0; d < domain_names_.size(); ++d) {
    std::string stem = ToLower(domain_names_[d]);
    for (int w = 0; w < config_.domain_marker_words; ++w) {
      domain_words_[d].push_back(StrFormat("%s%d", stem.c_str(), w));
    }
  }
  noise_words_.clear();
  for (int w = 0; w < config_.noise_words; ++w) {
    noise_words_.push_back(StrFormat("filler%d", w));
  }
}

void SyntheticWorld::GenerateItemLatents(int d, Rng* rng) {
  item_attr_[d].resize(config_.items_per_domain);
  item_bias_[d].resize(config_.items_per_domain);
  for (int i = 0; i < config_.items_per_domain; ++i) {
    item_attr_[d][i].resize(config_.latent_dim);
    for (float& v : item_attr_[d][i]) {
      v = static_cast<float>(rng->Normal());
    }
    item_bias_[d][i] =
        static_cast<float>(rng->Normal(0.0, config_.item_bias_std));
  }
}

void SyntheticWorld::EmitReviews(
    int d, Rng* rng, const std::function<void(Review&&)>& emit) const {
  const float inv_sqrt_k =
      1.0f / std::sqrt(static_cast<float>(config_.latent_dim));
  const size_t num_items = static_cast<size_t>(config_.items_per_domain);
  const size_t num_topics = topic_dirs_.size();
  const std::vector<std::vector<float>>& items = item_attr_[d];
  // Item-topic scores, once per domain; user-topic scores, once per user.
  std::vector<float> item_topic(num_items * num_topics);
  for (size_t i = 0; i < num_items; ++i) {
    for (size_t t = 0; t < num_topics; ++t) {
      item_topic[i * num_topics + t] = Dot(items[i], topic_dirs_[t]);
    }
  }
  std::vector<float> user_topic(num_topics);
  std::vector<float> affinity(num_items);
  std::vector<double> weights(num_items), item_prefix(num_items);
  std::vector<double> topic_prefix(num_topics);
  std::vector<int> pool;
  Review review;
  for (int u = 0; u < config_.num_users; ++u) {
    if (!participates_[d][u]) continue;
    int n_reviews = std::max<int>(
        config_.min_reviews_per_user,
        static_cast<int>(std::lround(rng->Normal(
            config_.mean_reviews_per_user,
            config_.mean_reviews_per_user / 3.0))));
    n_reviews = std::min(n_reviews, config_.items_per_domain);

    // Effective preference in this domain: shared + offset (assumption 1).
    std::vector<float> pref = user_pref_[u];
    for (int k = 0; k < config_.latent_dim; ++k) {
      pref[k] += user_offset_[d][u][k];
    }
    for (size_t t = 0; t < num_topics; ++t) {
      user_topic[t] = Dot(user_pref_[u], topic_dirs_[t]);
    }

    // Preference-driven item selection without replacement: users gravitate
    // toward items matching their tastes, so their review history itself
    // carries the preference signal. Each pick zeroes its weight, and the
    // running sums are redone from that index on: they stay the sums
    // Rng::SampleDiscrete would form over the zeroed weights.
    double sum = 0.0;
    for (size_t i = 0; i < num_items; ++i) {
      affinity[i] = Dot(pref, items[i]) * inv_sqrt_k;
      weights[i] =
          std::exp(config_.selection_gain * static_cast<double>(affinity[i]));
      sum += weights[i];
      item_prefix[i] = sum;
    }
    pool.clear();
    for (int j = 0; j < n_reviews; ++j) {
      const int pick = rng->SampleCumulative(item_prefix);
      pool.push_back(pick);
      const size_t zeroed = static_cast<size_t>(pick);
      weights[zeroed] = 0.0;
      sum = zeroed == 0 ? 0.0 : item_prefix[zeroed - 1];
      for (size_t i = zeroed; i < num_items; ++i) {
        sum += weights[i];
        item_prefix[i] = sum;
      }
    }

    for (int item : pool) {
      double raw = config_.rating_intercept + user_bias_[u] +
                   item_bias_[d][item] +
                   config_.affinity_scale * affinity[item] +
                   rng->Normal(0.0, config_.rating_noise);
      int rating = static_cast<int>(std::lround(raw));
      rating = std::clamp(rating, 1, 5);

      // Topic mixture driven by the *shared* user preference plus the
      // item's attributes: this is what makes review text domain-invariant
      // evidence. Summary and full text draw from the same mixture.
      const float* it = &item_topic[static_cast<size_t>(item) * num_topics];
      double topic_sum = 0.0;
      for (size_t t = 0; t < num_topics; ++t) {
        topic_sum += std::exp(config_.topic_user_gain * user_topic[t] +
                              config_.topic_item_gain * it[t]);
        topic_prefix[t] = topic_sum;
      }

      review.user_id = u;
      review.item_id = GlobalItemId(d, item);
      review.rating = static_cast<float>(rating);
      int len = rng->UniformInt(config_.summary_len_min,
                                config_.summary_len_max);
      // `emit` may have moved the previous review's strings out.
      review.summary.clear();
      review.full_text.clear();
      AppendWords(d, topic_prefix, rating, len, /*noise_boost=*/1.0, rng,
                  &review.summary);
      AppendWords(d, topic_prefix, rating, len * config_.full_text_multiplier,
                  config_.full_text_noise_boost, rng, &review.full_text);
      emit(std::move(review));
    }
  }
}

void SyntheticWorld::StreamDomain(
    const std::string& name,
    const std::function<void(Review&&)>& emit) const {
  int d = DomainIndex(name);
  // A copy of the post-latent snapshot, so replays are repeatable and const.
  Rng rng = review_rngs_[static_cast<size_t>(d)];
  EmitReviews(d, &rng, emit);
}

Status SyntheticWorld::WriteDomain(const std::string& name,
                                   OmdsWriter* writer) const {
  Status status;
  StreamDomain(name, [&](Review&& r) {
    if (status.ok()) {
      status = writer->Add(r.user_id, r.item_id, r.rating, r.summary,
                           r.full_text);
    }
  });
  OM_RETURN_IF_ERROR(status);
  return writer->Finalize();
}

void SyntheticWorld::AppendWords(int domain_idx,
                                 const std::vector<double>& topic_prefix,
                                 int rating, int length, double noise_boost,
                                 Rng* rng, std::string* out) const {
  double noise_frac = 1.0 - config_.topic_word_frac -
                      config_.sentiment_word_frac - config_.domain_word_frac;
  noise_frac *= noise_boost;
  double total = config_.topic_word_frac + config_.sentiment_word_frac +
                 config_.domain_word_frac + noise_frac;

  const size_t d = static_cast<size_t>(domain_idx);
  auto pick = [rng](const std::vector<std::string>& list) -> const std::string& {
    return list[rng->UniformU32(static_cast<uint32_t>(list.size()))];
  };
  for (int i = 0; i < length; ++i) {
    double u = rng->UniformDouble() * total;
    const std::string* word;
    if (u < config_.topic_word_frac) {
      int t = rng->SampleCumulative(topic_prefix);
      word = &pick(topic_words_[d][static_cast<size_t>(t)]);
    } else if (u < config_.topic_word_frac + config_.sentiment_word_frac) {
      word = &pick(sentiment_words_[static_cast<size_t>(rating - 1)]);
    } else if (u < config_.topic_word_frac + config_.sentiment_word_frac +
                       config_.domain_word_frac) {
      word = &pick(domain_words_[d]);
    } else {
      word = &pick(noise_words_);
    }
    if (i > 0) out->push_back(' ');
    out->append(*word);
  }
}

int SyntheticWorld::DomainIndex(const std::string& name) const {
  for (size_t d = 0; d < domain_names_.size(); ++d) {
    if (domain_names_[d] == name) return static_cast<int>(d);
  }
  OM_CHECK(false) << "unknown domain " << name;
  return -1;
}

const DomainDataset& SyntheticWorld::domain(const std::string& name) const {
  const int d = DomainIndex(name);
  LazyDomain& lazy = domains_[static_cast<size_t>(d)];
  std::call_once(lazy.built, [&] {
    OM_TRACE_SPAN("synthetic.write_domain");
    OmdsWriter writer;
    Status written = WriteDomain(name, &writer);
    OM_CHECK(written.ok()) << written.ToString();
    Result<std::shared_ptr<const OmdsFile>> image = writer.TakeImage();
    OM_CHECK(image.ok()) << image.status().ToString();
    lazy.dataset = DomainDataset(name, std::move(image).value());
  });
  return lazy.dataset;
}

const std::vector<float>& SyntheticWorld::UserPreference(int user_id) const {
  OM_CHECK(user_id >= 0 && user_id < config_.num_users);
  return user_pref_[static_cast<size_t>(user_id)];
}

CrossDomainDataset SyntheticWorld::MakePair(const std::string& source,
                                            const std::string& target) const {
  OM_CHECK(source != target) << "source and target must differ";
  return CrossDomainDataset(domain(source), domain(target));
}

}  // namespace data
}  // namespace omnimatch
