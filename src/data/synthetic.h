#ifndef OMNIMATCH_DATA_SYNTHETIC_H_
#define OMNIMATCH_DATA_SYNTHETIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace omnimatch {
namespace data {

class OmdsWriter;

/// Parameters of the synthetic review-corpus generator.
///
/// This generator is the repository's substitute for the Amazon Review and
/// Douban dumps (see DESIGN.md §2): it instantiates exactly the mechanism
/// the paper relies on —
///   * each user has a latent preference vector *shared across domains*
///     (assumption 1, Fig. 1) plus a small domain-specific offset;
///   * ratings are biases + latent affinity + noise, so users who give the
///     same item the same rating have correlated latents (assumption 2);
///   * review summaries are short token sequences whose topic words are
///     sampled according to the same latents, so text carries
///     domain-invariant preference signal, plus rating-keyed sentiment
///     words, domain-marker words (what the domain classifier can detect),
///     and noise.
struct SyntheticConfig {
  int num_users = 550;
  int items_per_domain = 320;
  /// Probability a user is active in any given domain (controls overlap).
  double participation = 0.85;
  int latent_dim = 6;
  /// Mean reviews per active user per domain (>= min_reviews_per_user).
  double mean_reviews_per_user = 8.0;
  int min_reviews_per_user = 3;
  /// Stddev of the Gaussian rating noise before rounding.
  double rating_noise = 0.68;
  double user_bias_std = 0.35;
  double item_bias_std = 0.35;
  /// Scale of the per-domain offset q_{u,d} added to the shared p_u.
  double domain_specific_std = 0.45;
  /// Scale of the latent affinity term in the rating model.
  double affinity_scale = 0.9;
  double rating_intercept = 3.4;
  /// Users pick items with probability ∝ exp(selection_gain · affinity):
  /// the real-world selection effect that makes a user's review history
  /// reflect their preferences. 0 recovers uniform item choice.
  double selection_gain = 0.9;

  // --- review text ---
  int summary_len_min = 7;
  int summary_len_max = 12;
  /// Full reviews are this many times longer than summaries, with extra
  /// noise (the paper found summaries to work better, §5.7).
  int full_text_multiplier = 4;
  double full_text_noise_boost = 2.2;
  int num_topics = 10;
  int words_per_topic = 12;
  int sentiment_words_per_level = 12;
  int domain_marker_words = 18;
  int noise_words = 60;
  /// Word-category mixture for summaries; must sum to <= 1, remainder noise.
  double topic_word_frac = 0.47;
  double sentiment_word_frac = 0.28;
  double domain_word_frac = 0.12;
  /// Sharpness of user-latent -> topic selection.
  double topic_user_gain = 1.1;
  double topic_item_gain = 2.0;

  uint64_t seed = 2025;

  /// Denser, lower-noise preset mirroring the Amazon Review dataset's
  /// relative difficulty.
  static SyntheticConfig AmazonLike();

  /// Sparser, noisier preset mirroring Douban (fewer reviews per user,
  /// heavier user bias), where rating-only methods degrade much harder.
  static SyntheticConfig DoubanLike();
};

/// A generated multi-domain world (default domains: Books, Movies, Music)
/// with consistent users across domains.
///
/// The constructor draws only the latents: users, topics and each domain's
/// item latents. A domain's reviews are generated into an in-memory OMDS
/// image the first time something reads it (domain(), MakePair()), exactly
/// once, so a world whose domain() is never called holds no review at all,
/// and a scenario pays only for the two domains it pairs. That first build
/// is safe when several threads read at once: every reader waits for the
/// one build and sees the same dataset object.
///
/// StreamDomain() and WriteDomain() replay a domain's review stream without
/// keeping it; this is how million-user worlds are written straight to
/// OMDS files. Both paths emit the same records: the constructor advances
/// each domain's forked RNG through the item-latent draws and keeps that
/// state, and every build or replay starts from a copy of it.
class SyntheticWorld {
 public:
  explicit SyntheticWorld(const SyntheticConfig& config,
                          std::vector<std::string> domain_names = {
                              "Books", "Movies", "Music"});
  ~SyntheticWorld();

  /// Builds the cross-domain dataset for one scenario, e.g.
  /// MakePair("Books", "Movies"). Both names must be known domains.
  CrossDomainDataset MakePair(const std::string& source,
                              const std::string& target) const;

  const std::vector<std::string>& domain_names() const {
    return domain_names_;
  }

  /// The generated dataset of one domain, built on first read (class
  /// comment). The reference stays valid for the world's lifetime.
  const DomainDataset& domain(const std::string& name) const;

  /// Replays the review stream of one domain through `emit`, in the exact
  /// order and with the exact contents domain() holds. Each call replays
  /// from the stored post-latent RNG state.
  void StreamDomain(const std::string& name,
                    const std::function<void(Review&&)>& emit) const;

  /// Streams one domain (StreamDomain) into `writer` and finalizes it: the
  /// path of both domain()'s buffer images and OMDS files on disk.
  Status WriteDomain(const std::string& name, OmdsWriter* writer) const;

  /// Ground-truth shared preference vector of a user (tests only).
  const std::vector<float>& UserPreference(int user_id) const;

  const SyntheticConfig& config() const { return config_; }

 private:
  int DomainIndex(const std::string& name) const;
  void GenerateVocabularyWords();
  /// Draws item_attr_[d] / item_bias_[d] from `rng`: the first draws of a
  /// domain's forked stream.
  void GenerateItemLatents(int domain_idx, Rng* rng);
  /// The review-emission phase: consumes `rng` from the post-latent state.
  void EmitReviews(int domain_idx, Rng* rng,
                   const std::function<void(Review&&)>& emit) const;
  /// Appends `length` words to `out`, separated by single spaces. Topic
  /// words are drawn from `topic_prefix`, the running sums of the review's
  /// topic weights.
  void AppendWords(int domain_idx, const std::vector<double>& topic_prefix,
                   int rating, int length, double noise_boost, Rng* rng,
                   std::string* out) const;

  /// One domain's dataset, built at most once (domain()).
  struct LazyDomain;

  SyntheticConfig config_;
  std::vector<std::string> domain_names_;
  std::unique_ptr<LazyDomain[]> domains_;
  /// Per-domain RNG state right after the item-latent draws; EmitReviews on
  /// a copy of review_rngs_[d] reproduces the domain's review stream.
  std::vector<Rng> review_rngs_;

  // Ground truth latents.
  std::vector<std::vector<float>> user_pref_;          // [U][k] shared
  std::vector<float> user_bias_;                       // [U]
  std::vector<std::vector<std::vector<float>>> user_offset_;  // [D][U][k]
  std::vector<std::vector<bool>> participates_;        // [D][U]
  std::vector<std::vector<std::vector<float>>> item_attr_;  // [D][I][k]
  std::vector<std::vector<float>> item_bias_;          // [D][I]

  // Word inventories.
  std::vector<std::vector<float>> topic_dirs_;          // [T][k]
  /// Per-domain surface vocabulary of the shared topic concepts: the same
  /// taste uses different words in different domains, forcing genuine
  /// cross-domain transfer.
  std::vector<std::vector<std::vector<std::string>>> topic_words_;  // [D][T][W]
  std::vector<std::vector<std::string>> sentiment_words_;  // [5][S]
  std::vector<std::vector<std::string>> domain_words_;  // [D][F]
  std::vector<std::string> noise_words_;
};

}  // namespace data
}  // namespace omnimatch

#endif  // OMNIMATCH_DATA_SYNTHETIC_H_
