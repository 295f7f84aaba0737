// §5.10 case study: trace the Auxiliary Reviews Generation Module for one
// cold-start user — for each of their source-domain purchases, show the
// like-minded user that was selected and the target-domain review that was
// borrowed, then print the generated auxiliary document next to the user's
// (hidden) ground-truth target reviews.
//
//   ./build/examples/case_study [--seed=7] [--user=<id>]

#include <cstdio>

#include "common/flags.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/aux_review.h"
#include "data/splits.h"
#include "data/synthetic.h"

using namespace omnimatch;

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  ApplyThreadsFlag(flags);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  data::SyntheticWorld world(data::SyntheticConfig::AmazonLike());
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(seed);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  int user = flags.GetInt("user", split.test_users.front());
  std::printf("Case study (paper §5.10): auxiliary review generation for "
              "cold-start user %d under %s\n\n",
              user, cross.ScenarioName().c_str());

  core::AuxReviewGenerator generator(&cross, split.train_users);
  Rng rng(seed + 1);
  core::AuxReviewTrace trace;
  std::vector<std::string> aux_reviews =
      generator.GenerateForUser(user, &rng, &trace);

  int step = 0;
  for (const core::AuxReviewChoice& choice : trace.choices) {
    ++step;
    std::printf("(%d) Item in source domain: %d\n", step, choice.source_item);
    std::printf("    Cold-start user's rating and review: %.1f, \"%s\"\n",
                choice.rating, choice.source_review.c_str());
    if (choice.like_minded_user < 0) {
      std::printf("    No like-minded training user found; record skipped.\n");
      continue;
    }
    std::printf("    Like-minded users with the same rating: %d; selected "
                "user %d\n",
                choice.num_like_minded, choice.like_minded_user);
    std::printf("    Auxiliary review chosen from their target-domain "
                "history (item %d): \"%s\"\n",
                choice.target_item, choice.aux_review.c_str());
  }

  std::printf("\nFinal auxiliary document for user %d:\n  \"%s\"\n", user,
              Join(aux_reviews, " <sp> ").c_str());

  std::printf("\nGround-truth target-domain reviews of user %d (hidden from "
              "the model):\n",
              user);
  std::vector<std::string> truth;
  const data::DomainDataset& target = cross.target();
  for (int idx : target.RecordsOfUser(user)) {
    std::string summary(target.ReviewSummary(idx));
    std::printf("  item %d (%.1f stars): \"%s\"\n", target.ReviewItem(idx),
                target.ReviewRating(idx), summary.c_str());
    truth.push_back(summary);
  }
  std::printf("\nConcatenated ground truth:\n  \"%s\"\n",
              Join(truth, " <sp> ").c_str());
  return 0;
}
