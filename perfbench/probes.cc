#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/aux_review.h"
#include "core/checkpoint.h"
#include "core/model.h"
#include "data/types.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "serve/scorer.h"

namespace perfbench {
namespace {

using namespace omnimatch;

/// Repetitions of each probed call; the probe reports their median.
constexpr int kReps = 9;

/// Median seconds of `fn` over kReps calls (after one untimed call that
/// warms caches and lazily built state).
template <typename Fn>
double MedianSeconds(SpanLog* log, const char* name, Fn&& fn) {
  fn();
  std::vector<double> s;
  for (int r = 0; r < kReps; ++r) s.push_back(TimedCall(log, name, fn));
  return Median(s);
}

nn::Tensor RandomTensor(int rows, int cols, Rng* rng) {
  std::vector<float> data(static_cast<size_t>(rows) * cols);
  for (float& v : data) v = rng->UniformFloat(-1.0f, 1.0f);
  return nn::Tensor::FromData({rows, cols}, std::move(data));
}

/// GFLOP/s of nn::MatMul at [m, k] x [k, n].
double MatMulGflops(SpanLog* log, int m, int k, int n, Rng* rng) {
  const nn::Tensor a = RandomTensor(m, k, rng);
  const nn::Tensor b = RandomTensor(k, n, rng);
  const double s =
      MedianSeconds(log, "nn.MatMul", [&] { nn::MatMul(a, b); });
  return 2.0 * m * k * n / s * 1e-9;
}

}  // namespace

void AddLayerProbes(const ProbeInputs& in, SpanLog* log,
                    std::vector<Metric>* metrics,
                    std::vector<std::string>* failures) {
  auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back({name, value, unit});
  };
  const serve::ModelSnapshot& snap = *in.snapshot;
  const core::OmniMatchConfig& config = snap.config();
  core::OmniMatchModel* model = snap.model();
  Rng rng(in.seed ^ 0x9e3779b97f4a7c15ULL);
  const int f = config.feature_dim;
  const int passes = std::max(1, config.aux_eval_samples);
  const int batch = static_cast<int>(in.replay.size());

  // --- nn: matmul at the TextCNN and rating-head shapes ------------------
  // The item TextCNN's middle filter over one batch of item documents:
  // [batch x windows, k x embed] x [k x embed, channels].
  const int kernel = config.kernel_sizes[config.kernel_sizes.size() / 2];
  add("nn.matmul_gflops.conv",
      MatMulGflops(log, batch * (config.item_doc_len - kernel + 1),
                   kernel * config.embed_dim, config.cnn_channels, &rng),
      "GFLOP/s");
  // The rating head's first layer over one batch's ensemble rows.
  const int head_in = 3 * f + (config.use_interaction_features ? f : 0);
  add("nn.matmul_gflops.head",
      MatMulGflops(log, batch * passes, head_in, 2 * f, &rng), "GFLOP/s");

  // --- core.model + serve.scorer: one replayed batch ------------------------
  std::vector<serve::ScoreRequest> requests;
  std::vector<int> items;
  std::unordered_set<int> seen;
  for (const auto& [user, item] : in.replay) {
    requests.push_back({user, item});
    if (seen.insert(item).second) items.push_back(item);
  }
  double batch_s = 0.0;
  if (in.cold) {
    // Every replay admits its users, as a cold batch does.
    batch_s = MedianSeconds(log, "Scorer.ScoreBatchWith", [&] {
      serve::Scorer scorer(in.snapshot, in.cache_capacity);
      scorer.ScoreBatchWith(in.snapshot, requests, serve::ScoreMode::kFull);
    });
  } else {
    serve::Scorer scorer(in.snapshot, in.cache_capacity);
    batch_s = MedianSeconds(log, "Scorer.ScoreBatchWith", [&] {
      scorer.ScoreBatchWith(in.snapshot, requests, serve::ScoreMode::kFull);
    });
  }
  std::vector<int> item_docs;
  for (int item : items) {
    auto it = snap.item_docs().find(item);
    const std::vector<int>& doc =
        it != snap.item_docs().end() ? it->second : snap.pad_item_doc();
    item_docs.insert(item_docs.end(), doc.begin(), doc.end());
  }
  const double item_s = MedianSeconds(log, "OmniMatchModel.ExtractItem", [&] {
    model->ExtractItem(item_docs, static_cast<int>(items.size()));
  });
  add("model.extract_item_ms_per_batch", item_s * 1e3, "ms");
  add("scorer.item_share", item_s / batch_s, "share");

  const int head_rows = batch * passes;
  const nn::Tensor user_rows = RandomTensor(head_rows, 2 * f, &rng);
  const nn::Tensor item_rows = RandomTensor(head_rows, f, &rng);
  const double head_s =
      MedianSeconds(log, "OmniMatchModel.RatingLogits",
                    [&] { model->RatingLogits(user_rows, item_rows); });
  add("model.rating_logits_us_per_row", head_s * 1e6 / head_rows, "us");

  // --- serve.snapshot + core.aux_review: Algorithm 1 for cold users --------
  const std::vector<int>& cold = in.source_only_users;
  if (cold.empty()) {
    failures->push_back("the world has no source-only users to probe");
    return;
  }
  std::vector<int> user_docs;
  int user_rows_n = 0;
  for (size_t i = 0; i < cold.size() && user_rows_n < head_rows; ++i) {
    for (const std::vector<int>& doc : snap.BuildColdUserDocs(cold[i])) {
      user_docs.insert(user_docs.end(), doc.begin(), doc.end());
      ++user_rows_n;
    }
  }
  const double user_s = MedianSeconds(log, "OmniMatchModel.ExtractUser", [&] {
    model->ExtractUser(data::DomainSide::kTarget, user_docs, user_rows_n);
  });
  add("model.extract_user_us_per_row", user_s * 1e6 / user_rows_n, "us");

  const double n_cold = static_cast<double>(cold.size());
  const double docs_s =
      MedianSeconds(log, "ModelSnapshot.BuildColdUserDocs", [&] {
        for (int u : cold) snap.BuildColdUserDocs(u);
      });
  add("snapshot.cold_docs_us_per_user", docs_s * 1e6 / n_cold, "us");

  const core::AuxReviewGenerator& aux = snap.aux_generator();
  const double aux_s =
      MedianSeconds(log, "AuxReviewGenerator.GenerateForUser", [&] {
        for (int u : cold) {
          Rng user_rng(core::AuxReviewGenerator::PerUserSeed(in.seed, u));
          aux.GenerateForUser(u, &user_rng);
        }
      });
  add("aux.generate_us_per_user", aux_s * 1e6 / n_cold, "us");
  int64_t records = 0, matched = 0;
  for (int u : cold) {
    Rng user_rng(core::AuxReviewGenerator::PerUserSeed(in.seed, u));
    core::AuxReviewTrace trace;
    aux.GenerateForUser(u, &user_rng, &trace);
    for (const core::AuxReviewChoice& c : trace.choices) {
      ++records;
      if (c.like_minded_user >= 0) ++matched;
    }
  }
  add("aux.match_share",
      records > 0 ? static_cast<double>(matched) / records : 0.0, "share");

  // --- core.checkpoint -------------------------------------------------------
  bool loaded = true;
  const double load_s = MedianSeconds(log, "LoadCheckpointFile", [&] {
    loaded = loaded && core::LoadCheckpointFile(in.checkpoint_path).ok();
  });
  if (!loaded) failures->push_back("LoadCheckpointFile failed");
  add("checkpoint.load_ms", load_s * 1e3, "ms");
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(in.checkpoint_path, ec);
  if (ec) failures->push_back("cannot stat " + in.checkpoint_path);
  add("checkpoint.bytes", ec ? 0.0 : static_cast<double>(bytes), "bytes");
}

}  // namespace perfbench
