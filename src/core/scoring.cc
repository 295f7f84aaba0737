#include "core/scoring.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"
#include "text/vocabulary.h"

namespace omnimatch {
namespace core {

using nn::Tensor;

namespace {

/// Rating-head chunk size: wall-clock shape only, never an output bit (row
/// independence).
constexpr size_t kHeadChunkRows = 1024;

/// Calls fn(flat_ids, begin, n) for consecutive chunks of `docs`, each
/// flattened batch-major with null documents expanded to `doc_len` pads.
/// Chunks hold config.batch_size documents, so an extractor forward never
/// needs more activation memory than a training step.
template <typename Fn>
void ForEachDocChunk(const OmniMatchModel& model,
                     const std::vector<const std::vector<int>*>& docs,
                     int doc_len, Fn&& fn) {
  const size_t chunk = static_cast<size_t>(model.config().batch_size);
  for (size_t begin = 0; begin < docs.size(); begin += chunk) {
    const size_t end = std::min(docs.size(), begin + chunk);
    std::vector<int> flat;
    flat.reserve((end - begin) * static_cast<size_t>(doc_len));
    for (size_t r = begin; r < end; ++r) {
      if (docs[r] == nullptr) {
        flat.insert(flat.end(), static_cast<size_t>(doc_len),
                    text::Vocabulary::kPadId);
        continue;
      }
      OM_CHECK_EQ(docs[r]->size(), static_cast<size_t>(doc_len));
      flat.insert(flat.end(), docs[r]->begin(), docs[r]->end());
    }
    fn(flat, begin, static_cast<int>(end - begin));
  }
}

/// Appends row `row` of a [B, width] tensor to `dst`.
void AppendRow(const Tensor& t, int row, std::vector<float>* dst) {
  const int width = t.dim(1);
  const float* src = t.data().data() + static_cast<size_t>(row) * width;
  dst->insert(dst->end(), src, src + width);
}

}  // namespace

const std::vector<int>* FindDoc(
    const std::unordered_map<int, std::vector<int>>& docs, int key) {
  auto it = docs.find(key);
  return it == docs.end() ? nullptr : &it->second;
}

UserDocs FrozenUserDocs(
    int user, const std::unordered_map<int, std::vector<int>>& target_docs,
    const std::unordered_map<int, std::vector<std::vector<int>>>& variants,
    const std::unordered_map<int, std::vector<int>>& source_docs) {
  UserDocs docs;
  docs.target.push_back(FindDoc(target_docs, user));
  auto it = variants.find(user);
  if (it != variants.end()) {
    for (const std::vector<int>& doc : it->second) docs.target.push_back(&doc);
  }
  docs.source = FindDoc(source_docs, user);
  return docs;
}

std::vector<UserRows> ExtractUserRows(OmniMatchModel* model,
                                      const std::vector<UserDocs>& users) {
  const bool hybrid = model->config().use_hybrid_inference;
  const int doc_len = model->config().doc_len;
  std::vector<UserRows> out(users.size());

  // Hybrid rows start with the user's source-invariant features, one
  // source row per user; the target pass below appends its specific half.
  std::vector<std::vector<float>> source_invariant(users.size());
  if (hybrid) {
    std::vector<const std::vector<int>*> docs;
    for (const UserDocs& u : users) docs.push_back(u.source);
    ForEachDocChunk(*model, docs, doc_len, [&](const std::vector<int>& flat,
                                       size_t begin, int n) {
      OmniMatchModel::UserFeatures src =
          model->ExtractUser(data::DomainSide::kSource, flat, n);
      for (int r = 0; r < n; ++r) {
        AppendRow(src.invariant, r, &source_invariant[begin + r]);
      }
    });
  }

  // Every (user, pass) target document as one row list.
  std::vector<std::pair<size_t, size_t>> owner;
  std::vector<const std::vector<int>*> docs;
  for (size_t u = 0; u < users.size(); ++u) {
    out[u].rep_rows.resize(users[u].target.size());
    if (hybrid) out[u].hybrid_rows.resize(users[u].target.size());
    for (size_t k = 0; k < users[u].target.size(); ++k) {
      owner.emplace_back(u, k);
      docs.push_back(users[u].target[k]);
    }
  }
  ForEachDocChunk(*model, docs, doc_len, [&](const std::vector<int>& flat,
                                     size_t begin, int n) {
    OmniMatchModel::UserFeatures tgt =
        model->ExtractUser(data::DomainSide::kTarget, flat, n);
    for (int r = 0; r < n; ++r) {
      const auto [u, k] = owner[begin + static_cast<size_t>(r)];
      // UserRepresentation is plain concatenation, so assembling it from
      // the feature rows is exact.
      AppendRow(tgt.invariant, r, &out[u].rep_rows[k]);
      AppendRow(tgt.specific, r, &out[u].rep_rows[k]);
      if (hybrid) {
        out[u].hybrid_rows[k] = source_invariant[u];
        AppendRow(tgt.specific, r, &out[u].hybrid_rows[k]);
      }
    }
  });
  return out;
}

std::vector<std::vector<float>> ExtractItemRows(
    OmniMatchModel* model, const std::vector<const std::vector<int>*>& docs) {
  std::vector<std::vector<float>> out(docs.size());
  ForEachDocChunk(*model, docs, model->config().item_doc_len,
                  [&](const std::vector<int>& flat, size_t begin, int n) {
                    Tensor rep = model->ExtractItem(flat, n);
                    for (int r = 0; r < n; ++r) {
                      AppendRow(rep, r, &out[begin + r]);
                    }
                  });
  return out;
}

std::vector<float> ExpectedRatings(OmniMatchModel* model,
                                   const std::vector<ScorePair>& pairs) {
  const int f = model->config().feature_dim;
  // One rating-head row per (pair, pass, readout), in accumulation order,
  // gathered and scored kHeadChunkRows at a time, so the working set is one
  // chunk however many pairs there are.
  std::vector<float> preds(pairs.size(), 0.0f);
  std::vector<float> weight(pairs.size());
  std::vector<float> user_data, item_data, out;
  std::vector<size_t> row_pair;
  auto flush = [&]() {
    if (row_pair.empty()) return;
    const int rows = static_cast<int>(row_pair.size());
    const Tensor users = Tensor::FromData({rows, 2 * f}, user_data);
    const Tensor items = Tensor::FromData({rows, f}, item_data);
    out = model->RatingLogits(users, items).data();
    const int classes = static_cast<int>(out.size()) / rows;
    OM_TRACE_SPAN("scoring.softmax");
    for (int r = 0; r < rows; ++r) {
      const float* row = out.data() + static_cast<size_t>(r) * classes;
      const float max_v = *std::max_element(row, row + classes);
      double sum = 0.0, weighted = 0.0;
      for (int c = 0; c < classes; ++c) {
        double e = std::exp(static_cast<double>(row[c]) - max_v);
        sum += e;
        weighted += e * (c + 1);
      }
      const size_t i = row_pair[static_cast<size_t>(r)];
      preds[i] += weight[i] * static_cast<float>(weighted / sum);
    }
    user_data.clear();
    item_data.clear();
    row_pair.clear();
  };
  auto add_row = [&](size_t i, const std::vector<float>& user) {
    user_data.insert(user_data.end(), user.begin(), user.end());
    item_data.insert(item_data.end(), pairs[i].item->begin(),
                     pairs[i].item->end());
    row_pair.push_back(i);
    if (row_pair.size() == kHeadChunkRows) flush();
  };
  for (size_t i = 0; i < pairs.size(); ++i) {
    const UserRows& user = *pairs[i].user;
    OM_CHECK(user.passes() > 0) << "pair " << i << " has no rows";
    const bool hybrid = !user.hybrid_rows.empty();
    weight[i] = 1.0f / static_cast<float>(user.passes() * (hybrid ? 2 : 1));
    for (int k = 0; k < user.passes(); ++k) {
      add_row(i, user.rep_rows[static_cast<size_t>(k)]);
      if (hybrid) add_row(i, user.hybrid_rows[static_cast<size_t>(k)]);
    }
  }
  flush();
  return preds;
}

}  // namespace core
}  // namespace omnimatch
