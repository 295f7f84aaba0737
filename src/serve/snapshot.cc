#include "serve/snapshot.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "nn/tensor.h"
#include "obs/trace.h"

namespace omnimatch {
namespace serve {

namespace {

/// Snapshot identity: the config fingerprint already pins architecture,
/// seed and data-shaping switches; folding in the checkpoint's progress
/// counters distinguishes successive checkpoints of the same run.
uint64_t SnapshotVersion(uint64_t fingerprint, int32_t epochs, int64_t steps,
                         bool used_best_params) {
  uint64_t v = SplitMix64(fingerprint);
  v = SplitMix64(v ^ static_cast<uint64_t>(epochs));
  v = SplitMix64(v ^ static_cast<uint64_t>(steps));
  v = SplitMix64(v ^ (used_best_params ? 0x5eedULL : 0));
  return v;
}

}  // namespace

Result<std::shared_ptr<const ServingCorpus>> ServingCorpus::Build(
    const core::OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    data::ColdStartSplit split) {
  OM_CHECK(cross != nullptr);
  OM_RETURN_IF_ERROR(config.Validate());
  Rng rng(config.seed);
  Result<core::ScenarioDocuments> docs =
      core::BuildScenarioDocuments(config, cross, split, &rng);
  if (!docs.ok()) return docs.status();

  auto corpus = std::shared_ptr<ServingCorpus>(new ServingCorpus());
  corpus->config_fingerprint_ = config.Fingerprint();
  corpus->cross_ = cross;
  corpus->global_mean_rating_ = cross->target().GlobalMeanRating();
  corpus->docs_ = std::move(docs).value();
  // Drawn only to keep the RNG stream the trainer's; serving never reads
  // them.
  corpus->docs_.item_records.clear();
  corpus->docs_.train_aux_records.clear();
  corpus->pad_user_doc_.assign(static_cast<size_t>(config.doc_len),
                               text::Vocabulary::kPadId);
  corpus->pad_item_doc_.assign(static_cast<size_t>(config.item_doc_len),
                               text::Vocabulary::kPadId);
  corpus->split_ = std::move(split);
  return std::shared_ptr<const ServingCorpus>(std::move(corpus));
}

bool ServingCorpus::Matches(const core::OmniMatchConfig& config,
                            const data::CrossDomainDataset* cross,
                            const data::ColdStartSplit& split) const {
  return config.Fingerprint() == config_fingerprint_ && cross == cross_ &&
         split.train_users == split_.train_users &&
         split.validation_users == split_.validation_users &&
         split.test_users == split_.test_users;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const core::OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    data::ColdStartSplit split, const std::string& checkpoint_path) {
  Result<std::shared_ptr<const ServingCorpus>> corpus =
      ServingCorpus::Build(config, cross, std::move(split));
  if (!corpus.ok()) return corpus.status();
  return Load(config, std::move(corpus).value(), checkpoint_path);
}

Result<std::shared_ptr<const ModelSnapshot>> ModelSnapshot::Load(
    const core::OmniMatchConfig& config,
    std::shared_ptr<const ServingCorpus> corpus,
    const std::string& checkpoint_path) {
  OM_CHECK(corpus != nullptr);
  OM_CHECK_EQ(corpus->config_fingerprint(), config.Fingerprint());

  core::CheckpointState state;
  {
    // Read, frame checksum (the nested "io.frame_crc32") and decode.
    OM_TRACE_SPAN("snapshot.read_checkpoint");
    Result<core::CheckpointState> loaded =
        core::LoadCheckpointFile(checkpoint_path);
    if (!loaded.ok()) return loaded.status();
    state = std::move(loaded).value();
  }

  if (state.config_fingerprint != config.Fingerprint()) {
    return Status::InvalidArgument(
        checkpoint_path +
        ": checkpoint was written under a different config (fingerprint "
        "mismatch)");
  }
  const bool use_best = !state.best_params.empty();
  std::vector<std::vector<float>>& chosen =
      use_best ? state.best_params : state.params;

  OM_TRACE_SPAN("snapshot.build_model");
  auto snapshot = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snapshot->config_ = config;
  snapshot->corpus_ = std::move(corpus);

  // A fresh model of the same architecture; its random initialization is
  // immediately overwritten by the checkpoint's parameters.
  Rng init_rng(config.seed);
  snapshot->model_ = std::make_unique<core::OmniMatchModel>(
      config, snapshot->vocabulary().size(), &init_rng);
  std::vector<nn::Tensor> params = snapshot->model_->Parameters();
  OM_RETURN_IF_ERROR(core::ValidateParameters(
      checkpoint_path, use_best ? "best-epoch parameter" : "parameter", chosen,
      params));
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].data() = std::move(chosen[i]);
    // Inference never backpropagates; dropping requires_grad keeps the
    // forward pass from recording an autograd tape. The math is untouched.
    params[i].set_requires_grad(false);
  }
  // Recursive: pre-sets every submodule's flag so the forward pass never
  // writes shared state again — the precondition for running this model on
  // several executor threads concurrently (see OmniMatchModel docs).
  snapshot->model_->SetTrainingMode(false);

  snapshot->version_ = SnapshotVersion(state.config_fingerprint,
                                       state.epochs_completed, state.steps,
                                       use_best);
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

std::vector<std::vector<int>> ModelSnapshot::BuildColdUserDocs(
    int user_id) const {
  if (cross()->source().RecordsOfUser(user_id).empty()) return {};
  // Seeded from (snapshot version, user id): admission is deterministic per
  // snapshot, independent of request order and of which replica serves it —
  // the same contract the offline parallel GenerateAll uses.
  Rng rng(core::AuxReviewGenerator::PerUserSeed(version_, user_id));
  return core::ColdStartDocs(aux_generator(), config_,
                             corpus_->review_tokens(), user_id, &rng);
}

}  // namespace serve
}  // namespace omnimatch
