#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/check.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "common/io.h"
#include "core/checkpoint.h"
#include "core/scoring.h"
#include "nn/health.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/document.h"

namespace omnimatch {
namespace core {

using data::DomainSide;
using nn::Tensor;

namespace {
/// Per-phase duration histograms (ns). Looked up once; Observe() only fires
/// while obs::MetricsEnabled(), and the paired trace span only records
/// while tracing is on, so the steady-state cost of an instrumented phase
/// is one relaxed atomic load.
obs::Histogram* PhaseHist(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name);
}

/// Evaluation block size in (user, item) pairs, rounded up to whole users.
constexpr size_t kEvalBlockPairs = 1024;
}  // namespace

OmniMatchTrainer::OmniMatchTrainer(const OmniMatchConfig& config,
                                   const data::CrossDomainDataset* cross,
                                   data::ColdStartSplit split)
    : config_(config),
      cross_(cross),
      split_(std::move(split)),
      rng_(config.seed) {
  OM_CHECK(cross_ != nullptr);
}

const text::Vocabulary& OmniMatchTrainer::vocabulary() const {
  OM_CHECK(docs_.tokens != nullptr) << "call Prepare() first";
  return docs_.tokens->vocab;
}

Result<ScenarioDocuments> BuildScenarioDocuments(
    const OmniMatchConfig& config, const data::CrossDomainDataset* cross,
    const data::ColdStartSplit& split, Rng* rng) {
  OM_CHECK(cross != nullptr);
  if (split.train_users.empty()) {
    return Status::FailedPrecondition("split has no training users");
  }
  const data::DomainDataset& source = cross->source();
  const data::DomainDataset& target = cross->target();
  if (std::none_of(split.train_users.begin(), split.train_users.end(),
                   [&](int u) { return target.HasUser(u); })) {
    return Status::FailedPrecondition(
        "training users have no target-domain records");
  }
  ScenarioDocuments docs;
  docs.aux_generator = std::make_unique<AuxReviewGenerator>(
      cross, split.train_users, config.text_field);
  {
    // Training-visible text: every source-domain review (cold users' source
    // history is known) plus target-domain reviews of training users only.
    OM_TRACE_SPAN("build_vocabulary");
    docs.tokens = TokenizeReviews(*cross, split.train_users,
                                  config.text_field, config.min_vocab_count);
  }
  OM_TRACE_SPAN("build_documents");
  const ReviewTokens& tokens = *docs.tokens;

  // Source documents for every overlapping user (R^u of Eq. 1).
  for (int u : cross->overlapping_users()) {
    docs.user_source_docs[u] = text::BuildDocument(
        tokens.source, source.RecordsOfUser(u), config.doc_len);
  }

  // Target documents: training users use their real target reviews; cold
  // users get Algorithm 1 auxiliary documents (or their source reviews as a
  // degraded fallback in the w/o-AuxReviews ablation).
  for (int u : split.train_users) {
    docs.user_target_docs[u] = text::BuildDocument(
        tokens.target, target.RecordsOfUser(u), config.doc_len);
  }
  if (config.aux_augmentation_prob > 0.0f) {
    // Cold-start self-simulation: the generator already excludes the user
    // themselves from the like-minded pool. A separate loop (rather than
    // inline above) so the Algorithm 1 cost traces as its own "auxgen"
    // span; the rng draw order is identical either way because the doc
    // building above consumes no randomness.
    OM_TRACE_SPAN_TIMED("auxgen", PhaseHist("trainer.auxgen_ns"));
    for (int u : split.train_users) {
      docs.train_aux_records[u] = docs.aux_generator->GenerateRecords(u, rng);
    }
  }
  std::vector<int> cold_users = split.validation_users;
  cold_users.insert(cold_users.end(), split.test_users.begin(),
                    split.test_users.end());
  {
    OM_TRACE_SPAN_TIMED("auxgen", PhaseHist("trainer.auxgen_ns"));
    for (int u : cold_users) {
      std::vector<std::vector<int>> variants =
          ColdStartDocs(*docs.aux_generator, config, tokens, u, rng);
      docs.user_target_docs[u] = std::move(variants[0]);
      variants.erase(variants.begin());
      if (!variants.empty()) {
        docs.cold_aux_doc_variants[u] = std::move(variants);
      }
    }
  }

  // Item documents from training users' target reviews only (test users'
  // reviews are hidden).
  const std::unordered_set<int> train_set(split.train_users.begin(),
                                          split.train_users.end());
  for (int item : target.items()) {
    std::vector<int>& records = docs.item_records[item];
    for (int idx : target.RecordsOfItem(item)) {
      if (train_set.count(target.ReviewUser(static_cast<size_t>(idx))) > 0) {
        records.push_back(idx);
      }
    }
    // All pads when no training user reviewed the item.
    docs.item_docs[item] =
        text::BuildDocument(tokens.target, records, config.item_doc_len);
  }
  return docs;
}

Status OmniMatchTrainer::Prepare() {
  OM_RETURN_IF_ERROR(config_.Validate());
  SetNumThreads(config_.num_threads);
  // Attach the observability sinks before any instrumented work runs.
  if (!config_.trace_out.empty()) obs::EnableTracing(true);
  if (!config_.metrics_out.empty()) obs::EnableMetrics(true);
  OM_TRACE_SPAN("prepare");
  Result<ScenarioDocuments> docs =
      BuildScenarioDocuments(config_, cross_, split_, &rng_);
  if (!docs.ok()) return docs.status();
  docs_ = std::move(docs).value();
  BuildTrainSamples();
  model_ = std::make_unique<OmniMatchModel>(config_, vocabulary().size(),
                                            &rng_);
  if (config_.optimizer == OptimizerKind::kAdadelta) {
    optimizer_ = std::make_unique<nn::Adadelta>(
        model_->Parameters(), config_.learning_rate, config_.adadelta_rho);
  } else {
    optimizer_ =
        std::make_unique<nn::Adam>(model_->Parameters(), config_.adam_lr);
  }
  // Fresh resumable state; LoadCheckpoint overwrites it to continue a run.
  sample_order_.resize(train_samples_.size());
  for (size_t i = 0; i < sample_order_.size(); ++i) {
    sample_order_[i] = static_cast<int>(i);
  }
  progress_ = TrainStats();
  epochs_completed_ = 0;
  best_rmse_ = 1e30;
  best_params_.clear();
  guard_ = TrainingGuard(TrainingGuard::Options{
      static_cast<double>(config_.guard_spike_factor),
      static_cast<double>(config_.guard_ema_decay),
      config_.guard_warmup_steps});
  prepared_ = true;
  if (config_.verbose) {
    OM_LOG(Info) << "prepared " << cross_->ScenarioName() << ": vocab "
                 << vocabulary().size() << ", train samples "
                 << train_samples_.size() << ", params "
                 << model_->NumParameters();
  }
  return Status::OK();
}

void OmniMatchTrainer::BuildTrainSamples() {
  train_samples_.clear();
  for (int u : split_.train_users) {
    for (int idx : cross_->target().RecordsOfUser(u)) {
      size_t i = static_cast<size_t>(idx);
      TrainSample s;
      s.user = u;
      s.item = cross_->target().ReviewItem(i);
      s.label = std::clamp(
          static_cast<int>(std::lround(cross_->target().ReviewRating(i))) - 1,
          0, config_.num_rating_classes - 1);
      train_samples_.push_back(s);
    }
  }
}

std::vector<int> OmniMatchTrainer::GatherDocs(
    const std::unordered_map<int, std::vector<int>>& docs,
    const std::vector<int>& keys, int doc_len) const {
  std::vector<int> flat;
  flat.reserve(keys.size() * static_cast<size_t>(doc_len));
  for (int key : keys) {
    auto it = docs.find(key);
    if (it == docs.end()) {
      flat.insert(flat.end(), static_cast<size_t>(doc_len),
                  text::Vocabulary::kPadId);
    } else {
      OM_CHECK_EQ(it->second.size(), static_cast<size_t>(doc_len));
      flat.insert(flat.end(), it->second.begin(), it->second.end());
    }
  }
  return flat;
}

void OmniMatchTrainer::AssembleTrainingDoc(const text::TokenTable& table,
                                           IdSpan records, int doc_len,
                                           Rng* rng, int* dst) const {
  int filled = 0;
  if (!records.empty()) {
    std::vector<int> order(records.begin(), records.end());
    if (config_.shuffle_reviews_in_training) rng->Shuffle(order);
    for (int r : order) {
      for (int tok : table.Record(static_cast<size_t>(r))) {
        if (filled >= doc_len) break;
        bool masked = config_.word_dropout > 0.0f &&
                      rng->Bernoulli(config_.word_dropout);
        dst[filled++] = masked ? text::Vocabulary::kPadId : tok;
      }
      if (filled >= doc_len) break;
    }
  }
  while (filled < doc_len) dst[filled++] = text::Vocabulary::kPadId;
}

uint64_t OmniMatchTrainer::NextDocSeed() {
  return (static_cast<uint64_t>(rng_.NextU32()) << 32) | rng_.NextU32();
}

namespace {
/// Child stream for document slot `index` of the batch seeded by `base`
/// (splitmix-style mixing so adjacent slots decorrelate).
Rng DocRng(uint64_t base, int64_t index) {
  return Rng(base ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(index) +
                                              0x243F6A8885A308D3ULL)));
}
}  // namespace

std::vector<int> OmniMatchTrainer::GatherTrainingDocs(
    const text::TokenTable& table, const RecordsOf& records_of,
    const std::unordered_map<int, std::vector<int>>& fixed_docs,
    const std::vector<int>& keys, int doc_len) {
  if (!config_.shuffle_reviews_in_training && config_.word_dropout <= 0.0f) {
    return GatherDocs(fixed_docs, keys, doc_len);
  }
  // One base draw per batch keeps the trainer stream's consumption
  // independent of threading; each document slot then assembles from its
  // own derived stream into a disjoint span, so the batch parallelizes with
  // bit-identical results for any thread count.
  uint64_t base = NextDocSeed();
  std::vector<int> flat(keys.size() * static_cast<size_t>(doc_len));
  ParallelFor(0, static_cast<int64_t>(keys.size()), 8,
              [&](int64_t k0, int64_t k1) {
                for (int64_t k = k0; k < k1; ++k) {
                  Rng rng = DocRng(base, k);
                  AssembleTrainingDoc(
                      table, records_of(keys[static_cast<size_t>(k)]),
                      doc_len, &rng,
                      flat.data() + static_cast<size_t>(k) * doc_len);
                }
              });
  return flat;
}

std::vector<int> OmniMatchTrainer::GatherTargetTrainingDocs(
    const std::vector<int>& users) {
  uint64_t base = NextDocSeed();
  int doc_len = config_.doc_len;
  std::vector<int> flat(users.size() * static_cast<size_t>(doc_len));
  ParallelFor(0, static_cast<int64_t>(users.size()), 8,
              [&](int64_t k0, int64_t k1) {
                for (int64_t k = k0; k < k1; ++k) {
                  Rng rng = DocRng(base, k);
                  int u = users[static_cast<size_t>(k)];
                  IdSpan records;
                  if (config_.aux_augmentation_prob > 0.0f &&
                      rng.Bernoulli(config_.aux_augmentation_prob)) {
                    auto aux = docs_.train_aux_records.find(u);
                    if (aux != docs_.train_aux_records.end()) {
                      records = aux->second;
                    }
                  }
                  // Real reviews unless a non-empty aux document was drawn.
                  if (records.empty()) {
                    records = cross_->target().RecordsOfUser(u);
                  }
                  AssembleTrainingDoc(
                      docs_.tokens->target, records, doc_len, &rng,
                      flat.data() + static_cast<size_t>(k) * doc_len);
                }
              });
  return flat;
}

namespace {
/// Writes the fault's value (NaN unless the spec gives a magnitude) into a
/// seed-chosen element of a seed-chosen tensor's data or gradient buffer.
/// Deterministic: the same spec corrupts the same element every run.
void PoisonOneValue(std::vector<nn::Tensor> params, const FaultHit& hit,
                    bool poison_grad) {
  Rng rng(hit.seed * 0x9E3779B97F4A7C15ULL + 0x7C15ULL);
  float value = hit.magnitude == 0.0
                    ? std::numeric_limits<float>::quiet_NaN()
                    : static_cast<float>(hit.magnitude);
  size_t start = rng.UniformU32(static_cast<uint32_t>(params.size()));
  for (size_t k = 0; k < params.size(); ++k) {
    nn::Tensor t = params[(start + k) % params.size()];
    std::vector<float>& buf = poison_grad ? t.grad() : t.data();
    if (buf.empty()) continue;  // grad not allocated: try the next tensor
    buf[rng.UniformU32(static_cast<uint32_t>(buf.size()))] = value;
    return;
  }
}
}  // namespace

OmniMatchTrainer::StepOutcome OmniMatchTrainer::TrainBatch(
    const std::vector<TrainSample>& batch) {
  int b = static_cast<int>(batch.size());
  std::vector<int> users, items;
  std::vector<int> labels;
  users.reserve(b);
  items.reserve(b);
  labels.reserve(b);
  for (const TrainSample& s : batch) {
    users.push_back(s.user);
    items.push_back(s.item);
    labels.push_back(s.label);
  }

  model_->set_training(true);
  optimizer_->ZeroGrad();

  // Per-batch document assembly (shuffle / word dropout / aux substitution)
  // is hoisted out of the extractor calls so it traces as its own phase.
  // The rng_ draw order is unchanged: source gather, target gather, item
  // gather — exactly the order the inline arguments evaluated in.
  std::vector<int> src_doc_ids, tgt_doc_ids, item_doc_ids;
  {
    OM_TRACE_SPAN_TIMED("doc_assembly", PhaseHist("trainer.doc_assembly_ns"));
    src_doc_ids = GatherTrainingDocs(
        docs_.tokens->source,
        [this](int u) { return cross_->source().RecordsOfUser(u); },
        docs_.user_source_docs, users, config_.doc_len);
    tgt_doc_ids = GatherTargetTrainingDocs(users);
    item_doc_ids = GatherTrainingDocs(
        docs_.tokens->target,
        [this](int item) -> IdSpan {
          auto it = docs_.item_records.find(item);
          if (it == docs_.item_records.end()) return {};
          return it->second;
        },
        docs_.item_docs, items, config_.item_doc_len);
  }

  // --- Feature Extraction Module (Fig. 2 B) ---
  OmniMatchModel::UserFeatures src, tgt;
  Tensor item_rep;
  Tensor r_source, r_target, rating_logits;
  Tensor loss;
  double rating_loss = 0.0;
  double scl_loss = 0.0;
  double domain_loss = 0.0;
  {
    OM_TRACE_SPAN_TIMED("forward", PhaseHist("trainer.forward_ns"));
    src = model_->ExtractUser(DomainSide::kSource, src_doc_ids, b);
    tgt = model_->ExtractUser(DomainSide::kTarget, tgt_doc_ids, b);
    item_rep = model_->ExtractItem(item_doc_ids, b);

    r_source = OmniMatchModel::UserRepresentation(src);
    r_target = OmniMatchModel::UserRepresentation(tgt);

    // Rating classifier (Eq. 18-19).
    rating_logits = model_->RatingLogits(r_target, item_rep);
  }

  {
    OM_TRACE_SPAN_TIMED("losses", PhaseHist("trainer.losses_ns"));
    loss = nn::SoftmaxCrossEntropy(rating_logits, labels);
    if (config_.use_hybrid_inference) {
      // Train the classifier on the hybrid representation used for
      // cold-start inference: the user's source-domain invariant features
      // (aligned by DA + SCL) concatenated with the target-side specific
      // features.
      Tensor hybrid = nn::ConcatCols({src.invariant, tgt.specific});
      Tensor hybrid_loss = nn::SoftmaxCrossEntropy(
          model_->RatingLogits(hybrid, item_rep), labels);
      loss = nn::Scale(nn::Add(loss, hybrid_loss), 0.5f);
    }
    rating_loss = loss.ScalarValue();

    // --- Contrastive Representation Learning Module (Fig. 2 D, Eq. 11-13):
    // project source and target user-item pairs; positives share a rating.
    if (config_.use_scl && config_.alpha > 0.0f) {
      Tensor x_src = model_->Project(r_source, item_rep);
      Tensor x_tgt = model_->Project(r_target, item_rep);
      Tensor features = nn::ConcatRows({x_src, x_tgt});
      std::vector<int> scl_labels = labels;
      scl_labels.insert(scl_labels.end(), labels.begin(), labels.end());
      Tensor scl = nn::SupConLoss(features, scl_labels, config_.temperature);
      scl_loss = scl.ScalarValue();
      loss = nn::Add(loss, nn::Scale(scl, config_.alpha));
    }

    // --- Domain Adversarial Training Module (Fig. 2 C, Eq. 14-17, 20):
    // invariant features behind the GRL, specific features trained normally.
    if (config_.use_domain_adversarial && config_.beta > 0.0f) {
      std::vector<int> domain_labels(static_cast<size_t>(2 * b), 0);
      for (int i = b; i < 2 * b; ++i) {
        domain_labels[static_cast<size_t>(i)] = 1;
      }
      Tensor inv = nn::ConcatRows({src.invariant, tgt.invariant});
      Tensor spec = nn::ConcatRows({src.specific, tgt.specific});
      Tensor inv_loss = nn::SoftmaxCrossEntropy(
          model_->DomainLogitsInvariant(inv), domain_labels);
      Tensor spec_loss = nn::SoftmaxCrossEntropy(
          model_->DomainLogitsSpecific(spec), domain_labels);
      Tensor domain = nn::Add(inv_loss, spec_loss);  // Eq. 20
      domain_loss = domain.ScalarValue();
      loss = nn::Add(loss, nn::Scale(domain, config_.beta));  // Eq. 21
    }
  }

  {
    OM_TRACE_SPAN_TIMED("backward", PhaseHist("trainer.backward_ns"));
    loss.Backward();
  }

  // Fault point "grad": flip one gradient value after backward, before the
  // clip — exactly the poison a real overflow would plant.
  FaultHit hit;
  FaultInjector& faults = FaultInjector::Global();
  if (faults.ShouldFire("grad", progress_.steps, &hit)) {
    PoisonOneValue(model_->Parameters(), hit, /*poison_grad=*/true);
  }

  nn::GradClipResult clip;
  {
    OM_TRACE_SPAN_TIMED("clip", PhaseHist("trainer.clip_ns"));
    clip = optimizer_->ClipGradNorm(config_.grad_clip_norm);
  }
  if (clip.finite) {
    OM_TRACE_SPAN_TIMED("optimizer_step",
                        PhaseHist("trainer.optimizer_step_ns"));
    optimizer_->Step();
  } else if (!config_.guard_enabled) {
    // No guard to roll back and retry: skipping the poisoned update is the
    // only defense left, and it deserves a loud note.
    OM_LOG(Warning) << "non-finite gradient at step " << progress_.steps
                    << "; update skipped (guard disabled)";
  }

  // Fault point "param": corrupt one parameter value after the update (a
  // torn write / bit flip in the weights).
  if (faults.ShouldFire("param", progress_.steps, &hit)) {
    PoisonOneValue(model_->Parameters(), hit, /*poison_grad=*/false);
  }

  StepOutcome out;
  out.losses = {loss.ScalarValue(), rating_loss, scl_loss, domain_loss};
  out.grad_norm = clip.norm;
  out.grads_finite = clip.finite;
  // Fault point "loss": spike the observed step loss (default 10x) to
  // exercise the divergence detector.
  if (faults.ShouldFire("loss", progress_.steps, &hit)) {
    out.losses[0] *= hit.magnitude == 0.0 ? 10.0 : hit.magnitude;
  }
  return out;
}

void OmniMatchTrainer::CaptureGuardSnapshot(GuardSnapshot* snap) const {
  const std::vector<nn::Tensor>& params = optimizer_->params();
  snap->params.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    // Same-size vector assignment reuses the destination's buffer, so after
    // the first step this is a plain memcpy per parameter.
    snap->params[i] = params[i].data();
  }
  optimizer_->ExportStateInto(&snap->optimizer);
  snap->lr = optimizer_->lr();
  snap->trainer_rng = rng_.GetState();
  snap->model_rngs = model_->RngStates();
}

void OmniMatchTrainer::RestoreGuardSnapshot(const GuardSnapshot& snapshot) {
  std::vector<nn::Tensor> params = model_->Parameters();
  OM_CHECK_EQ(params.size(), snapshot.params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].data() = snapshot.params[i];
  }
  Status restored = optimizer_->ImportState(snapshot.optimizer);
  OM_CHECK(restored.ok()) << restored.ToString();
  optimizer_->set_lr(snapshot.lr);
  rng_.SetState(snapshot.trainer_rng);
  Status rngs = model_->SetRngStates(snapshot.model_rngs);
  OM_CHECK(rngs.ok()) << rngs.ToString();
}

namespace {
std::vector<std::vector<float>> SnapshotParams(
    const std::vector<nn::Tensor>& params) {
  std::vector<std::vector<float>> out;
  out.reserve(params.size());
  for (const nn::Tensor& p : params) out.push_back(p.data());
  return out;
}

void RestoreParams(std::vector<nn::Tensor>& params,
                   const std::vector<std::vector<float>>& snapshot) {
  for (size_t i = 0; i < params.size(); ++i) params[i].data() = snapshot[i];
}

/// glibc keeps freed heap pages resident in its arenas, one per thread that
/// allocated; hand them back to the OS. The main thread cannot reuse what
/// another thread's arena holds free.
void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}
}  // namespace

TrainStats OmniMatchTrainer::Train() {
  OM_CHECK(prepared_) << "call Prepare() first";
  // What evaluation and serving threads freed since the last trim would
  // otherwise stay resident underneath training's working set, which the
  // first step allocates, and set the process's peak.
  ReleaseFreeHeap();
  Stopwatch watch;
  const bool track_validation =
      config_.select_best_epoch && !split_.validation_users.empty();
  std::vector<nn::Tensor> params = model_->Parameters();
  // Resume-aware epoch loop: a fresh trainer starts at 0; one restored via
  // LoadCheckpoint continues after the checkpointed epoch with the exact
  // RNG streams and sample permutation of the original run, so the two
  // trajectories are bit-identical.
  const bool guard_on = config_.guard_enabled;
  bool gave_up = false;
  // Hoisted so the per-step capture reuses the same buffers every step
  // (see CaptureGuardSnapshot).
  GuardSnapshot snap;
  for (int epoch = epochs_completed_; epoch < config_.epochs && !gave_up;
       ++epoch) {
    rng_.Shuffle(sample_order_);
    double total = 0.0, rating = 0.0, scl = 0.0, domain = 0.0;
    int batches = 0;
    for (size_t start = 0; start < sample_order_.size();
         start += static_cast<size_t>(config_.batch_size)) {
      size_t end =
          std::min(sample_order_.size(),
                   start + static_cast<size_t>(config_.batch_size));
      if (end - start < 2) break;  // SupCon needs at least a pair
      std::vector<TrainSample> batch;
      batch.reserve(end - start);
      for (size_t i = start; i < end; ++i) {
        batch.push_back(train_samples_[static_cast<size_t>(
            sample_order_[i])]);
      }
      OM_TRACE_SPAN_TIMED("step", PhaseHist("trainer.step_ns"));
      // Self-healing step: snapshot, attempt, and on a detected fault roll
      // back to the snapshot, back off the LR, and retry the SAME batch
      // (the restored RNG streams make the retry bit-deterministic). The
      // snapshot covers everything a batch mutates, so the loop's loss
      // accumulators — updated only after the guard accepts — need none.
      if (guard_on) {
        OM_TRACE_SPAN_TIMED("guard_snapshot",
                            PhaseHist("trainer.guard_snapshot_ns"));
        CaptureGuardSnapshot(&snap);
      }
      StepOutcome outcome;
      while (true) {
        outcome = TrainBatch(batch);
        if (!guard_on) break;
        bool params_finite = false;
        double threshold = 0.0;
        FaultReason reason;
        {
          OM_TRACE_SPAN_TIMED("guard_check",
                              PhaseHist("trainer.guard_check_ns"));
          params_finite = nn::AllFinite(params);
          reason = guard_.Check(outcome.losses[0], outcome.grads_finite,
                                params_finite, &threshold);
        }
        if (reason == FaultReason::kNone) break;
        // Roll back before anything else: even when the budget is spent,
        // training must end on the last GOOD state, not the poisoned one.
        RestoreGuardSnapshot(snap);
        if (progress_.recoveries >= config_.max_recoveries) {
          OM_LOG(Error) << "guard: " << FaultReasonName(reason)
                        << " at step " << progress_.steps << " but the "
                        << config_.max_recoveries
                        << "-recovery budget is spent; stopping on the last "
                           "good state";
          progress_.guard_gave_up = true;
          gave_up = true;
          break;
        }
        RecoveryEvent event;
        event.step = progress_.steps;
        event.reason = reason;
        event.observed = reason == FaultReason::kNonFiniteGrad
                             ? outcome.grad_norm
                             : outcome.losses[0];
        event.threshold = threshold;
        event.lr_before = optimizer_->lr();
        event.lr_after = event.lr_before * config_.lr_backoff;
        optimizer_->set_lr(event.lr_after);
        ++progress_.recoveries;
        progress_.recovery_events.push_back(event);
        OM_LOG(Warning) << StrFormat(
            "guard: %s at step %d (observed %.4g, threshold %.4g); rolled "
            "back, lr %.4g -> %.4g, retry %d/%d",
            FaultReasonName(reason), progress_.steps, event.observed,
            event.threshold, static_cast<double>(event.lr_before),
            static_cast<double>(event.lr_after), progress_.recoveries,
            config_.max_recoveries);
      }
      if (gave_up) break;
      total += outcome.losses[0];
      rating += outcome.losses[1];
      scl += outcome.losses[2];
      domain += outcome.losses[3];
      ++batches;
      ++progress_.steps;
    }
    if (batches == 0) break;
    progress_.total_loss.push_back(total / batches);
    progress_.rating_loss.push_back(rating / batches);
    progress_.scl_loss.push_back(scl / batches);
    progress_.domain_loss.push_back(domain / batches);
    if (track_validation) {
      double rmse = Evaluate(split_.validation_users).rmse;
      progress_.validation_rmse.push_back(rmse);
      if (rmse < best_rmse_) {
        best_rmse_ = rmse;
        best_params_ = SnapshotParams(params);
        progress_.best_epoch = epoch;
      }
    }
    if (config_.verbose) {
      OM_LOG(Info) << StrFormat(
          "epoch %d: total %.4f rating %.4f scl %.4f domain %.4f%s", epoch,
          progress_.total_loss.back(), progress_.rating_loss.back(),
          progress_.scl_loss.back(), progress_.domain_loss.back(),
          track_validation
              ? StrFormat(" val-rmse %.4f", progress_.validation_rmse.back())
                    .c_str()
              : "");
    }
    epochs_completed_ = epoch + 1;
    if (config_.checkpoint_every > 0 &&
        epochs_completed_ % config_.checkpoint_every == 0) {
      OM_TRACE_SPAN_TIMED("checkpoint_write",
                          PhaseHist("trainer.checkpoint_write_ns"));
      Status saved = EnsureDirectory(config_.checkpoint_dir);
      if (saved.ok()) {
        saved = SaveCheckpoint(StrFormat(
            "%s/checkpoint_epoch%d.omck", config_.checkpoint_dir.c_str(),
            epochs_completed_));
      }
      if (!saved.ok()) {
        // A failed save must not kill a multi-hour run; the next interval
        // retries.
        OM_LOG(Warning) << "checkpoint save failed: " << saved.ToString();
      }
    }
  }
  progress_.train_seconds += watch.ElapsedSeconds();
  // Hand the step working set (the step tensors' buffers, guard and
  // validation buffers) back to the OS, so a process that serves after
  // training does not carry training's high-water mark.
  ReleaseFreeHeap();
  TrainStats stats = progress_;
  if (track_validation && !best_params_.empty()) {
    RestoreParams(params, best_params_);
  }
  // Flush the observability sinks configured in OmniMatchConfig. Failures
  // are warnings: a broken sink path must not kill a finished run.
  if (!config_.trace_out.empty() &&
      !obs::WriteChromeTrace(config_.trace_out)) {
    OM_LOG(Warning) << "trace export to " << config_.trace_out << " failed";
  }
  if (!config_.metrics_out.empty() &&
      !obs::MetricsRegistry::Global().WriteJsonLines(config_.metrics_out)) {
    OM_LOG(Warning) << "metrics export to " << config_.metrics_out
                    << " failed";
  }
  return stats;
}

std::vector<float> OmniMatchTrainer::PredictBatch(
    const std::vector<TrainSample>& batch) {
  model_->set_training(false);
  // Each distinct user and item is extracted once for the whole batch.
  std::unordered_map<int, size_t> user_slot, item_slot;
  std::vector<UserDocs> user_docs;
  std::vector<const std::vector<int>*> item_docs;
  for (const TrainSample& s : batch) {
    if (user_slot.emplace(s.user, user_docs.size()).second) {
      user_docs.push_back(FrozenUserDocs(s.user, docs_.user_target_docs,
                                         docs_.cold_aux_doc_variants,
                                         docs_.user_source_docs));
    }
    if (item_slot.emplace(s.item, item_docs.size()).second) {
      item_docs.push_back(FindDoc(docs_.item_docs, s.item));
    }
  }
  std::vector<UserRows> user_rows = ExtractUserRows(model_.get(), user_docs);
  std::vector<std::vector<float>> item_rows =
      ExtractItemRows(model_.get(), item_docs);
  std::vector<ScorePair> pairs;
  pairs.reserve(batch.size());
  for (const TrainSample& s : batch) {
    pairs.push_back(
        {&user_rows[user_slot[s.user]], &item_rows[item_slot[s.item]]});
  }
  return ExpectedRatings(model_.get(), pairs);
}

eval::Metrics OmniMatchTrainer::Evaluate(const std::vector<int>& users) {
  OM_CHECK(prepared_) << "call Prepare() first";
  OM_TRACE_SPAN_TIMED("evaluate", PhaseHist("trainer.evaluate_ns"));
  eval::MetricsAccumulator acc;
  std::vector<TrainSample> batch;
  std::vector<float> gold;
  auto flush = [&]() {
    if (batch.empty()) return;
    std::vector<float> preds = PredictBatch(batch);
    for (size_t i = 0; i < preds.size(); ++i) acc.Add(preds[i], gold[i]);
    batch.clear();
    gold.clear();
  };
  for (int u : users) {
    for (int idx : cross_->target().RecordsOfUser(u)) {
      size_t i = static_cast<size_t>(idx);
      TrainSample s;
      s.user = u;
      s.item = cross_->target().ReviewItem(i);
      batch.push_back(s);
      gold.push_back(cross_->target().ReviewRating(i));
    }
    // Blocks end on user boundaries, so each user's rows are extracted
    // once per Evaluate; block size affects speed only, never a score.
    if (batch.size() >= kEvalBlockPairs) flush();
  }
  flush();
  // Zero cold-start records (e.g. every user filtered out of a split) is a
  // degenerate-but-valid evaluation: report an empty Metrics instead of
  // failing — count == 0 tells the caller nothing was measured.
  Result<eval::Metrics> result = acc.Finalize();
  return result.ok() ? result.value() : eval::Metrics{};
}

Status OmniMatchTrainer::SaveCheckpoint(const std::string& path) const {
  OM_CHECK(prepared_) << "call Prepare() first";
  CheckpointState state;
  state.config_fingerprint = config_.Fingerprint();
  state.epochs_completed = epochs_completed_;
  state.steps = progress_.steps;
  for (const nn::Tensor& p : model_->Parameters()) {
    state.params.push_back(p.data());
  }
  state.optimizer = optimizer_->ExportState();
  state.trainer_rng = rng_.GetState();
  state.model_rngs = model_->RngStates();
  state.total_loss = progress_.total_loss;
  state.rating_loss = progress_.rating_loss;
  state.scl_loss = progress_.scl_loss;
  state.domain_loss = progress_.domain_loss;
  state.validation_rmse = progress_.validation_rmse;
  state.best_epoch = progress_.best_epoch;
  state.best_rmse = best_rmse_;
  state.best_params = best_params_;
  state.sample_order.assign(sample_order_.begin(), sample_order_.end());
  state.recovery_events = progress_.recovery_events;
  state.recoveries = progress_.recoveries;
  state.guard_gave_up = progress_.guard_gave_up ? 1 : 0;
  state.current_lr = optimizer_->lr();
  state.guard_ema = guard_.ema();
  state.guard_healthy_steps = guard_.healthy_steps();
  return SaveCheckpointFile(path, state);
}

Status OmniMatchTrainer::LoadCheckpoint(const std::string& path) {
  OM_CHECK(prepared_) << "call Prepare() first";
  Result<CheckpointState> loaded = LoadCheckpointFile(path);
  if (!loaded.ok()) return loaded.status();
  CheckpointState state = std::move(loaded).value();

  // Validate everything against this trainer BEFORE mutating any state, so
  // a rejected checkpoint leaves the trainer usable.
  if (state.config_fingerprint != config_.Fingerprint()) {
    return Status::InvalidArgument(
        path + ": checkpoint was written under a different config "
               "(fingerprint mismatch)");
  }
  std::vector<nn::Tensor> params = model_->Parameters();
  OM_RETURN_IF_ERROR(ValidateParameters(path, "parameter", state.params,
                                        params));
  if (!state.best_params.empty()) {
    OM_RETURN_IF_ERROR(ValidateParameters(path, "best-epoch parameter",
                                          state.best_params, params));
  }
  if (state.sample_order.size() != train_samples_.size()) {
    return Status::InvalidArgument(StrFormat(
        "%s: sample order covers %zu samples, trainer has %zu",
        path.c_str(), state.sample_order.size(), train_samples_.size()));
  }
  std::vector<bool> seen(train_samples_.size(), false);
  for (int32_t idx : state.sample_order) {
    if (idx < 0 || static_cast<size_t>(idx) >= train_samples_.size()) {
      return Status::InvalidArgument(
          path + ": sample order index out of range");
    }
    if (seen[static_cast<size_t>(idx)]) {
      return Status::InvalidArgument(
          StrFormat("%s: sample order repeats index %d, so it is not a "
                    "permutation",
                    path.c_str(), idx));
    }
    seen[static_cast<size_t>(idx)] = true;
  }
  if (state.epochs_completed < 0) {
    return Status::InvalidArgument(path + ": negative epoch counter");
  }
  if (state.steps < 0) {
    return Status::InvalidArgument(path + ": negative step counter");
  }
  // best_epoch is the 0-based index of a completed epoch, or -1 for none.
  if (state.best_epoch < -1 || state.best_epoch >= state.epochs_completed) {
    return Status::InvalidArgument(
        StrFormat("%s: best epoch %d is not one of the %d completed epochs",
                  path.c_str(), state.best_epoch, state.epochs_completed));
  }
  if (!std::isfinite(state.current_lr) || state.current_lr <= 0.0f) {
    return Status::InvalidArgument(
        StrFormat("%s: learning rate %g is not finite and positive",
                  path.c_str(), static_cast<double>(state.current_lr)));
  }
  if (!std::isfinite(state.guard_ema)) {
    return Status::InvalidArgument(path + ": guard loss average not finite");
  }
  for (const std::vector<float>& slot : state.optimizer.slots) {
    for (float v : slot) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(path + ": non-finite optimizer state");
      }
    }
  }
  if (state.model_rngs.size() != model_->RngStates().size()) {
    return Status::InvalidArgument(StrFormat(
        "%s: checkpoint holds %zu model RNG streams, model has %zu",
        path.c_str(), state.model_rngs.size(), model_->RngStates().size()));
  }
  // Optimizer state import validates its own slot/counter layout.
  OM_RETURN_IF_ERROR(optimizer_->ImportState(state.optimizer));

  for (size_t i = 0; i < params.size(); ++i) {
    params[i].data() = std::move(state.params[i]);
  }
  rng_.SetState(state.trainer_rng);
  OM_RETURN_IF_ERROR(model_->SetRngStates(state.model_rngs));
  progress_ = TrainStats();
  progress_.total_loss = std::move(state.total_loss);
  progress_.rating_loss = std::move(state.rating_loss);
  progress_.scl_loss = std::move(state.scl_loss);
  progress_.domain_loss = std::move(state.domain_loss);
  progress_.validation_rmse = std::move(state.validation_rmse);
  progress_.best_epoch = state.best_epoch;
  progress_.steps = static_cast<int>(state.steps);
  progress_.recovery_events = std::move(state.recovery_events);
  progress_.recoveries = state.recoveries;
  progress_.guard_gave_up = state.guard_gave_up != 0;
  epochs_completed_ = state.epochs_completed;
  best_rmse_ = state.best_rmse;
  best_params_ = std::move(state.best_params);
  sample_order_.assign(state.sample_order.begin(),
                       state.sample_order.end());
  // Resume on the LIVE learning rate (post-backoff, not the config value)
  // and the guard's divergence baseline, or a recovered run would repeat
  // the divergence it already escaped.
  optimizer_->set_lr(state.current_lr);
  guard_.Restore(state.guard_ema, state.guard_healthy_steps);
  return Status::OK();
}

void OmniMatchTrainer::UseOracleTargetDocs(const std::vector<int>& users) {
  OM_CHECK(prepared_) << "call Prepare() first";
  for (int u : users) {
    data::IdSpan records = cross_->target().RecordsOfUser(u);
    if (records.empty()) continue;
    docs_.user_target_docs[u] =
        text::BuildDocument(docs_.tokens->target, records, config_.doc_len);
    // The oracle document replaces the whole ensemble, not just pass 0.
    docs_.cold_aux_doc_variants.erase(u);
  }
}

float OmniMatchTrainer::PredictRating(int user_id, int item_id) {
  OM_CHECK(prepared_) << "call Prepare() first";
  if (docs_.user_target_docs.find(user_id) == docs_.user_target_docs.end()) {
    return cross_->target().GlobalMeanRating();
  }
  TrainSample s;
  s.user = user_id;
  s.item = item_id;
  return PredictBatch({s})[0];
}

}  // namespace core
}  // namespace omnimatch
