#include "core/checkpoint.h"

#include <cmath>
#include <filesystem>
#include <system_error>

#include "common/fault.h"
#include "common/io.h"
#include "common/string_util.h"

namespace omnimatch {
namespace core {

namespace {

/// Section tags inside the payload. Sections appear in ascending tag order;
/// each is `u32 tag, u64 byte-size, bytes`. The fixed order plus explicit
/// sizes let a reader skip or sanity-check sections independently and give
/// fault-injection tests precise corruption targets.
enum SectionTag : uint32_t {
  kMeta = 1,       // fingerprint, epochs_completed, steps
  kParams = 2,     // model parameters
  kOptimizer = 3,  // optimizer counters + slots
  kRng = 4,        // trainer + model RNG states
  kTraces = 5,     // loss/validation traces, best epoch
  kOrder = 6,      // sample_order permutation
  kBest = 7,       // best-epoch parameter snapshot
  kGuard = 8,      // recovery trace, live LR, guard EMA state (v2)
};

void WriteTensorList(ByteWriter* w,
                     const std::vector<std::vector<float>>& tensors) {
  w->Write<uint64_t>(tensors.size());
  for (const auto& t : tensors) w->WriteVector(t);
}

bool ReadTensorList(ByteReader* r, std::vector<std::vector<float>>* out) {
  uint64_t count = 0;
  if (!r->Read(&count) || count > r->remaining()) return false;
  out->resize(static_cast<size_t>(count));
  for (auto& t : *out) {
    if (!r->ReadVector(&t)) return false;
  }
  return true;
}

void WriteRngState(ByteWriter* w, const Rng::State& s) {
  w->Write<uint64_t>(s.state);
  w->Write<uint64_t>(s.inc);
  w->Write<uint8_t>(s.has_cached_normal);
  w->Write<double>(s.cached_normal);
}

bool ReadRngState(ByteReader* r, Rng::State* s) {
  return r->Read(&s->state) && r->Read(&s->inc) &&
         r->Read(&s->has_cached_normal) && r->Read(&s->cached_normal);
}

/// Writes one `tag, size, body` section; `body` is built by `fill`.
template <typename Fill>
void WriteSection(ByteWriter* w, SectionTag tag, Fill fill) {
  ByteWriter body;
  fill(&body);
  w->Write<uint32_t>(tag);
  w->WriteString(body.buffer());
}

std::string EncodePayload(const CheckpointState& state) {
  ByteWriter payload;
  WriteSection(&payload, kMeta, [&](ByteWriter* w) {
    w->Write<uint64_t>(state.config_fingerprint);
    w->Write<int32_t>(state.epochs_completed);
    w->Write<int64_t>(state.steps);
  });
  WriteSection(&payload, kParams, [&](ByteWriter* w) {
    WriteTensorList(w, state.params);
  });
  WriteSection(&payload, kOptimizer, [&](ByteWriter* w) {
    w->WriteVector(state.optimizer.counters);
    WriteTensorList(w, state.optimizer.slots);
  });
  WriteSection(&payload, kRng, [&](ByteWriter* w) {
    WriteRngState(w, state.trainer_rng);
    w->Write<uint64_t>(state.model_rngs.size());
    for (const Rng::State& s : state.model_rngs) WriteRngState(w, s);
  });
  WriteSection(&payload, kTraces, [&](ByteWriter* w) {
    w->WriteVector(state.total_loss);
    w->WriteVector(state.rating_loss);
    w->WriteVector(state.scl_loss);
    w->WriteVector(state.domain_loss);
    w->WriteVector(state.validation_rmse);
    w->Write<int32_t>(state.best_epoch);
    w->Write<double>(state.best_rmse);
  });
  WriteSection(&payload, kOrder, [&](ByteWriter* w) {
    w->WriteVector(state.sample_order);
  });
  WriteSection(&payload, kBest, [&](ByteWriter* w) {
    WriteTensorList(w, state.best_params);
  });
  WriteSection(&payload, kGuard, [&](ByteWriter* w) {
    w->Write<int32_t>(state.recoveries);
    w->Write<uint8_t>(state.guard_gave_up);
    w->Write<float>(state.current_lr);
    w->Write<double>(state.guard_ema);
    w->Write<int64_t>(state.guard_healthy_steps);
    w->Write<uint64_t>(state.recovery_events.size());
    for (const RecoveryEvent& e : state.recovery_events) {
      w->Write<int64_t>(e.step);
      w->Write<int32_t>(static_cast<int32_t>(e.reason));
      w->Write<double>(e.observed);
      w->Write<double>(e.threshold);
      w->Write<float>(e.lr_before);
      w->Write<float>(e.lr_after);
    }
  });
  return payload.Release();
}

}  // namespace

Status SaveCheckpointFile(const std::string& path,
                          const CheckpointState& state) {
  // Fault point: the Nth checkpoint save fails cleanly, exercising the
  // trainer's save-failure tolerance without touching the filesystem.
  if (FaultInjector::Global().ShouldFire("checkpoint_write")) {
    return Status::IoError(path + ": injected checkpoint write fault");
  }
  return WriteFramedFile(path, kCheckpointFormat, EncodePayload(state));
}

Result<CheckpointState> LoadCheckpointFile(const std::string& path) {
  Result<std::string> file = ReadFileToString(path);
  if (!file.ok()) return file.status();
  Result<std::string_view> framed =
      ParseFramedFile(path, file.value(), kCheckpointFormat);
  if (!framed.ok()) return framed.status();

  CheckpointState state;
  ByteReader r(framed.value());
  auto section = [&](SectionTag tag,
                     auto parse) -> Status {
    uint32_t got = 0;
    uint64_t size = 0;
    if (!r.Read(&got) || got != tag || !r.Read(&size) ||
        size > r.remaining()) {
      return Status::InvalidArgument(
          StrFormat("%s: section %u missing or truncated", path.c_str(),
                    static_cast<unsigned>(tag)));
    }
    size_t before = r.remaining();
    if (!parse(&r) || before - r.remaining() != size) {
      return Status::InvalidArgument(StrFormat(
          "%s: section %u corrupt", path.c_str(),
          static_cast<unsigned>(tag)));
    }
    return Status::OK();
  };

  OM_RETURN_IF_ERROR(section(kMeta, [&](ByteReader* b) {
    return b->Read(&state.config_fingerprint) &&
           b->Read(&state.epochs_completed) && b->Read(&state.steps);
  }));
  OM_RETURN_IF_ERROR(section(kParams, [&](ByteReader* b) {
    return ReadTensorList(b, &state.params);
  }));
  OM_RETURN_IF_ERROR(section(kOptimizer, [&](ByteReader* b) {
    return b->ReadVector(&state.optimizer.counters) &&
           ReadTensorList(b, &state.optimizer.slots);
  }));
  OM_RETURN_IF_ERROR(section(kRng, [&](ByteReader* b) {
    if (!ReadRngState(b, &state.trainer_rng)) return false;
    uint64_t count = 0;
    if (!b->Read(&count) || count > b->remaining()) return false;
    state.model_rngs.resize(static_cast<size_t>(count));
    for (Rng::State& s : state.model_rngs) {
      if (!ReadRngState(b, &s)) return false;
    }
    return true;
  }));
  OM_RETURN_IF_ERROR(section(kTraces, [&](ByteReader* b) {
    return b->ReadVector(&state.total_loss) &&
           b->ReadVector(&state.rating_loss) &&
           b->ReadVector(&state.scl_loss) &&
           b->ReadVector(&state.domain_loss) &&
           b->ReadVector(&state.validation_rmse) &&
           b->Read(&state.best_epoch) && b->Read(&state.best_rmse);
  }));
  OM_RETURN_IF_ERROR(section(kOrder, [&](ByteReader* b) {
    return b->ReadVector(&state.sample_order);
  }));
  OM_RETURN_IF_ERROR(section(kBest, [&](ByteReader* b) {
    return ReadTensorList(b, &state.best_params);
  }));
  OM_RETURN_IF_ERROR(section(kGuard, [&](ByteReader* b) {
    if (!b->Read(&state.recoveries) || !b->Read(&state.guard_gave_up) ||
        !b->Read(&state.current_lr) || !b->Read(&state.guard_ema) ||
        !b->Read(&state.guard_healthy_steps)) {
      return false;
    }
    uint64_t count = 0;
    if (!b->Read(&count) || count > b->remaining()) return false;
    state.recovery_events.resize(static_cast<size_t>(count));
    for (RecoveryEvent& e : state.recovery_events) {
      int32_t reason = 0;
      if (!b->Read(&e.step) || !b->Read(&reason) || !b->Read(&e.observed) ||
          !b->Read(&e.threshold) || !b->Read(&e.lr_before) ||
          !b->Read(&e.lr_after)) {
        return false;
      }
      if (reason < 0 ||
          reason > static_cast<int32_t>(FaultReason::kNonFiniteParam)) {
        return false;
      }
      e.reason = static_cast<FaultReason>(reason);
    }
    return true;
  }));
  if (!r.exhausted()) {
    return Status::InvalidArgument(path + ": trailing bytes after sections");
  }
  return state;
}

Status ValidateParameters(const std::string& path, const char* label,
                          const std::vector<std::vector<float>>& values,
                          const std::vector<nn::Tensor>& model_params) {
  if (values.size() != model_params.size()) {
    return Status::InvalidArgument(StrFormat(
        "%s: checkpoint holds %zu %s tensors, model has %zu", path.c_str(),
        values.size(), label, model_params.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].size() != model_params[i].data().size()) {
      return Status::InvalidArgument(
          StrFormat("%s: %s %zu has %zu values, model expects %zu",
                    path.c_str(), label, i, values[i].size(),
                    model_params[i].data().size()));
    }
    for (float v : values[i]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            StrFormat("%s: non-finite %s value", path.c_str(), label));
      }
    }
  }
  return Status::OK();
}

Result<std::string> FindLatestCheckpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return Status::IoError(dir + ": " + ec.message());
  std::string best_path;
  long best_epoch = -1;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    // checkpoint_epoch<N>.omck
    constexpr char kPrefix[] = "checkpoint_epoch";
    constexpr char kSuffix[] = ".omck";
    if (!StartsWith(name, kPrefix)) continue;
    size_t digits_at = sizeof(kPrefix) - 1;
    size_t suffix_at = name.rfind(kSuffix);
    if (suffix_at == std::string::npos || suffix_at <= digits_at ||
        suffix_at + sizeof(kSuffix) - 1 != name.size()) {
      continue;
    }
    int epoch = 0;
    if (!ParseInt32(name.substr(digits_at, suffix_at - digits_at), &epoch)) {
      continue;
    }
    if (epoch > best_epoch) {
      best_epoch = epoch;
      best_path = entry.path().string();
    }
  }
  if (best_epoch < 0) {
    return Status::NotFound("no checkpoint_epoch<N>.omck files in " + dir);
  }
  return best_path;
}

}  // namespace core
}  // namespace omnimatch
