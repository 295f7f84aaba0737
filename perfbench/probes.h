// Per-layer probes of the traced run: each times one public call of a layer
// from outside, on inputs taken from the workload that just ran.
#ifndef OMNIMATCH_PERFBENCH_PROBES_H_
#define OMNIMATCH_PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.h"
#include "serve/snapshot.h"

namespace perfbench {

struct ProbeInputs {
  std::shared_ptr<const omnimatch::serve::ModelSnapshot> snapshot;
  std::string checkpoint_path;
  /// Users without frozen documents (admitted through Algorithm 1).
  std::vector<int> source_only_users;
  /// One batch of the workload's (user, item) pairs, replayed through a
  /// Scorer and through ExtractItem alone.
  std::vector<std::pair<int, int>> replay;
  /// The workload serves source-only users (each replay starts with an
  /// empty cache) rather than cached ones.
  bool cold = false;
  size_t cache_capacity = 0;
  uint64_t seed = 0;
};

/// Appends the nn, core.model, core.aux_review, core.checkpoint and
/// serve.snapshot probe metrics to `metrics`.
void AddLayerProbes(const ProbeInputs& in, SpanLog* log,
                    std::vector<Metric>* metrics,
                    std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // OMNIMATCH_PERFBENCH_PROBES_H_
