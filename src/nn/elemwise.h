#ifndef OMNIMATCH_NN_ELEMWISE_H_
#define OMNIMATCH_NN_ELEMWISE_H_

#include <cstdint>

#include "common/threadpool.h"

namespace omnimatch {
namespace nn {

/// Minimum number of scalar ops before an elementwise loop is worth
/// sharding over the pool; below this the loop runs inline.
///
/// Shared by the op kernels (ops.cc) and the fused linear epilogue
/// (gemm.cc), which shards its rows like AddRowBroadcast. Chunking never
/// changes values — each index is written by exactly one chunk.
constexpr int64_t kElemGrain = 1 << 14;

/// Shards an elementwise loop [0, n) over the thread pool. Each index is
/// written by exactly one chunk, so any fn with per-index independent
/// writes is bit-deterministic for every thread count.
template <typename Fn>
void ParallelElems(size_t n, Fn&& fn) {
  ParallelFor(0, static_cast<int64_t>(n), kElemGrain,
              [&fn](int64_t b, int64_t e) {
                fn(static_cast<size_t>(b), static_cast<size_t>(e));
              });
}

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_ELEMWISE_H_
