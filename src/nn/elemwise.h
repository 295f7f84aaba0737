#ifndef OMNIMATCH_NN_ELEMWISE_H_
#define OMNIMATCH_NN_ELEMWISE_H_

#include <cstdint>

#include "common/threadpool.h"

namespace omnimatch {
namespace nn {

/// Estimated scalar operations per element of an elementwise loop (its
/// loads, the operation and the store): the `item_work` an op kernel passes
/// to ParallelFor per element it touches.
constexpr int64_t kElemWork = 4;

/// Minimum elements per chunk of an elementwise loop: the range whose work
/// reaches kSerialWorkLimit. Chunking never changes values — each index is
/// written by exactly one chunk.
constexpr int64_t kElemGrain = kSerialWorkLimit / kElemWork;

/// Shards an elementwise loop [0, n) over the thread pool. Each index is
/// written by exactly one chunk, so any fn with per-index independent
/// writes is bit-deterministic for every thread count.
template <typename Fn>
void ParallelElems(size_t n, Fn&& fn) {
  ParallelFor(0, static_cast<int64_t>(n), kElemGrain, kElemWork,
              [&fn](int64_t b, int64_t e) {
                fn(static_cast<size_t>(b), static_cast<size_t>(e));
              });
}

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_ELEMWISE_H_
