// Minimal deterministic work-queue parallelism.
//
// parallel_for runs tasks 0..n-1 on a pool of workers that pull indices
// from an atomic counter.  Callers get determinism by writing each
// task's result into a preassigned slot and reducing the slots in index
// order afterwards — the scheduling order never influences the output.
// This is the pool underneath engine::BatchRunner.
#pragma once

#include <cstddef>
#include <functional>

namespace vbsrm::math {

/// Run task(0) .. task(n-1), using up to `threads` worker threads
/// (0 picks std::thread::hardware_concurrency()).  With threads <= 1 or
/// n <= 1 the tasks run inline on the calling thread.  Tasks must only
/// write to disjoint state; the first exception thrown by any task is
/// rethrown on the calling thread after all workers join.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& task);

/// Resolve a thread-count option: 0 means hardware concurrency (at
/// least 1), anything else is returned unchanged.
unsigned resolve_threads(unsigned threads);

}  // namespace vbsrm::math
