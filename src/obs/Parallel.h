//===- obs/Parallel.h - Ordered fan-out over worker threads -----*- C++ -*-===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parallelFor, the one way this project runs independent tasks on
/// threads: per-function estimates, per-program reports, per-input suite
/// runs and service batches. It decides three things for every caller:
///
///  - Worker count: Jobs 0 means one per hardware thread, 1 means serial,
///    and there are never more workers than tasks.
///  - When to stay serial: Jobs <= 1, N <= 1, a call from inside a
///    worker (a nested pool would oversubscribe the machine), or a call
///    made while another thread's call holds the workers. Serial tasks
///    run inline on the caller, in index order, straight into its
///    ambient contexts: no thread, no journal, no allocation.
///  - How observations reach the caller: each worker records into its
///    own Telemetry journal (on its trace track, `worker-N`) and its own
///    EventLog, and a task's observations are the range it appended.
///    The caller replays the ranges in index order, op by op, so they
///    match a serial run at every Jobs value.
///
/// The workers persist: they start on first use, the pool grows to the
/// largest worker count ever requested, every caller shares them, and
/// they are joined at process exit.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_PARALLEL_H
#define OBS_PARALLEL_H

#include <cstddef>
#include <functional>

namespace sest::obs {

/// The number of workers parallelFor(Jobs, N, ...) uses; 1 is the
/// serial path.
unsigned parallelWorkers(unsigned Jobs, size_t N);

/// The number of worker threads started so far in this process. Each
/// is started once and serves every later call.
size_t parallelPoolSize();

namespace detail {
/// Runs the parallel path on the pool; false (nothing run) when another
/// thread's call holds the workers.
bool runParallel(unsigned Workers, size_t N,
                 const std::function<void(size_t)> &Task,
                 const std::function<bool(size_t)> &Fold);
} // namespace detail

/// Runs Task(I) for every I in [0, N), then Fold(I) on the calling thread
/// in index order; Fold returns whether task I's observations are kept.
/// The parallel path finishes every task before the first fold and
/// replays nothing of a dropped task. The serial path folds each task
/// before the next starts but cannot take back what a task recorded, so
/// a task that a fold may drop checks the folded state and returns early.
/// A task's exception reaches the caller once no task is running; the
/// workers stay ready for the next call.
template <typename TaskFn, typename FoldFn>
void parallelFor(unsigned Jobs, size_t N, TaskFn &&Task, FoldFn &&Fold) {
  const unsigned Workers = parallelWorkers(Jobs, N);
  if (Workers > 1 &&
      detail::runParallel(Workers, N, std::ref(Task), std::ref(Fold)))
    return;
  for (size_t I = 0; I < N; ++I) {
    Task(I);
    Fold(I);
  }
}

/// parallelFor keeping every task's observations.
template <typename TaskFn>
void parallelFor(unsigned Jobs, size_t N, TaskFn &&Task) {
  parallelFor(Jobs, N, Task, [](size_t) { return true; });
}

} // namespace sest::obs

#endif // OBS_PARALLEL_H
