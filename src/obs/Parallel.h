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
///  - When to stay serial: Jobs <= 1, N <= 1, or a call from inside a
///    worker (a nested pool would oversubscribe the machine). Serial
///    tasks run inline on the caller, in index order, straight into its
///    ambient contexts: no thread, no TaskCapture, no allocation.
///  - How observations merge: each parallel task records into private
///    Telemetry and EventLog contexts on its worker's trace track
///    (`worker-N`), merged into the caller's in index order, so they
///    match a serial run at every Jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_PARALLEL_H
#define OBS_PARALLEL_H

#include "obs/EventLog.h"
#include "obs/Telemetry.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace sest::obs {

/// The number of workers parallelFor(Jobs, N, ...) uses; 1 is the
/// serial path.
unsigned parallelWorkers(unsigned Jobs, size_t N);

namespace detail {
void runParallel(unsigned Workers, size_t N,
                 const std::function<void(size_t)> &Task,
                 const std::function<bool(size_t)> &Fold);
} // namespace detail

/// Runs Task(I) for every I in [0, N), then Fold(I) on the calling thread
/// in index order; Fold returns whether task I's observations are kept.
/// The parallel path finishes every task before the first fold and
/// discards a dropped task's contexts. The serial path folds each task
/// before the next starts but cannot take back what a task recorded, so
/// a task that a fold may drop checks the folded state and returns early.
/// A task's exception reaches the caller, after every worker has stopped.
template <typename TaskFn, typename FoldFn>
void parallelFor(unsigned Jobs, size_t N, TaskFn &&Task, FoldFn &&Fold) {
  const unsigned Workers = parallelWorkers(Jobs, N);
  if (Workers > 1) {
    detail::runParallel(Workers, N, std::ref(Task), std::ref(Fold));
    return;
  }
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

/// The per-task context plumbing of parallelFor's parallel path:
/// captures the ambient Telemetry and EventLog once on the calling
/// thread, runs each task under private contexts, and merges those back
/// on the calling thread.
class TaskCapture {
public:
  TaskCapture()
      : AmbientT(Telemetry::active()), AmbientE(EventLog::active()) {}

  /// Whether any ambient context wants task-level capture at all.
  bool wanted() const { return AmbientT || AmbientE; }

  /// The private contexts of one task, merged later via merge().
  struct Slot {
    std::unique_ptr<Telemetry> T;
    std::unique_ptr<EventLog> E;
  };

  /// Runs \p F under fresh contexts stored into \p S, its telemetry on
  /// trace track \p Track; with no ambient context \p F runs bare.
  template <typename Fn> void run(Slot &S, uint32_t Track, Fn &&F) const {
    if (AmbientT) {
      S.T = std::make_unique<Telemetry>();
      S.T->setTrack(Track);
      S.T->install();
    }
    if (AmbientE) {
      S.E = std::make_unique<EventLog>();
      S.E->install();
    }
    F();
    if (S.E)
      S.E->uninstall();
    if (S.T)
      S.T->uninstall();
  }

  /// Folds one task's contexts into the ambient ones. Call from the
  /// capturing thread, in task order.
  void merge(Slot &S) const {
    if (AmbientT && S.T)
      AmbientT->mergeFrom(*S.T);
    if (AmbientE && S.E)
      AmbientE->mergeFrom(*S.E);
  }

private:
  Telemetry *AmbientT;
  EventLog *AmbientE;
};

} // namespace sest::obs

#endif // OBS_PARALLEL_H
