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
///    ambient contexts: no thread, no TaskCapture, no allocation.
///  - How observations merge: each parallel task records into private
///    Telemetry and EventLog contexts on its worker's trace track
///    (`worker-N`), merged into the caller's in index order, so they
///    match a serial run at every Jobs value.
///
/// The workers persist: they start on first use, the pool grows to the
/// largest worker count ever requested, every caller shares them, and
/// they are joined at process exit.
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
/// discards a dropped task's contexts. The serial path folds each task
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

  /// Runs \p F under private contexts stored into \p S, its telemetry
  /// on trace track \p Track and keeping spans only if the ambient
  /// telemetry does. With no ambient context \p F runs bare. A context
  /// the task recorded nothing into stays with this thread for its next
  /// task instead (merging it would change nothing), so tasks that
  /// record nothing allocate nothing.
  template <typename Fn> void run(Slot &S, uint32_t Track, Fn &&F) const {
    Slot &Spare = spareContexts();
    if (AmbientT) {
      S.T = Spare.T ? std::move(Spare.T) : std::make_unique<Telemetry>();
      S.T->setTrack(Track);
      S.T->setKeepSpans(AmbientT->keepsSpans());
      S.T->install();
    }
    if (AmbientE) {
      S.E = Spare.E ? std::move(Spare.E) : std::make_unique<EventLog>();
      S.E->install();
    }
    // Uninstalls also when F throws: the thread outlives the task.
    struct Restore {
      Slot &S, &Spare;
      ~Restore() {
        if (S.E) {
          S.E->uninstall();
          if (S.E->events().empty())
            Spare.E = std::move(S.E);
        }
        if (S.T) {
          S.T->uninstall();
          if (S.T->empty())
            Spare.T = std::move(S.T);
        }
      }
    } Guard{S, Spare};
    F();
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
  /// This thread's contexts left over from tasks that recorded nothing.
  static Slot &spareContexts();

  Telemetry *AmbientT;
  EventLog *AmbientE;
};

} // namespace sest::obs

#endif // OBS_PARALLEL_H
