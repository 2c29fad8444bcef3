//===- obs/Parallel.cpp - Ordered fan-out over worker threads -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "obs/Parallel.h"

#include "obs/EventLog.h"
#include "obs/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace sest::obs;

namespace {

/// Set on parallelFor's worker threads, so nested calls run inline.
thread_local bool InWorker = false;

/// One worker's journal and event log. Each is made on the first call
/// that has an ambient context of its kind, and every later call
/// reuses it.
struct Recorders {
  std::unique_ptr<Telemetry> T;
  std::unique_ptr<EventLog> E;
};

/// Where one task's observations sit in its worker's recorders.
struct TaskRange {
  unsigned Worker;
  size_t OpsBegin, OpsEnd, EventsBegin, EventsEnd;
};

/// One parallel call: its workers claim task indices from Next, one at
/// a time, until none are left.
struct Job {
  unsigned Workers;
  size_t N;
  const std::function<void(size_t)> &Task;
  Telemetry *AmbientT;
  EventLog *AmbientE;
  std::vector<TaskRange> Ranges{}; ///< Empty without an ambient context.
  std::vector<std::exception_ptr> Errors{}; ///< One per worker.
  Recorders *Recs = nullptr;                ///< The pool's, one per worker.
  std::atomic<size_t> Next{0};

  /// Worker W's share, recorded into its journal on trace track W + 1
  /// (track 0 is the caller's). An exception ends the handing out.
  void work(unsigned W) {
    Recorders &R = Recs[W];
    if (AmbientT) {
      if (!R.T) {
        R.T = std::make_unique<Telemetry>();
        R.T->setTrack(W + 1);
        R.T->setJournaling(true);
      }
      R.T->clearJournal();
      R.T->setKeepSpans(AmbientT->keepsSpans());
      R.T->install();
    }
    if (AmbientE) {
      if (!R.E)
        R.E = std::make_unique<EventLog>();
      R.E->clear();
      R.E->install();
    }
    for (size_t I; (I = Next.fetch_add(1)) < N;) {
      const size_t Ops = AmbientT ? R.T->journalSize() : 0;
      const size_t Events = AmbientE ? R.E->events().size() : 0;
      try {
        Task(I);
      } catch (...) {
        Errors[W] = std::current_exception();
        Next.store(N); // hand out no further tasks
      }
      if (!Ranges.empty())
        Ranges[I] = {W, Ops, AmbientT ? R.T->journalSize() : 0, Events,
                     AmbientE ? R.E->events().size() : 0};
    }
    if (AmbientE)
      R.E->uninstall();
    if (AmbientT)
      R.T->uninstall();
  }

  /// Replays task I's observations into the ambient contexts.
  void replay(size_t I) const {
    if (Ranges.empty())
      return;
    const TaskRange &Range = Ranges[I];
    Recorders &R = Recs[Range.Worker];
    if (AmbientT)
      AmbientT->replay(*R.T, Range.OpsBegin, Range.OpsEnd);
    if (AmbientE)
      AmbientE->takeFrom(*R.E, Range.EventsBegin, Range.EventsEnd);
  }
};

/// The process's worker threads. One call holds them at a time; each
/// call starts a new generation, which worker W joins if the call asks
/// for more than W workers.
class Pool {
public:
  Pool() = default;
  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;
  ~Pool() {
    {
      std::lock_guard<std::mutex> L(M);
      Stopping = true;
    }
    Wake.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }

  /// Runs \p J on the first J.Workers threads, starting any that do not
  /// exist yet, and returns once all of them are done with it; false
  /// (nothing run) when another call holds the pool. The call keeps
  /// holding the pool, and so its workers' recorders, until release().
  bool run(Job &J) {
    std::unique_lock<std::mutex> L(M);
    if (Current)
      return false;
    while (Threads.size() < J.Workers)
      Threads.emplace_back(&Pool::serve, this,
                           static_cast<unsigned>(Threads.size()));
    Recs.resize(Threads.size());
    J.Recs = Recs.data();
    Current = &J;
    Active = J.Workers;
    ++Generation;
    Wake.notify_all();
    Finished.wait(L, [&] { return Active == 0; });
    return true;
  }

  void release() {
    std::lock_guard<std::mutex> L(M);
    Current = nullptr;
  }

  size_t size() {
    std::lock_guard<std::mutex> L(M);
    return Threads.size();
  }

private:
  void serve(unsigned Index) {
    InWorker = true;
    uint64_t Seen = 0;
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      Wake.wait(L, [&] { return Stopping || Generation != Seen; });
      if (Stopping)
        return;
      Seen = Generation;
      // A worker the call did not ask for may wake after it has ended.
      if (!Current || Index >= Current->Workers)
        continue;
      Job &J = *Current;
      L.unlock();
      J.work(Index);
      L.lock();
      if (--Active == 0)
        Finished.notify_one();
    }
  }

  std::mutex M;
  std::condition_variable Wake, Finished;
  // All guarded by M.
  Job *Current = nullptr; ///< The call holding the pool, if any.
  uint64_t Generation = 0;
  unsigned Active = 0; ///< Workers of Current not done with it yet.
  bool Stopping = false;
  std::vector<std::thread> Threads;
  std::vector<Recorders> Recs; ///< Recs[W] is thread W's.
};

Pool &pool() {
  static Pool P;
  return P;
}

} // namespace

unsigned sest::obs::parallelWorkers(unsigned Jobs, size_t N) {
  if (InWorker || N <= 1)
    return 1;
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<size_t>(Jobs, N));
}

size_t sest::obs::parallelPoolSize() { return pool().size(); }

bool sest::obs::detail::runParallel(unsigned Workers, size_t N,
                                    const std::function<void(size_t)> &Task,
                                    const std::function<bool(size_t)> &Fold) {
  Job J{Workers, N, Task, Telemetry::active(), EventLog::active()};
  J.Ranges.resize(J.AmbientT || J.AmbientE ? N : 0);
  J.Errors.resize(Workers);
  if (!pool().run(J))
    return false;
  // Hold the workers' recorders until the replay is done.
  struct Release {
    ~Release() { pool().release(); }
  } Guard;
  for (const std::exception_ptr &E : J.Errors)
    if (E)
      std::rethrow_exception(E);
  for (size_t I = 0; I < N; ++I)
    if (Fold(I))
      J.replay(I);
  return true;
}
