//===- obs/Parallel.cpp - Ordered fan-out over worker threads -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "obs/Parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace sest::obs;

namespace {

/// Set on parallelFor's worker threads, so nested calls run inline.
thread_local bool InWorker = false;

/// One parallel call: its workers claim task indices from Next, one at
/// a time, until none are left.
struct Job {
  unsigned Workers;
  size_t N;
  const std::function<void(size_t)> &Task;
  const TaskCapture &Cap;
  std::vector<TaskCapture::Slot> &Slots;
  std::vector<std::exception_ptr> &Errors;
  std::atomic<size_t> Next{0};

  /// Worker W's share, on trace track W + 1 (track 0 is the caller's).
  /// An exception ends the handing out.
  void work(unsigned W) {
    for (size_t I; (I = Next.fetch_add(1)) < N;) {
      try {
        Cap.run(Slots[I], W + 1, [&] { Task(I); });
      } catch (...) {
        Errors[W] = std::current_exception();
        Next.store(N); // hand out no further tasks
      }
    }
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
  /// (nothing run) when another call holds the pool.
  bool run(Job &J) {
    std::unique_lock<std::mutex> L(M);
    if (Current)
      return false;
    while (Threads.size() < J.Workers)
      Threads.emplace_back(&Pool::serve, this,
                           static_cast<unsigned>(Threads.size()));
    Current = &J;
    Active = J.Workers;
    ++Generation;
    Wake.notify_all();
    Finished.wait(L, [&] { return Active == 0; });
    Current = nullptr;
    return true;
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

TaskCapture::Slot &TaskCapture::spareContexts() {
  thread_local Slot Spare;
  return Spare;
}

bool sest::obs::detail::runParallel(unsigned Workers, size_t N,
                                    const std::function<void(size_t)> &Task,
                                    const std::function<bool(size_t)> &Fold) {
  TaskCapture Cap;
  std::vector<TaskCapture::Slot> Slots(N);
  std::vector<std::exception_ptr> Errors(Workers);
  Job J{Workers, N, Task, Cap, Slots, Errors};
  if (!pool().run(J))
    return false;
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
  for (size_t I = 0; I < N; ++I)
    if (Fold(I))
      Cap.merge(Slots[I]);
  return true;
}
