//===- obs/Parallel.cpp - Ordered fan-out over worker threads -------------===//
//
// Part of the static-estimators project. See README.md for license.
//
//===----------------------------------------------------------------------===//

#include "obs/Parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace {
/// Set on parallelFor's worker threads, so nested calls run inline.
thread_local bool InWorker = false;
} // namespace

unsigned sest::obs::parallelWorkers(unsigned Jobs, size_t N) {
  if (InWorker || N <= 1)
    return 1;
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<size_t>(Jobs, N));
}

void sest::obs::detail::runParallel(unsigned Workers, size_t N,
                                    const std::function<void(size_t)> &Task,
                                    const std::function<bool(size_t)> &Fold) {
  TaskCapture Cap;
  std::vector<TaskCapture::Slot> Slots(N);
  std::vector<std::exception_ptr> Errors(Workers);
  std::atomic<size_t> Next{0};
  {
    // Worker W records on track W + 1 (track 0 is the caller's). The
    // jthreads join at the end of this scope, also if a spawn throws.
    std::vector<std::jthread> Pool;
    for (unsigned W = 0; W < Workers; ++W)
      Pool.emplace_back([&, W] {
        InWorker = true;
        try {
          for (size_t I; (I = Next.fetch_add(1)) < N;)
            Cap.run(Slots[I], W + 1, [&] { Task(I); });
        } catch (...) {
          Errors[W] = std::current_exception();
          Next.store(N); // hand out no further tasks
        }
      });
  }
  for (const std::exception_ptr &E : Errors)
    if (E)
      std::rethrow_exception(E);
  for (size_t I = 0; I < N; ++I)
    if (Fold(I))
      Cap.merge(Slots[I]);
}
