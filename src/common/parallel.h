#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

/// \file parallel.h
/// \brief The one worker loop behind every parallel stage of a request:
/// `ParallelFor` runs an indexed body on a few threads that claim indices
/// off a shared counter.
///
/// Batch shards, candidate generation and snapshot decoding all go through
/// it, so a persistent worker pool would replace exactly this function.

namespace smb {

/// \brief Resolves a thread-count setting: 0 means one thread per hardware
/// thread (at least 1); anything else is taken as is.
inline size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// \brief Number of workers `ParallelFor(threads, n, ...)` runs:
/// min(threads, n), at least 1. Size per-worker state with it.
inline size_t ParallelWorkers(size_t threads, size_t n) {
  return std::max<size_t>(1, std::min(threads, n));
}

/// \brief Calls `body(worker, i)` exactly once for every i in [0, n).
///
/// `ParallelWorkers(threads, n)` workers each claim the next unclaimed index
/// until none is left, so indices start in ascending order and uneven items
/// balance across workers. `worker` is in [0, ParallelWorkers(threads, n))
/// and names one thread for the whole call: per-worker scratch indexed by it
/// is never shared. Worker 0 is the calling thread; with one worker the loop
/// runs inline and no thread is started. Returns after every body returned.
template <typename Body>
void ParallelFor(size_t threads, size_t n, Body&& body) {
  const size_t workers = ParallelWorkers(threads, n);
  if (workers == 1) {
    for (size_t i = 0; i < n; ++i) body(size_t{0}, i);
    return;
  }
  std::atomic<size_t> next{0};
  auto run = [&](size_t worker) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(worker, i);
    }
  };
  std::vector<std::thread> spawned;
  spawned.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) spawned.emplace_back(run, w);
  run(0);
  for (std::thread& thread : spawned) thread.join();
}

}  // namespace smb
