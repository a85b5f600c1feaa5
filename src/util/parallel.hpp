#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace ftsp::util {

/// Work-stealing index loop behind the batched sampler (shards) and the
/// rate estimator (waves): invokes `fn(i)` for i in [0, tasks) over
/// `threads` workers (0 = hardware concurrency). With one worker the
/// indices run in order on the calling thread. Each task writes only its
/// own slot, so results are thread-count invariant by construction.
template <typename Fn>
void run_indexed_parallel(std::size_t tasks, std::size_t threads, Fn&& fn) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, tasks);
  if (threads <= 1) {
    for (std::size_t i = 0; i < tasks; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= tasks) {
          return;
        }
        fn(i);
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
}

}  // namespace ftsp::util
