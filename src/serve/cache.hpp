#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace ftsp::serve {

/// Serving-side result cache + cross-request coalescer for the
/// deterministic payload ops (`sample`, `rate`, `circuit`).
///
/// Two mechanisms share one key space (op + artifact key + canonical
/// request parameters; see `ProtocolService`):
///
///  * **Single-flight coalescing** — concurrent requests with an equal
///    key share ONE compute: the first caller runs the SIMD
///    frame-batch pass, every concurrent duplicate blocks on its
///    shared future and receives the identical payload bytes. Always
///    on, even at capacity 0, because it only ever deduplicates work
///    that is in flight right now.
///  * **LRU byte-bounded memoization** — completed payloads are kept
///    (when the op opts in via `store`) up to `capacity_bytes`, so
///    repeated `rate` queries and whole p-sweep curves are cache hits
///    with zero simulation, and each artifact's `circuit` export is
///    rendered once per format. Capacity 0 disables storage.
///
/// Correctness rests on the estimator/sampler determinism contract:
/// for fixed (artifact, parameters, seed) the payload bytes are
/// identical no matter when, where, or how concurrently they are
/// computed — so serving from cache is byte-indistinguishable from
/// recomputing.
///
/// Thread-safe. Compute exceptions propagate to every coalesced waiter
/// and are never cached.
class PayloadCache {
 public:
  explicit PayloadCache(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  struct Outcome {
    std::string payload;
    bool cache_hit = false;  ///< Served from the LRU store.
    bool coalesced = false;  ///< Joined another request's in-flight compute.
  };

  /// Returns the cached payload for `key`, joins an in-flight compute
  /// for it, or runs `compute` (storing the result when `store` and it
  /// fits the byte budget).
  Outcome get_or_compute(const std::string& key, bool store,
                         const std::function<std::string()>& compute);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  Stats stats() const;

  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct CacheEntry {
    std::string key;
    std::string payload;
  };
  using LruList = std::list<CacheEntry>;

  /// One in-flight compute; duplicate requesters wait on the future.
  struct InFlight {
    std::promise<std::string> promise;
    std::shared_future<std::string> future;
  };

  void insert_locked(const std::string& key, const std::string& payload);

  const std::size_t capacity_bytes_;
  mutable std::mutex mutex_;
  LruList lru_;  ///< Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> entries_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> in_flight_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ftsp::serve
