#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "compile/service.hpp"
#include "serve/access_log.hpp"
#include "serve/cache.hpp"

namespace ftsp::serve {

/// Hot-reloadable wrapper around a store-backed ProtocolService.
///
/// The serving tier never serves from a mutable service: every reload
/// builds a *fresh* immutable ProtocolService from a fresh ArtifactStore
/// handle (which re-reads index.tsv from disk) and atomically swaps the
/// `shared_ptr` under a mutex. Request handlers snapshot the pointer
/// once (`service()`) and keep the snapshot for the whole request, so
/// in-flight requests are never torn by a swap — they finish against
/// the generation they started on, and the old service is destroyed
/// when its last in-flight request drops the reference.
///
/// Two pieces of state deliberately survive swaps:
///   - the shared `ProtocolService::Runtime` (store generation, the
///     reload hook, the degraded flag). The request counts `stats`
///     reports are process-wide registry counters, so they are
///     cumulative across swaps without being shared here;
///   - the shared `PayloadCache`, whose keys embed the artifact store
///     key — a recompiled artifact gets a new key and therefore never
///     serves stale cached bytes, while untouched artifacts keep their
///     warm entries across reloads.
///
/// Reload triggers:
///   - `start_watcher()` polls the store's index fingerprint
///     (`ArtifactStore::index_fingerprint`: size, mtime, content hash)
///     on `poll_interval` and swaps when it changes — scan and rebuild
///     happen on the watcher thread, never blocking a request;
///   - the `reload` protocol op calls `force_reload()` synchronously
///     via the runtime's reload hook.
class ReloadableService {
 public:
  struct Options {
    /// Watcher poll interval.
    std::chrono::milliseconds poll_interval{1000};
    /// Serving-side payload-cache budget (64 MiB, the size `serve_open`
    /// benchmarks); 0 = coalescing only, no memoization.
    std::size_t cache_bytes = std::size_t{64} << 20;
    /// JSONL access-log path; empty = no access log. The log object is
    /// shared across reload swaps (one file, one flusher thread).
    std::string access_log;
  };

  /// Performs the initial (blocking) load. Throws if the store
  /// directory cannot be read.
  ReloadableService(std::string store_dir, const Options& options);
  ~ReloadableService();

  ReloadableService(const ReloadableService&) = delete;
  ReloadableService& operator=(const ReloadableService&) = delete;

  /// Snapshot of the current service. Never null; cheap (one mutex-
  /// guarded shared_ptr copy). Hold the snapshot for the duration of
  /// one request.
  std::shared_ptr<const compile::ProtocolService> service() const;

  /// Rebuilds from disk unconditionally and swaps. Returns the new
  /// store generation. Thread-safe; concurrent reloads serialize.
  std::uint64_t force_reload();

  /// Rebuilds only if the store index fingerprint changed since the
  /// last (re)load, which takes it before reading the index. Returns
  /// true if a swap happened.
  bool reload_if_changed();

  /// Starts the background watcher thread (idempotent).
  void start_watcher();
  /// Stops the watcher thread (idempotent; also run by the dtor).
  void stop_watcher();

  using ProtocolRuntime = compile::ProtocolService::Runtime;

  const std::shared_ptr<ProtocolRuntime>& runtime() const {
    return runtime_;
  }
  const std::shared_ptr<PayloadCache>& cache() const { return cache_; }
  const std::shared_ptr<AccessLog>& access_log() const {
    return access_log_;
  }
  std::uint64_t generation() const { return runtime_->generation.load(); }

 private:
  /// Builds a fresh service from a fresh store handle, wiring in the
  /// shared runtime, cache and access log, stamped with the store
  /// generation it serves — `health` reports that stamp, so health and
  /// codes answered by one snapshot always agree.
  std::shared_ptr<const compile::ProtocolService> build(
      std::uint64_t generation) const;
  void watch_loop();

  std::string store_dir_;
  Options options_;
  std::shared_ptr<ProtocolRuntime> runtime_;
  std::shared_ptr<PayloadCache> cache_;
  std::shared_ptr<AccessLog> access_log_;

  mutable std::mutex mutex_;  ///< Guards current_ and fingerprint_.
  std::shared_ptr<const compile::ProtocolService> current_;
  std::string fingerprint_;
  std::mutex reload_mutex_;  ///< Serializes rebuilds (not lookups).

  std::thread watcher_;
  std::mutex watcher_mutex_;
  std::condition_variable watcher_cv_;
  bool watcher_stop_ = false;
  bool watcher_running_ = false;
};

}  // namespace ftsp::serve
