#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/executor.hpp"
#include "util/cancel.hpp"

namespace ftsp::serve {
class AccessLog;
class PayloadCache;
}  // namespace ftsp::serve

namespace ftsp::compile {

/// Answers protocol queries from precompiled artifacts — the *online*
/// half of the compile/serve split. Loading builds the executor,
/// rehydrated decoder and sampler layout per artifact once; every
/// query after that is pure simulation/export with zero SAT work.
///
/// `handle_request` is safe to call from many threads concurrently: all
/// per-artifact state is immutable after load; the mutable slices
/// (request counters, the optional payload cache) are internally
/// synchronized.
///
/// Requests are dispatched through a table of registered ops (op name
/// -> handler + dispatch traits), so a new op registers in exactly one
/// place — see `kOps` in service.cpp. The wire protocol is versioned:
/// unversioned/v1 requests get byte-compatible v1 responses forever,
/// `"v":2` requests get the structured v2 envelope (see
/// src/serve/wire.hpp and src/serve/protocol.md).
class ProtocolService {
 public:
  /// Serving name of a protocol: the code name, with "/plus" appended
  /// for |+>_L preparations — so both bases of one code are servable
  /// side by side instead of silently shadowing each other.
  static std::string serving_name(const core::Protocol& protocol);

  /// Serving name of an artifact: as above, plus "@<coupling name>" for
  /// device-targeted artifacts (constrained coupling map), so
  /// all-to-all and per-device compilations of one code serve side by
  /// side (e.g. "Steane" and "Steane@linear").
  static std::string serving_name(const ProtocolArtifact& artifact);

  /// Mutable serving-tier state shared across hot-reload swaps: a
  /// reloaded service is a *fresh* ProtocolService, but its runtime
  /// (request counters, store generation, the reload hook) carries
  /// over so `stats` survives the swap. Created lazily per service;
  /// inject one via `set_runtime` to share it.
  struct Runtime {
    /// Monotonic store generation: 1 at first load, bumped by every
    /// hot-reload swap. Reported by `health` and `stats`.
    std::atomic<std::uint64_t> generation{1};
    /// Per-op request counts (op name -> count), indexed in lockstep
    /// with the op table. Unknown-op requests land in `rejected`.
    std::map<std::string, std::atomic<std::uint64_t>> op_counts;
    std::atomic<std::uint64_t> rejected{0};
    /// Set by the serve tier (see serve::ReloadableService): performs a
    /// synchronous store re-scan + swap and returns the new generation.
    /// Null means the `reload` op is unsupported (one-shot `query` use).
    /// Read and written under `hook_mutex` (the handler copies it out
    /// before invoking).
    std::function<std::uint64_t()> reload_hook;
    /// Degraded-but-serving state: a hot reload that failed to build
    /// (torn index, unreadable store) keeps the previous snapshot live
    /// and records the failure here; `health` surfaces
    /// `"degraded":true` + the last error until a reload succeeds.
    std::atomic<bool> degraded{false};
    std::string last_reload_error;  ///< Guarded by hook_mutex.
    std::mutex hook_mutex;

    Runtime();  ///< Pre-populates op_counts from the op table.
  };

  ProtocolService();

  /// Loads the artifact for every key in the store. Returns the number
  /// of protocols now servable. Artifacts sharing a serving name (same
  /// code and basis compiled under different options) overwrite each
  /// other — last key in store order wins — and every overwritten key
  /// is recorded in `shadowed_keys()` and warned about on stderr, so
  /// an operator can see which artifacts a store is NOT serving.
  ///
  /// Resilient: an artifact that fails to read or decode is quarantined
  /// in the store (see ArtifactStore::quarantine) and skipped — one
  /// corrupt file must not take down every other protocol. The
  /// quarantined count (plus any index lines the store's recovery-mode
  /// loader skipped) is surfaced by `health`.
  std::size_t load_store(ArtifactStore& store);

  /// Adds one artifact directly (tests, in-process pipelines). An
  /// artifact displacing an already-loaded serving name records the
  /// displaced artifact's key in `shadowed_keys()`.
  void add(ProtocolArtifact artifact);

  /// Store keys that were loaded and then displaced by a later artifact
  /// with the same serving name ("last key wins"). Also surfaced in the
  /// `codes` response as `"shadowed":[...]` (only when non-empty, so
  /// shadow-free v1 responses keep their historical bytes).
  const std::vector<std::string>& shadowed_keys() const {
    return shadowed_;
  }

  std::vector<std::string> code_names() const;
  std::size_t size() const { return entries_.size(); }

  /// Handles one newline-delimited JSON request:
  ///   {"op":"codes"}
  ///   {"op":"info","code":"Steane"}
  ///   {"op":"sample","code":"Steane","p":0.01,"shots":20000,"seed":1}
  ///   {"op":"rate","code":"Steane","p":0.001,"rel_err":0.05}
  ///   {"op":"rate","code":"Steane","p_min":1e-4,"p_max":1e-2,"p_points":7}
  ///   {"op":"circuit","code":"Steane","format":"qasm"}
  ///   {"op":"health"}            loaded-artifact count + store generation
  ///   {"op":"stats"}             per-op request counts + cache hit rates
  ///                              (v2 adds latency percentiles and the
  ///                              per-op cache breakdown; v1 bytes frozen)
  ///   {"op":"reload"}            re-scan the store (serve tier only)
  ///   {"op":"metrics"}           Prometheus text rendering of the
  ///                              process metric registry (src/obs/)
  /// "sample" is plain Monte Carlo over the batched sampler; "rate" is
  /// the stratified fault-sector estimator ("shots" caps its Monte-Carlo
  /// budget, "rel_err" its convergence target; the p_min/p_max/p_points
  /// form answers a whole log-spaced p-sweep from one sampling pass).
  /// "code" is a serving name (see `serving_name`). An "id" field, when
  /// present, is echoed into the response verbatim. A `"v":2` field
  /// selects the structured v2 envelope; unversioned requests keep the
  /// byte-compatible v1 dialect. Integer parameters are range-checked
  /// (shots capped at 2^22 per request, threads at 256) — out-of-range
  /// values are rejected, not clamped. Never throws: malformed requests
  /// produce the error envelope of the request's wire version.
  ///
  /// The `deadline` overload enforces a per-request deadline (absolute,
  /// so time queued upstream counts): expired before compute starts or
  /// fired mid-compute (cooperative CancelToken threaded into the rate
  /// estimator) answers `deadline_exceeded` and frees the worker. A v2
  /// request may tighten (never extend) it with its own `deadline_ms`
  /// field, which also works when the server imposes no deadline. The
  /// default time_point means "no server deadline".
  std::string handle_request(const std::string& json_line) const;
  std::string handle_request(
      const std::string& json_line,
      std::chrono::steady_clock::time_point deadline) const;

  /// Attaches a serving-side payload cache (LRU memoization +
  /// cross-request single-flight coalescing) consulted by the compute
  /// ops (`sample`, `rate`). Null detaches. The cache may be shared
  /// across hot-reload swaps: its keys include the artifact store key,
  /// so a recompiled artifact (new key) never serves stale bytes.
  void set_payload_cache(std::shared_ptr<serve::PayloadCache> cache);
  const std::shared_ptr<serve::PayloadCache>& payload_cache() const {
    return cache_;
  }

  /// Injects a shared runtime (hot-reload swaps; see `Runtime`).
  void set_runtime(std::shared_ptr<Runtime> runtime);
  const std::shared_ptr<Runtime>& runtime() const { return runtime_; }

  /// Attaches a JSONL access log (see serve::AccessLog): one record per
  /// handled request, buffered off the hot path. Null detaches. May be
  /// shared across hot-reload swaps like the payload cache.
  void set_access_log(std::shared_ptr<serve::AccessLog> log);
  const std::shared_ptr<serve::AccessLog>& access_log() const {
    return access_log_;
  }

  /// The store generation this immutable service snapshot was built
  /// from (default 1). `health` reports it, so one request sees one
  /// consistent generation even when a hot reload swaps the service
  /// mid-request; the shared Runtime generation (reported by `stats`)
  /// is the cumulative live counter.
  void set_generation(std::uint64_t generation) { generation_ = generation; }
  std::uint64_t generation() const { return generation_; }

  /// Store damage survived while this snapshot loaded (malformed index
  /// lines skipped, artifacts quarantined). Surfaced by `health` — only
  /// when nonzero, so healthy stores keep their historical bytes.
  const ArtifactStore::RecoveryReport& store_recovery() const {
    return store_recovery_;
  }

 private:
  /// Immutable per-protocol serving state; heap-allocated so executor /
  /// decoder self-references survive map rehashing.
  struct Entry {
    ProtocolArtifact artifact;
    decoder::PerfectDecoder decoder;
    core::Executor executor;

    explicit Entry(ProtocolArtifact a)
        : artifact(std::move(a)),
          decoder(make_artifact_decoder(artifact)),
          executor(artifact.protocol) {}
  };

  friend struct ServiceOps;  ///< Op handlers (service.cpp) reach entries.

  const Entry* find(const std::string& code_name) const;

  std::map<std::string, std::unique_ptr<Entry>> entries_;
  std::vector<std::string> shadowed_;
  std::shared_ptr<serve::PayloadCache> cache_;
  std::shared_ptr<Runtime> runtime_;
  std::shared_ptr<serve::AccessLog> access_log_;
  std::uint64_t generation_ = 1;
  ArtifactStore::RecoveryReport store_recovery_;
};

}  // namespace ftsp::compile
