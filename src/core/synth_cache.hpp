#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "sat/solver.hpp"

namespace ftsp::core {

/// Process-wide memo of solved synthesis queries.
///
/// Keys are canonical strings over (check/generator matrices, encoding
/// parameters, bound, engine fingerprint); values are the synthesis
/// routines' own text serializations (circuit listings, stabilizer
/// supports). Repeated code-library sweeps and `code_search` runs hit the
/// cache instead of re-running the SAT search. The cache is thread-safe;
/// `clear()` invalidates everything (there is no partial invalidation —
/// keys embed every input that can change the result, so stale hits are
/// impossible within a process).
///
/// Size cap: the cache is LRU-bounded (`max_entries`, overridable with
/// the `FTSP_SAT_CACHE_MAX` environment variable, read once at first
/// use; 0 = unbounded). Evictions are counted and reported via
/// `evictions()` so long-running servers can see cache pressure.
///
/// Persistent backing: an `ArtifactStore` (or any other byte store) can
/// attach read-through/write-through callbacks via `set_backing`. Misses
/// then consult the backing before reporting a miss, and stores are
/// forwarded to it — a cold process pointed at a warm store resolves
/// synthesis queries with zero SAT calls. Backing hits are promoted into
/// the in-memory LRU.
///
/// Offline triage hook: when a dump directory is configured (via
/// `set_dump_dir` or the `FTSP_SAT_DUMP_DIR` environment variable, read
/// once at first use), cache misses that the incremental engine (the
/// verification/correction default) solves to a feasible witness dump
/// the CNF of their final query — problem clauses plus the bound
/// assumptions as units — as DIMACS into that directory, named by the
/// key hash. Infeasible or budget-interrupted queries are not dumped
/// (their per-u contexts do not survive the search).
class SynthCache {
 public:
  /// Read-through: returns the stored value for a key, or nullopt.
  using BackingLoad =
      std::function<std::optional<std::string>(const std::string& key)>;
  /// Write-through: persists a (key, value) pair. Must not throw.
  using BackingSave =
      std::function<void(const std::string& key, const std::string& value)>;

  static SynthCache& instance();

  std::optional<std::string> lookup(const std::string& key);
  void store(const std::string& key, std::string value);
  void clear();

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t evictions() const { return evictions_.load(); }
  /// Read-through hits served by the attached backing store.
  std::uint64_t backing_hits() const { return backing_hits_.load(); }

  /// Zeroes hits/misses/evictions/backing-hits and the process-wide SAT
  /// engine invocation counter (`sat::engine_solver_invocations`), so a
  /// test or benchmark can assert "this phase ran N solver calls".
  /// Entries are kept — use `clear()` to drop them.
  void reset_stats();

  /// SAT engine invocations since the last `reset_stats` — forwarded
  /// from `sat::engine_solver_invocations()` for convenience.
  std::uint64_t solver_invocations() const;

  /// LRU capacity; 0 disables the cap. Shrinking below the current size
  /// evicts immediately.
  void set_max_entries(std::size_t max_entries);
  std::size_t max_entries() const;

  /// Parses the `FTSP_SAT_CACHE_MAX` environment variable (read at call
  /// time): the parsed cap, or `fallback` when unset or malformed. The
  /// constructor applies this once at first use; exposed so tests can
  /// exercise the parsing without re-creating the singleton.
  static std::size_t max_entries_from_env(std::size_t fallback);

  /// Attaches (or, with default-constructed arguments, detaches) the
  /// persistent read-through/write-through backing.
  void set_backing(BackingLoad load, BackingSave save);
  bool has_backing() const;

  void set_dump_dir(std::string dir);
  std::string dump_dir() const;

  /// Writes `solver`'s problem clauses as DIMACS to
  /// `<dump_dir>/<hash(key)>.cnf` (first line: a comment with the key).
  /// `assumptions` — the literals that parameterized the query (bound
  /// activations etc.) — are appended as unit clauses so the artifact
  /// reproduces the solved query, not just the unconstrained skeleton.
  /// No-op when no dump directory is configured. Best effort: I/O errors
  /// are swallowed — triage dumps must never fail a synthesis run.
  void dump_cnf(const std::string& key, const sat::Solver& solver,
                std::span<const sat::Lit> assumptions = {}) const;

 private:
  SynthCache();

  struct Entry {
    std::string value;
    std::list<std::string>::iterator lru_pos;
  };

  /// Inserts/refreshes under `mutex_` (caller holds it) and evicts down
  /// to the cap.
  void store_locked(const std::string& key, std::string value);
  void touch_locked(Entry& entry, const std::string& key);
  void evict_to_cap_locked();

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  /// Most-recently-used first; holds the keys of `entries_`.
  std::list<std::string> lru_;
  std::size_t max_entries_ = kDefaultMaxEntries;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> backing_hits_{0};
  BackingLoad backing_load_;
  BackingSave backing_save_;
  std::string dump_dir_;

 public:
  /// Default LRU cap. Entries are whole serialized circuits/plans (a few
  /// hundred bytes each), so the default bounds the cache to a few tens
  /// of MB while still covering every built-in code many times over.
  static constexpr std::size_t kDefaultMaxEntries = 65536;
};

/// Canonical cache-key fragment for a generator/check matrix: dimensions
/// plus row bits, independent of any in-memory representation detail.
std::string cache_key_matrix(const f2::BitMatrix& m);

/// Canonical cache-key fragment for an error set: sorted, deduplicated
/// support strings (the synthesized object depends on the set, not the
/// order).
std::string cache_key_errors(const std::vector<f2::BitVec>& errors);

/// Stable 64-bit FNV-1a hash of a cache key — the on-disk name of a
/// key's artifact (dump files, store index entries).
std::uint64_t cache_key_hash(const std::string& key);

/// Sentinel value cached for queries proven infeasible (distinct from any
/// serialized circuit/stabilizer payload).
inline constexpr const char* kCacheInfeasible = "NONE";

}  // namespace ftsp::core
