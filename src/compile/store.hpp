#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compile/artifact.hpp"

namespace ftsp::compile {

/// Versioned on-disk collection of compiled protocol artifacts.
///
/// Layout (all paths under the store directory):
///   index.tsv         one line per artifact: "<filename>\t<key>"
///   <keyhash>.ftsa    artifact container files (see format.md)
///   <keyhash>.proof   proof-bytes sidecars (read only by `load_proofs`)
///   satcache/         persisted SynthCache entries (read/write-through)
///   quarantine/       artifacts moved aside as corrupt (see quarantine)
///
/// The index is keyed by the same canonical strings the in-memory
/// `SynthCache` uses (matrices + options + engine fingerprint), so a
/// lookup is an exact-inputs match — a stale hit is impossible. A cold
/// process that `get`s an artifact starts sampling with zero SAT calls.
///
/// Thread-safe: `put`/`get`/`contains` may race freely. Process-safe to
/// read concurrently. Concurrent writers to one directory each survive:
/// index writes re-read the on-disk index, merge their own entries over
/// it and publish via a writer-unique temp file + atomic rename, so one
/// compiler no longer drops another's entries (per-key conflicts remain
/// last-writer-wins, which is safe — equal keys mean interchangeable
/// artifacts). Note `get`/`keys` still see this handle's snapshot;
/// reopen the store to pick up other writers' artifacts.
///
/// Only the store reads or writes `index.tsv`: one parser serves load,
/// merge-on-write and prune, and every durable file (container, proof
/// sidecar, index) is published through one write path. The serving
/// tier's reload watcher asks the store for `index_fingerprint` rather
/// than reading the file itself.
class ArtifactStore {
 public:
  /// Opens (creating if needed) a store rooted at `dir` and loads the
  /// index in recovery mode: malformed index lines (torn writes, partial
  /// crashes) are skipped with a stderr warning and counted in
  /// `recovery()` rather than failing the whole store — a reader must be
  /// able to open whatever a crash left behind. Throws
  /// `ArtifactFormatError` only if the directory itself cannot be
  /// created.
  explicit ArtifactStore(std::string dir);

  const std::string& directory() const { return dir_; }

  /// Persists an artifact (container file + index entry), overwriting
  /// any previous artifact with the same key. Crash-safe: every file is
  /// written to a writer-unique temp, fsync'd, renamed into place, and
  /// the directory fsync'd — a process killed at any instant leaves
  /// either the old complete state or the new one, never a name
  /// pointing at torn bytes. Any failure throws loudly. Proof bytes, when the
  /// artifact carries any, land in a `<keyhash>.proof` sidecar next to
  /// the container; an artifact with *no* proof entries removes a stale
  /// sidecar, while a metadata-only artifact (present entries whose
  /// bytes were never loaded, e.g. straight from `get`) leaves an
  /// existing sidecar untouched.
  void put(const ProtocolArtifact& artifact);

  /// Loads and fully decodes the artifact for `key`; nullopt when the
  /// key is not in the index. Decode/integrity failures throw. Reads the
  /// `.ftsa` container only, never the `.proof` sidecar: proof entries
  /// come back metadata-only (stage, claim, sizes, CRCs, verdicts) with
  /// empty `premise_dimacs` and `drat`, which is all serving needs.
  /// Call `load_proofs` for the bytes.
  std::optional<ProtocolArtifact> get(const std::string& key) const;

  /// Rehydrates the proof bytes of an artifact returned by `get` from
  /// its `<keyhash>.proof` sidecar (see `read_proof_sidecar`). A
  /// missing or mismatched sidecar leaves the byte fields empty, never
  /// throws; a no-op for an artifact without proof entries.
  void load_proofs(ProtocolArtifact& artifact) const;

  bool contains(const std::string& key) const;
  std::vector<std::string> keys() const;
  std::size_t size() const;

  /// Damage survived while opening or serving from this store.
  struct RecoveryReport {
    /// Index lines skipped by the recovery-mode loader.
    std::size_t malformed_index_lines = 0;
    /// Artifacts moved aside by `quarantine`.
    std::size_t quarantined = 0;
  };
  RecoveryReport recovery() const;

  /// Moves the artifact for `key` (container + proof sidecar) into the
  /// store's `quarantine/` subdirectory, drops its index entry, and
  /// rewrites the index — the recovery path for an artifact that is
  /// indexed but unreadable or corrupt, so one bad file stops failing
  /// every load of the whole store. Best effort: a missing file just
  /// drops the index entry. No-op for keys not in the index.
  void quarantine(const std::string& key, const std::string& reason);

  /// What `prune` found (and, unless dry-run, removed). Paths are
  /// relative to the store directory.
  struct PruneReport {
    std::vector<std::string> removed;
    std::uint64_t bytes = 0;  ///< Total size of the entries above.
    std::size_t orphan_artifacts = 0;  ///< .ftsa not referenced by index.
    std::size_t orphan_proofs = 0;  ///< .proof whose .ftsa is unreferenced.
    std::size_t temp_files = 0;        ///< Leftover .tmp from torn writes.
    std::size_t stale_cache_entries = 0;  ///< Corrupt / aged-out satcache.
    bool dry_run = false;
  };

  /// Garbage-collects the store directory: artifact containers no index
  /// entry points at (left behind by key churn — e.g. recompiles under
  /// different engine options; the on-disk index is re-read first and a
  /// 10-minute grace period shields a concurrent compiler's just-written
  /// files), `.tmp` leftovers of interrupted writes (same grace
  /// period), and satcache entries
  /// that are corrupt/unreadable or — when `max_cache_age` is positive —
  /// older than that age. Indexed artifacts are never touched.
  /// `dry_run` reports without deleting.
  PruneReport prune(bool dry_run = false,
                    std::chrono::seconds max_cache_age =
                        std::chrono::seconds{0}) const;

  /// Attaches this store's satcache/ directory as the persistent
  /// backing of the process-wide `core::SynthCache` (read-through +
  /// write-through). The callbacks capture the directory path, not
  /// `this`, so they stay valid after the store object is destroyed.
  /// Call `detach_synth_cache()` to remove them.
  void attach_synth_cache() const;
  static void detach_synth_cache();

  /// "<size>:<mtime ns>:<FNV-1a of the contents>" of the index under
  /// `dir`, or "absent" when there is none. A changed fingerprint means
  /// the index was rewritten; content inclusion catches same-size
  /// atomic-rename rewrites even on coarse-mtime filesystems.
  static std::string index_fingerprint(const std::string& dir);

 private:
  /// Rewrites index.tsv (merge-on-write; see store.cpp). `drop_key`,
  /// when set, is removed even if the on-disk index still carries it —
  /// quarantine uses this so the merge can't resurrect the bad entry.
  void save_index_locked(const std::string* drop_key = nullptr) const;
  std::string artifact_path(const std::string& filename) const;

  std::string dir_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> index_;  ///< key -> filename.
  RecoveryReport recovery_;                   ///< guarded by mutex_.
};

/// The one reader of `.proof` sidecar files: reads `path` and restores
/// the bytes of `artifact`'s proof entries via `rehydrate_proof_bytes`,
/// which verifies stage names, sizes and CRCs. A missing file leaves the
/// byte fields empty. Does not open the file when the artifact has no
/// proof entries. Counts the bytes read in `store.proof.read.bytes`.
void read_proof_sidecar(ProtocolArtifact& artifact, const std::string& path);

}  // namespace ftsp::compile
