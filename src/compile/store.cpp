#include "compile/store.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#else
#include <process.h>
#endif

#include "compile/format.hpp"
#include "core/synth_cache.hpp"
#include "obs/registry.hpp"
#include "util/binio.hpp"
#include "util/fault_inject.hpp"

namespace ftsp::compile {

namespace fs = std::filesystem;

namespace {

constexpr const char* kIndexName = "index.tsv";
constexpr const char* kSatCacheDir = "satcache";
constexpr const char* kQuarantineDir = "quarantine";

namespace fault = util::fault;

/// A freshly opened file as one string: one sized read, no stream buffer
/// copies. A stream that failed to open reads as empty.
std::string read_all(std::ifstream& in) {
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::string bytes(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

/// Durability half of the temp-file + rename pattern: rename alone makes
/// the *name* transition atomic, but nothing orders the data blocks
/// before the metadata — after a crash the new name can point at a
/// zero-length or partial file. fsync the payload before the rename and
/// the containing directory after it. Best effort on purpose (returns
/// false instead of throwing): an fsync failure on an exotic filesystem
/// must not break a store that worked before this hardening, and the
/// rename path already detects genuinely unwritable directories.
bool sync_file(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;  // std::ofstream close flushed; no cheap fsync handle here.
#endif
}

bool sync_parent_dir(const std::string& path) {
#ifndef _WIN32
  const std::string parent = fs::path(path).parent_path().string();
  const int fd =
      ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

/// One crash-safe publish: fsync the finished temp file, rename it over
/// `path`, fsync the directory so the rename itself is durable. The
/// `store.fsync` / `store.rename` injection sites let the crash tests
/// park a writer between the write and the publish (delay) or force the
/// error paths (fail). Throws ArtifactFormatError, cleaning up the temp.
void publish_tmp(const std::string& tmp, const std::string& path,
                 const char* what) {
  if (fault::should_fail("store.fsync") || !sync_file(tmp)) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    throw ArtifactFormatError(std::string("store: cannot sync ") + what);
  }
  std::error_code ec;
  if (fault::should_fail("store.rename")) {
    ec = std::make_error_code(std::errc::io_error);
  } else {
    fs::rename(tmp, path, ec);
  }
  if (ec) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    throw ArtifactFormatError(std::string("store: cannot replace ") + what +
                              ": " + ec.message());
  }
  sync_parent_dir(path);  // Advisory: the name flip is already atomic.
}

/// A writer-unique "<path>.<pid>.<tick>.<serial>.tmp" name (extension
/// stays .tmp so prune() reclaims leftovers). A shared fixed temp name
/// would let two concurrent writers interleave into one file and
/// publish a torn rename; pid makes the name unique across processes,
/// the serial across threads, the tick across process restarts reusing
/// a pid.
std::string unique_tmp_path(const std::string& path) {
  static std::atomic<std::uint64_t> serial{0};
#ifndef _WIN32
  const unsigned long long pid = static_cast<unsigned long long>(::getpid());
#else
  const unsigned long long pid = static_cast<unsigned long long>(::_getpid());
#endif
  return path + "." + std::to_string(pid) + "." +
         std::to_string(
             std::chrono::steady_clock::now().time_since_epoch().count()) +
         "." + std::to_string(serial.fetch_add(1)) + ".tmp";
}

std::string hash_name(const std::string& key, const char* extension) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx%s",
                static_cast<unsigned long long>(core::cache_key_hash(key)),
                extension);
  return name;
}

/// satcache entry file: length-prefixed key (ByteWriter::str framing),
/// then the value bytes to EOF. The key is stored (not just its hash)
/// so collisions degrade to a miss, never to a wrong value. Written via
/// temp-file + rename so a concurrent reader sees either the old
/// complete entry or the new one, never a torn half-write.
void write_kv_file(const std::string& path, const std::string& key,
                   const std::string& value) {
  util::ByteWriter entry;
  entry.str(key);
  entry.raw(value);
  const std::string tmp = unique_tmp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return;  // Best effort: a failed write-through must not fail synthesis.
    }
    out.write(entry.bytes().data(),
              static_cast<std::streamsize>(entry.bytes().size()));
    if (!out) {
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);  // Best effort, atomic when it succeeds.
}

std::optional<std::string> read_kv_file(const std::string& path,
                                        const std::string& key) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  const std::string content = read_all(in);
  try {
    util::ByteReader reader(content);
    if (reader.str() != key) {
      return std::nullopt;  // Hash collision: treat as a miss.
    }
    return std::string(reader.raw(reader.remaining()));
  } catch (const std::out_of_range&) {
    return std::nullopt;  // Truncated/corrupt entry degrades to a miss.
  }
}

}  // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / kSatCacheDir, ec);
  if (ec) {
    throw ArtifactFormatError("store: cannot create " + dir_ + ": " +
                              ec.message());
  }
  load_index();
}

std::string ArtifactStore::artifact_path(const std::string& filename) const {
  return (fs::path(dir_) / filename).string();
}

void ArtifactStore::load_index() {
  std::ifstream in((fs::path(dir_) / kIndexName).string());
  if (!in) {
    return;  // Fresh store.
  }
  // Recovery mode: a reader must be able to open whatever a crashed or
  // concurrent writer left behind, so a malformed line (no tab, empty
  // filename, empty key — a torn write) is skipped with a warning and
  // counted, never thrown. One torn byte used to brick every load and
  // hot reload of the whole store. Writer paths stay loud: put() still
  // throws on anything it cannot persist completely.
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    const auto tab = line.find('\t');
    const char* reason = nullptr;
    if (tab == std::string::npos) {
      reason = "no tab separator";
    } else if (tab == 0) {
      reason = "empty filename";
    } else if (tab + 1 >= line.size()) {
      reason = "empty key";
    }
    if (reason != nullptr) {
      std::fprintf(stderr,
                   "ftsp: store %s: skipping malformed index line %zu (%s)\n",
                   dir_.c_str(), line_number, reason);
      ++recovery_.malformed_index_lines;
      continue;
    }
    index_.emplace(line.substr(tab + 1), line.substr(0, tab));
  }
}

void ArtifactStore::save_index_locked(const std::string* drop_key) const {
  const std::string path = (fs::path(dir_) / kIndexName).string();
  // Merge-on-write: re-read the on-disk index and overlay our in-memory
  // entries on top of it. Two processes compiling into one directory
  // each preserve the other's entries — the historical whole-rewrite was
  // last-writer-wins and silently dropped concurrent keys. (A write
  // landing between our read and our rename can still lose that one
  // race, but the window shrinks from "the whole process lifetime" to
  // one read-modify-rename; both contended entries' artifact files are
  // on disk either way, so the next put or an index rebuild restores
  // them.)
  // Malformed lines are skipped here exactly like load_index's recovery
  // mode: a concurrent writer's torn line must not make every subsequent
  // put in this process fail forever. The skipped line's artifact file
  // stays on disk for a rebuild.
  std::map<std::string, std::string> merged;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos && tab > 0 && tab + 1 < line.size()) {
        merged[line.substr(tab + 1)] = line.substr(0, tab);
      }
    }
  }
  for (const auto& [key, filename] : index_) {
    merged[key] = filename;
  }
  // A quarantined key must not be resurrected by the merge: its on-disk
  // entry is exactly what we are removing.
  if (drop_key != nullptr) {
    merged.erase(*drop_key);
  }

  const std::string tmp = unique_tmp_path(path);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out || fault::should_fail("store.write")) {
      std::error_code cleanup;
      out.close();
      fs::remove(tmp, cleanup);
      throw ArtifactFormatError("store: cannot write index in " + dir_);
    }
    for (const auto& [key, filename] : merged) {
      out << filename << '\t' << key << '\n';
    }
    out.flush();
    if (!out) {
      std::error_code cleanup;
      out.close();
      fs::remove(tmp, cleanup);
      throw ArtifactFormatError("store: short write to index in " + dir_);
    }
  }
  publish_tmp(tmp, path, "index");
}

void ArtifactStore::put(const ProtocolArtifact& artifact) {
  if (artifact.key.empty()) {
    throw ArtifactFormatError("store: artifact has an empty key");
  }
  const std::string filename = hash_name(artifact.key, ".ftsa");
  const std::string bytes = encode_artifact(artifact);
  // Writer-unique temp + rename: concurrent readers see either the
  // previous complete artifact or the new one, never a truncated
  // container — and two writers racing on the *same key* each publish a
  // complete file instead of truncating each other's shared temp.
  const std::string path = artifact_path(filename);
  const std::string tmp = unique_tmp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || fault::should_fail("store.write")) {
      std::error_code cleanup;
      out.close();
      fs::remove(tmp, cleanup);
      throw ArtifactFormatError("store: cannot write " + filename);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code cleanup;
      out.close();
      fs::remove(tmp, cleanup);
      throw ArtifactFormatError("store: short write to " + filename);
    }
  }
  publish_tmp(tmp, path, filename.c_str());

  // Proof sidecar (see the header contract): write when the artifact
  // carries bytes, remove a stale one when it carries no proof entries
  // at all, and leave an existing sidecar alone for metadata-only
  // round-trips (a decoded artifact whose bytes were never rehydrated
  // must not clobber the good sidecar with an empty one).
  const std::string proof_path =
      artifact_path(hash_name(artifact.key, ".proof"));
  if (has_proof_bytes(artifact)) {
    static obs::Counter& write_bytes =
        obs::Registry::instance().counter("store.proof.write.bytes");
    const std::string proof_tmp = unique_tmp_path(proof_path);
    bool written = false;
    std::streamoff size = 0;
    {
      std::ofstream out(proof_tmp, std::ios::binary | std::ios::trunc);
      if (out && !fault::should_fail("store.write")) {
        write_proof_sidecar(artifact, out);
        out.flush();
        written = static_cast<bool>(out);
        size = out.tellp();
      }
    }
    if (!written) {
      std::error_code cleanup;
      fs::remove(proof_tmp, cleanup);
      throw ArtifactFormatError("store: cannot write proof sidecar for " +
                                filename);
    }
    publish_tmp(proof_tmp, proof_path, "proof sidecar");
    write_bytes.add(static_cast<std::uint64_t>(size));
  } else if (artifact.proofs.empty()) {
    std::error_code remove_ec;
    fs::remove(proof_path, remove_ec);  // Stale sidecar of a prior compile.
  }

  std::lock_guard<std::mutex> lock(mutex_);
  index_[artifact.key] = filename;
  save_index_locked();
}

std::optional<ProtocolArtifact> ArtifactStore::get(
    const std::string& key) const {
  std::string filename;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return std::nullopt;
    }
    filename = it->second;
  }
  std::ifstream in(artifact_path(filename), std::ios::binary);
  if (!in || fault::should_fail("store.read")) {
    throw ArtifactFormatError("store: indexed artifact missing: " +
                              filename);
  }
  ProtocolArtifact artifact = decode_artifact(read_all(in));
  if (artifact.key != key) {
    throw ArtifactFormatError("store: key mismatch in " + filename);
  }
  return artifact;
}

void ArtifactStore::load_proofs(ProtocolArtifact& artifact) const {
  read_proof_sidecar(artifact,
                     artifact_path(hash_name(artifact.key, ".proof")));
}

void read_proof_sidecar(ProtocolArtifact& artifact, const std::string& path) {
  if (artifact.proofs.empty()) {
    return;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return;
  }
  static obs::Counter& read_bytes =
      obs::Registry::instance().counter("store.proof.read.bytes");
  const std::string sidecar = read_all(in);
  read_bytes.add(sidecar.size());
  rehydrate_proof_bytes(artifact, sidecar);
}

bool ArtifactStore::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.count(key) != 0;
}

std::vector<std::string> ArtifactStore::keys() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(index_.size());
  for (const auto& [key, filename] : index_) {
    keys.push_back(key);
  }
  return keys;
}

std::size_t ArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

ArtifactStore::RecoveryReport ArtifactStore::recovery() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recovery_;
}

void ArtifactStore::quarantine(const std::string& key,
                               const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  const std::string filename = it->second;
  const fs::path quarantine_dir = fs::path(dir_) / kQuarantineDir;
  std::error_code ec;
  fs::create_directories(quarantine_dir, ec);
  // Move the container and its proof sidecar aside rather than deleting:
  // the bytes stay available for a post-mortem (and `prune` never
  // descends into subdirectories, so quarantined files are never GC'd).
  // rename-over within one filesystem; failures (file already gone,
  // permissions) degrade to just dropping the index entry.
  for (const std::string& name : {filename, hash_name(key, ".proof")}) {
    std::error_code move_ec;
    fs::rename(fs::path(dir_) / name, quarantine_dir / name, move_ec);
  }
  std::fprintf(stderr, "ftsp: store %s: quarantining %s (%s)\n",
               dir_.c_str(), filename.c_str(), reason.c_str());
  index_.erase(it);
  ++recovery_.quarantined;
  save_index_locked(&key);
}

ArtifactStore::PruneReport ArtifactStore::prune(
    bool dry_run, std::chrono::seconds max_cache_age) const {
  PruneReport report;
  report.dry_run = dry_run;
  std::lock_guard<std::mutex> lock(mutex_);

  // Filenames the index references — everything else with a store
  // extension is garbage. The on-disk index is re-read here (not just
  // the copy loaded at construction) so artifacts a concurrent compiler
  // indexed since this handle opened are never classified as orphans.
  std::map<std::string, bool> referenced;
  for (const auto& [key, filename] : index_) {
    referenced.emplace(filename, true);
  }
  {
    std::ifstream in((fs::path(dir_) / kIndexName).string());
    std::string line;
    while (in && std::getline(in, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos && tab > 0) {
        referenced.emplace(line.substr(0, tab), true);
      }
    }
  }

  const auto now = fs::file_time_type::clock::now();
  // A .tmp file younger than this is plausibly a concurrent writer's
  // in-flight temp (put() writes <name>.tmp then renames); deleting it
  // would silently abort that write. Anything older is a torn leftover.
  constexpr auto kTempGracePeriod = std::chrono::minutes{10};
  std::vector<fs::path> doomed;
  const auto classify = [&](const fs::directory_entry& entry,
                            bool in_satcache) {
    if (!entry.is_regular_file()) {
      return;
    }
    const std::string name = entry.path().filename().string();
    const std::string ext = entry.path().extension().string();
    if (ext == ".tmp") {
      std::error_code age_ec;
      const auto written = fs::last_write_time(entry.path(), age_ec);
      if (!age_ec && now - written < kTempGracePeriod) {
        return;  // Possibly a live write: leave it for the next pass.
      }
      ++report.temp_files;
    } else if (!in_satcache && ext == ".ftsa") {
      if (referenced.count(name) != 0) {
        return;
      }
      // Same race guard as for .tmp: a fresh unreferenced container may
      // belong to a concurrent compiler that has not rewritten the
      // index yet. Old unreferenced containers are genuine key churn.
      std::error_code age_ec;
      const auto written = fs::last_write_time(entry.path(), age_ec);
      if (!age_ec && now - written < kTempGracePeriod) {
        return;
      }
      ++report.orphan_artifacts;
    } else if (!in_satcache && ext == ".proof") {
      // A proof sidecar lives and dies with its container: referenced
      // iff `<stem>.ftsa` is referenced. The sidecar of an indexed
      // artifact is never touched; an orphaned one is garbage (same
      // grace period as containers — a concurrent compiler writes the
      // sidecar before rewriting the index).
      if (referenced.count(entry.path().stem().string() + ".ftsa") != 0) {
        return;
      }
      std::error_code age_ec;
      const auto written = fs::last_write_time(entry.path(), age_ec);
      if (!age_ec && now - written < kTempGracePeriod) {
        return;
      }
      ++report.orphan_proofs;
    } else if (in_satcache && ext == ".kv") {
      bool stale = false;
      if (max_cache_age.count() > 0) {
        std::error_code ec;
        const auto written = fs::last_write_time(entry.path(), ec);
        stale = !ec && now - written > max_cache_age;
      }
      if (!stale) {
        // Corrupt entries (torn framing, truncation) read as misses
        // forever — reclaim them. `read_kv_file` returning nullopt for
        // a *readable* entry means exactly that.
        std::ifstream in(entry.path(), std::ios::binary);
        const std::string content = read_all(in);
        try {
          util::ByteReader reader(content);
          (void)reader.str();
        } catch (const std::out_of_range&) {
          stale = true;
        }
      }
      if (!stale) {
        return;
      }
      ++report.stale_cache_entries;
    } else {
      return;  // index.tsv and anything unrecognized: never touched.
    }
    std::error_code ec;
    const std::uint64_t size = entry.file_size(ec);
    report.bytes += ec ? 0 : size;
    report.removed.push_back(
        fs::relative(entry.path(), fs::path(dir_)).string());
    doomed.push_back(entry.path());
  };

  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    classify(entry, /*in_satcache=*/false);
  }
  for (const auto& entry :
       fs::directory_iterator(fs::path(dir_) / kSatCacheDir, ec)) {
    classify(entry, /*in_satcache=*/true);
  }

  if (!dry_run) {
    for (const fs::path& path : doomed) {
      std::error_code remove_ec;
      fs::remove(path, remove_ec);  // Best effort; report what was found.
    }
  }
  return report;
}

void ArtifactStore::attach_synth_cache() const {
  const std::string cache_dir = (fs::path(dir_) / kSatCacheDir).string();
  core::SynthCache::instance().set_backing(
      [cache_dir](const std::string& key) -> std::optional<std::string> {
        return read_kv_file(
            (fs::path(cache_dir) / hash_name(key, ".kv")).string(), key);
      },
      [cache_dir](const std::string& key, const std::string& value) {
        write_kv_file(
            (fs::path(cache_dir) / hash_name(key, ".kv")).string(), key,
            value);
      });
}

void ArtifactStore::detach_synth_cache() {
  core::SynthCache::instance().set_backing({}, {});
}

}  // namespace ftsp::compile
