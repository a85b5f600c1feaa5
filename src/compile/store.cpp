#include "compile/store.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

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
#include "util/hash.hpp"

namespace ftsp::compile {

namespace fs = std::filesystem;

namespace {

constexpr const char* kIndexName = "index.tsv";
constexpr const char* kSatCacheDir = "satcache";
constexpr const char* kQuarantineDir = "quarantine";

namespace fault = util::fault;

std::string index_path(const std::string& dir) {
  return (fs::path(dir) / kIndexName).string();
}

/// The one whole-file reader: one sized read, no stream buffer copies.
/// nullopt when `path` cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
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
bool sync_path(const std::string& path, bool directory) {
#ifndef _WIN32
  const int fd = ::open(path.empty() ? "." : path.c_str(),
                        directory ? O_RDONLY | O_DIRECTORY : O_RDONLY);
  if (fd < 0) {
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)directory;
  return true;  // std::ofstream close flushed; no cheap fsync handle here.
#endif
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

/// The one durable write of a store file: `write` streams the bytes into
/// a writer-unique temp next to `path`, which is fsync'd and renamed over
/// `path`, and the directory fsync'd so the rename itself is durable.
/// Injection sites, in order: `store.write` once the temp is open, then
/// `store.fsync` and `store.rename` — the crash tests park a writer
/// between the write and the publish (delay) or force the error paths
/// (fail). Throws ArtifactFormatError naming `what`, removing the temp.
/// Returns the number of bytes written.
std::uint64_t publish_file(const std::string& path, const std::string& what,
                           const std::function<void(std::ostream&)>& write) {
  const std::string tmp = unique_tmp_path(path);
  const auto fail = [&tmp](const std::string& message) {
    std::error_code cleanup;
    fs::remove(tmp, cleanup);
    throw ArtifactFormatError("store: " + message);
  };
  std::streamoff size = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || fault::should_fail("store.write")) {
      out.close();
      fail("cannot write " + what);
    }
    write(out);
    out.flush();
    size = out.tellp();
    if (!out) {
      out.close();
      fail("short write to " + what);
    }
  }
  if (fault::should_fail("store.fsync") || !sync_path(tmp, false)) {
    fail("cannot sync " + what);
  }
  std::error_code ec;
  if (fault::should_fail("store.rename")) {
    ec = std::make_error_code(std::errc::io_error);
  } else {
    fs::rename(tmp, path, ec);
  }
  if (ec) {
    fail("cannot replace " + what + ": " + ec.message());
  }
  // Advisory: the name flip is already atomic.
  sync_path(fs::path(path).parent_path().string(), true);
  return static_cast<std::uint64_t>(size);
}

std::string hash_name(const std::string& key, const char* extension) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx%s",
                static_cast<unsigned long long>(core::cache_key_hash(key)),
                extension);
  return name;
}

std::string kv_path(const std::string& cache_dir, const std::string& key) {
  return (fs::path(cache_dir) / hash_name(key, ".kv")).string();
}

/// satcache entry file: length-prefixed key (ByteWriter::str framing),
/// then the value bytes to EOF. The key is stored (not just its hash)
/// so collisions degrade to a miss, never to a wrong value. Written via
/// temp-file + rename so a concurrent reader sees either the old
/// complete entry or the new one, never a torn half-write.
void write_kv_file(const std::string& cache_dir, const std::string& key,
                   const std::string& value) {
  const std::string path = kv_path(cache_dir, key);
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

/// The one parser of the `.kv` framing above: {key, value}, or nullopt
/// when the framing is torn or truncated.
std::optional<std::pair<std::string, std::string_view>> split_kv(
    std::string_view content) {
  try {
    util::ByteReader reader(content);
    std::string key = reader.str();
    return std::pair{std::move(key), reader.raw(reader.remaining())};
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

std::optional<std::string> read_kv_file(const std::string& cache_dir,
                                        const std::string& key) {
  const auto content = read_file(kv_path(cache_dir, key));
  const auto entry = content ? split_kv(*content) : std::nullopt;
  // An unreadable or corrupt entry, or a hash collision, is a miss.
  if (!entry || entry->first != key) {
    return std::nullopt;
  }
  return std::string(entry->second);
}

/// One line of index.tsv: "<filename>\t<key>".
struct IndexLine {
  std::size_t number = 0;  ///< 1-based, for warnings.
  std::string filename;    ///< Empty when the line names no file.
  std::string key;
  const char* rejected = nullptr;  ///< Why it is malformed; null if not.
};

/// The one parser of index.tsv. Blank lines are skipped; every other
/// line comes back, malformed ones (no tab, empty filename, empty key —
/// a torn write) with the reason. A missing index reads as empty.
std::vector<IndexLine> read_index(const std::string& dir) {
  std::vector<IndexLine> lines;
  const std::string text = read_file(index_path(dir)).value_or("");
  std::size_t number = 0;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    ++number;
    if (line.empty()) {
      continue;
    }
    IndexLine entry{number, "", "", "no tab separator"};
    const auto tab = line.find('\t');
    if (tab != std::string_view::npos) {
      entry.filename = line.substr(0, tab);
      entry.key = line.substr(tab + 1);
      entry.rejected = entry.filename.empty() ? "empty filename"
                       : entry.key.empty()    ? "empty key"
                                              : nullptr;
    }
    lines.push_back(std::move(entry));
  }
  return lines;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / kSatCacheDir, ec);
  if (ec) {
    throw ArtifactFormatError("store: cannot create " + dir_ + ": " +
                              ec.message());
  }
  // Recovery mode: a reader must be able to open whatever a crashed or
  // concurrent writer left behind, so a malformed index line is skipped
  // with a warning and counted, never thrown. One torn byte used to
  // brick every load and hot reload of the whole store. Writer paths
  // stay loud: put() still throws on anything it cannot persist.
  for (IndexLine& line : read_index(dir_)) {
    if (line.rejected != nullptr) {
      std::fprintf(stderr,
                   "ftsp: store %s: skipping malformed index line %zu (%s)\n",
                   dir_.c_str(), line.number, line.rejected);
      ++recovery_.malformed_index_lines;
      continue;
    }
    index_.emplace(std::move(line.key), std::move(line.filename));
  }
}

std::string ArtifactStore::artifact_path(const std::string& filename) const {
  return (fs::path(dir_) / filename).string();
}

void ArtifactStore::save_index_locked(const std::string* drop_key) const {
  // Merge-on-write: re-read the on-disk index and overlay our in-memory
  // entries on top of it. Two processes compiling into one directory
  // each preserve the other's entries — the historical whole-rewrite was
  // last-writer-wins and silently dropped concurrent keys. (A write
  // landing between our read and our rename can still lose that one
  // race, but the window shrinks from "the whole process lifetime" to
  // one read-modify-rename; both contended entries' artifact files are
  // on disk either way, so the next put or an index rebuild restores
  // them.)
  // Malformed lines are skipped here exactly like the constructor's
  // recovery mode: a concurrent writer's torn line must not make every
  // subsequent put in this process fail forever. The skipped line's
  // artifact file stays on disk for a rebuild.
  std::map<std::string, std::string> merged;
  for (IndexLine& line : read_index(dir_)) {
    if (line.rejected == nullptr) {
      merged[std::move(line.key)] = std::move(line.filename);
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

  publish_file(index_path(dir_), "index in " + dir_,
               [&](std::ostream& out) {
                 for (const auto& [key, filename] : merged) {
                   out << filename << '\t' << key << '\n';
                 }
               });
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
  publish_file(artifact_path(filename), filename, [&](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });

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
    write_bytes.add(publish_file(
        proof_path, "proof sidecar for " + filename,
        [&](std::ostream& out) { write_proof_sidecar(artifact, out); }));
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
  const auto bytes = read_file(artifact_path(filename));
  if (!bytes || fault::should_fail("store.read")) {
    throw ArtifactFormatError("store: indexed artifact missing: " +
                              filename);
  }
  ProtocolArtifact artifact = decode_artifact(*bytes);
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
  const auto sidecar = read_file(path);
  if (!sidecar) {
    return;
  }
  static obs::Counter& read_bytes =
      obs::Registry::instance().counter("store.proof.read.bytes");
  read_bytes.add(sidecar->size());
  rehydrate_proof_bytes(artifact, *sidecar);
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
  // Every file a line names is kept, even when its line is malformed
  // (an empty key): the bytes stay for an index rebuild.
  std::set<std::string> referenced;
  for (const auto& [key, filename] : index_) {
    referenced.insert(filename);
  }
  for (IndexLine& line : read_index(dir_)) {
    if (!line.filename.empty()) {
      referenced.insert(std::move(line.filename));
    }
  }

  // A file younger than this may be a concurrent writer's: an in-flight
  // .tmp (deleting it would silently abort that write), or a container
  // or sidecar published before that writer rewrote the index.
  const auto now = fs::file_time_type::clock::now();
  const auto in_grace_period = [&](const fs::path& path) {
    std::error_code ec;
    const auto written = fs::last_write_time(path, ec);
    return !ec && now - written < std::chrono::minutes{10};
  };
  std::vector<fs::path> doomed;
  const auto classify = [&](const fs::directory_entry& entry,
                            bool in_satcache) {
    if (!entry.is_regular_file()) {
      return;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".tmp") {
      if (in_grace_period(entry.path())) {
        return;  // Possibly a live write: leave it for the next pass.
      }
      ++report.temp_files;
    } else if (!in_satcache && (ext == ".ftsa" || ext == ".proof")) {
      // A proof sidecar lives and dies with its container: both are
      // referenced iff `<stem>.ftsa` is. Old unreferenced ones are
      // genuine key churn.
      if (referenced.count(entry.path().stem().string() + ".ftsa") != 0 ||
          in_grace_period(entry.path())) {
        return;
      }
      ++(ext == ".ftsa" ? report.orphan_artifacts : report.orphan_proofs);
    } else if (in_satcache && ext == ".kv") {
      bool stale = false;
      if (max_cache_age.count() > 0) {
        std::error_code ec;
        const auto written = fs::last_write_time(entry.path(), ec);
        stale = !ec && now - written > max_cache_age;
      }
      if (!stale) {
        // Corrupt entries (torn framing, truncation) read as misses
        // forever — reclaim them.
        const auto content = read_file(entry.path().string());
        stale = !content || !split_kv(*content);
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

std::string ArtifactStore::index_fingerprint(const std::string& dir) {
  const std::string path = index_path(dir);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return "absent";
  }
  const auto mtime = fs::last_write_time(path, ec);
  const auto mtime_ns =
      ec ? 0
         : std::chrono::duration_cast<std::chrono::nanoseconds>(
               mtime.time_since_epoch())
               .count();
  // Legacy-seed FNV-1a; the value is compared against stamps persisted
  // by earlier generations, so the seed is frozen.
  const std::uint64_t hash = util::fnv1a64(read_file(path).value_or(""),
                                           util::kFnv1a64LegacyOffset);
  return std::to_string(size) + ":" + std::to_string(mtime_ns) + ":" +
         std::to_string(hash);
}

void ArtifactStore::attach_synth_cache() const {
  const std::string cache_dir = (fs::path(dir_) / kSatCacheDir).string();
  core::SynthCache::instance().set_backing(
      [cache_dir](const std::string& key) {
        return read_kv_file(cache_dir, key);
      },
      [cache_dir](const std::string& key, const std::string& value) {
        write_kv_file(cache_dir, key, value);
      });
}

void ArtifactStore::detach_synth_cache() {
  core::SynthCache::instance().set_backing({}, {});
}

}  // namespace ftsp::compile
