#include "core/synth_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/registry.hpp"
#include "sat/dimacs.hpp"
#include "sat/engine.hpp"
#include "util/hash.hpp"

namespace ftsp::core {

namespace {

// Call sites spell the full registered metric name (not a composed
// "core.synthcache." + verb) so the append-only name registry stays
// greppable and ftsp_lint can extract it.
obs::Counter& synth_cache_counter(const char* name) {
  return obs::Registry::instance().counter(name);
}

}  // namespace

SynthCache::SynthCache() {
  if (const char* dir = std::getenv("FTSP_SAT_DUMP_DIR")) {
    dump_dir_ = dir;
  }
  max_entries_ = max_entries_from_env(kDefaultMaxEntries);
}

std::size_t SynthCache::max_entries_from_env(std::size_t fallback) {
  const char* cap = std::getenv("FTSP_SAT_CACHE_MAX");
  if (cap == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(cap, &end, 10);
  if (end == cap || *end != '\0') {
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

SynthCache& SynthCache::instance() {
  static SynthCache cache;
  return cache;
}

std::optional<std::string> SynthCache::lookup(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& hits =
          synth_cache_counter("core.synthcache.hit.count");
      hits.add(1);
      touch_locked(it->second, key);
      return it->second.value;
    }
  }
  // Read-through outside the lock: backing loads may do file I/O and must
  // not serialize concurrent in-memory hits behind them.
  BackingLoad load;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    load = backing_load_;
  }
  if (load) {
    if (auto value = load(key)) {
      backing_hits_.fetch_add(1, std::memory_order_relaxed);
      hits_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& backing_hits =
          synth_cache_counter("core.synthcache.backing_hit.count");
      backing_hits.add(1);
      std::lock_guard<std::mutex> lock(mutex_);
      store_locked(key, *value);
      return value;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& misses =
      synth_cache_counter("core.synthcache.miss.count");
  misses.add(1);
  return std::nullopt;
}

void SynthCache::store(const std::string& key, std::string value) {
  static obs::Counter& stores =
      synth_cache_counter("core.synthcache.store.count");
  stores.add(1);
  BackingSave save;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    store_locked(key, value);
    save = backing_save_;
  }
  if (save) {
    save(key, value);
  }
}

void SynthCache::store_locked(const std::string& key, std::string value) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.value = std::move(value);
    touch_locked(it->second, key);
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(value), lru_.begin()});
  evict_to_cap_locked();
}

void SynthCache::touch_locked(Entry& entry, const std::string& key) {
  if (entry.lru_pos != lru_.begin()) {
    lru_.erase(entry.lru_pos);
    lru_.push_front(key);
    entry.lru_pos = lru_.begin();
  }
}

void SynthCache::evict_to_cap_locked() {
  if (max_entries_ == 0) {
    return;
  }
  while (entries_.size() > max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& evictions =
        synth_cache_counter("core.synthcache.evict.count");
    evictions.add(1);
  }
}

void SynthCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
  hits_.store(0);
  misses_.store(0);
  evictions_.store(0);
  backing_hits_.store(0);
}

void SynthCache::reset_stats() {
  hits_.store(0);
  misses_.store(0);
  evictions_.store(0);
  backing_hits_.store(0);
  sat::reset_engine_solver_invocations();
}

std::uint64_t SynthCache::solver_invocations() const {
  return sat::engine_solver_invocations();
}

std::size_t SynthCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void SynthCache::set_max_entries(std::size_t max_entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_entries_ = max_entries;
  evict_to_cap_locked();
}

std::size_t SynthCache::max_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_entries_;
}

void SynthCache::set_backing(BackingLoad load, BackingSave save) {
  std::lock_guard<std::mutex> lock(mutex_);
  backing_load_ = std::move(load);
  backing_save_ = std::move(save);
}

bool SynthCache::has_backing() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<bool>(backing_load_);
}

void SynthCache::set_dump_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  dump_dir_ = std::move(dir);
}

std::string SynthCache::dump_dir() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dump_dir_;
}

void SynthCache::dump_cnf(const std::string& key, const sat::Solver& solver,
                          std::span<const sat::Lit> assumptions) const {
  const std::string dir = dump_dir();
  if (dir.empty()) {
    return;
  }
  sat::CnfFormula formula;
  formula.num_vars = solver.num_vars();
  formula.clauses = solver.problem_clauses();
  for (const sat::Lit a : assumptions) {
    formula.clauses.push_back({a});
  }
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.cnf",
                static_cast<unsigned long long>(cache_key_hash(key)));
  std::ofstream out(dir + "/" + name);
  if (!out) {
    return;
  }
  out << "c ftsp synthesis query: " << key << "\n" << sat::to_dimacs(formula);
}

std::string cache_key_matrix(const f2::BitMatrix& m) {
  std::string key = std::to_string(m.rows()) + "x" + std::to_string(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    key += "|";
    key += m.row(r).to_string();
  }
  return key;
}

std::string cache_key_errors(const std::vector<f2::BitVec>& errors) {
  std::vector<std::string> keys;
  keys.reserve(errors.size());
  for (const auto& e : errors) {
    keys.push_back(e.to_string());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string key;
  for (const auto& e : keys) {
    key += "|e=" + e;
  }
  return key;
}

std::uint64_t cache_key_hash(const std::string& key) {
  // Canonical byte-wise FNV-1a; hashes name persisted satcache files,
  // so the fold is frozen.
  return util::fnv1a64(key);
}

}  // namespace ftsp::core
