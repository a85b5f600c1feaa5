#include "serve/reload.hpp"

#include <cstdio>
#include <utility>

#include "compile/store.hpp"
#include "obs/registry.hpp"

namespace ftsp::serve {

namespace {

/// Publishes the store generation now serving.
void publish_generation(std::uint64_t generation) {
  static obs::Gauge& gauge =
      obs::Registry::instance().gauge("serve.reload.generation");
  gauge.set(static_cast<std::int64_t>(generation));
}

}  // namespace

ReloadableService::ReloadableService(std::string store_dir,
                                     const Options& options)
    : store_dir_(std::move(store_dir)),
      options_(options),
      runtime_(std::make_shared<ProtocolRuntime>()),
      cache_(std::make_shared<PayloadCache>(options.cache_bytes)) {
  if (!options_.access_log.empty()) {
    access_log_ = std::make_shared<AccessLog>(options_.access_log);
  }
  // Fingerprint first: an index rewritten while `build` runs then reads
  // as changed, so the watcher rebuilds instead of missing it.
  fingerprint_ = compile::ArtifactStore::index_fingerprint(store_dir_);
  current_ = build(runtime_->generation.load());
  publish_generation(runtime_->generation.load());
  // The reload op routes back here. The hook captures `this`; the dtor
  // clears it before tearing anything down so a request racing the
  // shutdown sees "unsupported" instead of a dangling pointer.
  std::lock_guard<std::mutex> lock(runtime_->hook_mutex);
  runtime_->reload_hook = [this] { return force_reload(); };
}

ReloadableService::~ReloadableService() {
  {
    std::lock_guard<std::mutex> lock(runtime_->hook_mutex);
    runtime_->reload_hook = nullptr;
  }
  stop_watcher();
}

std::shared_ptr<const compile::ProtocolService> ReloadableService::service()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::shared_ptr<const compile::ProtocolService> ReloadableService::build(
    std::uint64_t generation) const {
  // A fresh ArtifactStore handle re-reads index.tsv from disk — that is
  // the whole reload mechanism; artifact payload files are immutable
  // (content-keyed), only the index gains/loses/repoints entries.
  compile::ArtifactStore store(store_dir_);
  auto service = std::make_shared<compile::ProtocolService>();
  service->set_runtime(runtime_);
  service->set_payload_cache(cache_);
  service->set_access_log(access_log_);
  service->set_generation(generation);
  service->load_store(store);
  return service;
}

std::uint64_t ReloadableService::force_reload() {
  // Build outside `mutex_` — the expensive part (executor/decoder
  // construction per artifact) must not block `service()` snapshots.
  // The new generation is computed up front (reload_mutex_ serializes
  // concurrent reloads) so the fresh snapshot carries its own stamp:
  // health and codes answered by one snapshot agree on the generation
  // even for requests racing the swap.
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  const bool timing = obs::enabled();
  const auto swap_start = timing ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
  const std::uint64_t generation = runtime_->generation.load() + 1;
  // Taken before `build` reads the index, as in the constructor.
  const std::string fingerprint =
      compile::ArtifactStore::index_fingerprint(store_dir_);
  std::shared_ptr<const compile::ProtocolService> fresh;
  try {
    fresh = build(generation);
  } catch (const std::exception& e) {
    // Degraded, not down: the previous snapshot keeps answering while
    // `health` surfaces "degraded":true + this error, until a later
    // reload succeeds and clears it.
    {
      std::lock_guard<std::mutex> lock(runtime_->hook_mutex);
      runtime_->last_reload_error = e.what();
    }
    runtime_->degraded.store(true);
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(runtime_->hook_mutex);
    runtime_->last_reload_error.clear();
  }
  runtime_->degraded.store(false);
  runtime_->generation.store(generation);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = std::move(fresh);
    fingerprint_ = fingerprint;
  }
  static obs::Counter& reloads =
      obs::Registry::instance().counter("serve.reload.count");
  reloads.add(1);
  publish_generation(generation);
  if (timing) {
    static obs::Histogram& swap_duration =
        obs::Registry::instance().histogram("serve.reload.swap_duration_us");
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - swap_start)
                        .count();
    swap_duration.record(us > 0 ? static_cast<std::uint64_t>(us) : 0);
  }
  std::fprintf(stderr,
               "ftsp-serve: store reloaded (generation %llu, %zu codes)\n",
               static_cast<unsigned long long>(generation),
               service()->size());
  return generation;
}

bool ReloadableService::reload_if_changed() {
  const std::string fingerprint =
      compile::ArtifactStore::index_fingerprint(store_dir_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fingerprint == fingerprint_) {
      return false;
    }
  }
  force_reload();
  return true;
}

void ReloadableService::start_watcher() {
  std::lock_guard<std::mutex> lock(watcher_mutex_);
  if (watcher_running_) {
    return;
  }
  watcher_stop_ = false;
  watcher_running_ = true;
  watcher_ = std::thread([this] { watch_loop(); });
}

void ReloadableService::stop_watcher() {
  {
    std::lock_guard<std::mutex> lock(watcher_mutex_);
    if (!watcher_running_) {
      return;
    }
    watcher_stop_ = true;
  }
  watcher_cv_.notify_all();
  watcher_.join();
  std::lock_guard<std::mutex> lock(watcher_mutex_);
  watcher_running_ = false;
}

void ReloadableService::watch_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watcher_mutex_);
      watcher_cv_.wait_for(lock, options_.poll_interval,
                           [&] { return watcher_stop_; });
      if (watcher_stop_) {
        return;
      }
    }
    try {
      reload_if_changed();
    } catch (const std::exception& e) {
      // A half-written store must never kill the serving loop: keep the
      // last good service, complain, retry next poll.
      std::fprintf(stderr, "ftsp-serve: reload failed (%s); keeping "
                           "previous store generation\n",
                   e.what());
    }
  }
}

}  // namespace ftsp::serve
