#include "compile/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "compile/format.hpp"
#include "compile/json.hpp"
#include "core/qasm_export.hpp"
#include "core/rate_estimator.hpp"
#include "core/samplers.hpp"
#include "core/serialize.hpp"
#include "obs/expose.hpp"
#include "obs/registry.hpp"
#include "serve/access_log.hpp"
#include "serve/cache.hpp"
#include "serve/wire.hpp"

namespace ftsp::compile {

namespace {

/// Hard per-request shot cap, so no single line can ask for unbounded
/// work. For `sample` it bounds time only: shards fold into counts, so
/// its memory is one shard's scratch per thread whatever the shot count.
constexpr std::uint64_t kMaxShotsPerRequest = std::uint64_t{1} << 22;
constexpr std::uint64_t kMaxThreadsPerRequest = 256;

/// The op hint of the v1 unknown-op error message. Frozen: v1 error
/// bytes are part of the compatibility contract, so ops added since v1
/// (health, stats, reload) must not leak into it. The v2 hint is
/// generated from the live op table instead.
constexpr const char* kV1OpsHint = "codes|info|sample|rate|circuit";

double number_param(const JsonObject& request, const std::string& name,
                    double fallback) {
  const auto it = request.find(name);
  if (it == request.end()) {
    return fallback;
  }
  if (it->second.kind != JsonValue::Kind::Number ||
      !std::isfinite(it->second.number)) {
    throw std::invalid_argument("parameter '" + name +
                                "' must be a finite number");
  }
  return it->second.number;
}

/// Client-supplied integer with explicit range enforcement: rejecting
/// (never clamping or casting blind) keeps a bad request an error
/// instead of UB or a multi-gigabyte allocation.
std::uint64_t integer_param(const JsonObject& request,
                            const std::string& name, std::uint64_t fallback,
                            std::uint64_t max) {
  const double value = number_param(request, name,
                                    static_cast<double>(fallback));
  if (value < 0.0 || value > static_cast<double>(max) ||
      value != std::floor(value)) {
    throw std::invalid_argument("parameter '" + name +
                                "' must be an integer in [0, " +
                                std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(value);
}

std::string string_param(const JsonObject& request, const std::string& name,
                         const std::string& fallback) {
  const auto it = request.find(name);
  if (it == request.end()) {
    return fallback;
  }
  if (it->second.kind != JsonValue::Kind::String) {
    throw std::invalid_argument("parameter '" + name + "' must be a string");
  }
  return it->second.text;
}

double probability_param(const JsonObject& request, const std::string& name,
                         double fallback) {
  const double p = number_param(request, name, fallback);
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("parameter '" + name +
                                "' must be in (0, 1)");
  }
  return p;
}

/// `%.17g` prints "inf" (invalid JSON) for the fully-exhaustive case;
/// clamp to a finite sentinel far above any realistic shot count.
double json_safe(double value) {
  constexpr double kCap = 1e18;
  return std::isfinite(value) ? std::min(value, kCap) : kCap;
}

/// Renders one stratified estimate's fields into `out` ("{...}" element
/// of a sweep array or the body of a single-rate response).
void write_rate_fields(JsonWriter& out, double p,
                       const core::RateEstimate& estimate) {
  out.field("p", p);
  out.field("p_logical", estimate.p_logical);
  out.field("std_error", estimate.std_error);
  out.field("ci_low", estimate.ci_low);
  out.field("ci_high", estimate.ci_high);
  out.field("tail_weight", estimate.tail_weight);
  out.field("mc_shots", estimate.mc_shots);
  out.field("exhaustive_cases", estimate.exhaustive_cases);
  out.field("equivalent_naive_shots",
            json_safe(estimate.equivalent_naive_shots));
}

/// Canonical %.17g rendering of a validated numeric parameter for
/// payload-cache keys — "0.010" and 0.01 coalesce to one compute.
std::string key_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted_json_array(const std::vector<std::string>& items) {
  std::string array = "[";
  for (const auto& item : items) {
    if (array.size() > 1) {
      array += ',';
    }
    array += '"' + json_escape(item) + '"';
  }
  array += ']';
  return array;
}

/// The parameters of a `sample` request. The payload-cache key and the
/// handler both read this one parse, so a cache hit rejects exactly the
/// requests a fresh compute would. Braced initializers run in order: the
/// validation order.
struct SampleParams {
  double p;
  std::size_t shots;
  std::uint64_t seed;
  std::size_t threads;
};

SampleParams parse_sample(const JsonObject& request) {
  return {probability_param(request, "p", 0.01),
          integer_param(request, "shots", 20000, kMaxShotsPerRequest),
          integer_param(request, "seed", 1, std::uint64_t{1} << 53),
          integer_param(request, "threads", 1, kMaxThreadsPerRequest)};
}

/// The parameters of a `rate` request, parsed once like `SampleParams`:
/// one probability `p` when `p_points` is 0, else a log-spaced sweep over
/// [p_min, p_max].
struct RateParams {
  std::size_t shots;
  std::uint64_t seed;
  std::size_t threads;
  double rel_err;
  std::size_t p_points = 0;
  double p = 0.0, p_min = 0.0, p_max = 0.0;
};

RateParams parse_rate(const JsonObject& request) {
  RateParams params{
      integer_param(request, "shots", std::size_t{1} << 20,
                    kMaxShotsPerRequest),
      integer_param(request, "seed", 1, std::uint64_t{1} << 53),
      integer_param(request, "threads", 1, kMaxThreadsPerRequest),
      number_param(request, "rel_err", 0.05)};
  if (!(params.rel_err > 0.0) || params.rel_err > 1.0) {
    throw std::invalid_argument("parameter 'rel_err' must be in (0, 1]");
  }
  params.p_points = integer_param(request, "p_points", 0, 256);
  if (params.p_points == 0) {
    params.p = probability_param(request, "p", 0.01);
    return params;
  }
  params.p_min = probability_param(request, "p_min", 1e-4);
  params.p_max = probability_param(request, "p_max", 1e-2);
  if (params.p_min > params.p_max) {
    throw std::invalid_argument("p_min must not exceed p_max");
  }
  return params;
}

/// The export format of a `circuit` request, checked here so a cache hit
/// rejects an unknown format exactly as a fresh render would.
std::string parse_circuit_format(const JsonObject& request) {
  std::string format = string_param(request, "format", "qasm");
  if (format != "qasm" && format != "text") {
    throw std::invalid_argument("unknown format '" + format + "' (qasm|text)");
  }
  return format;
}

}  // namespace

// ---------------------------------------------------------------------------
// Op table: every servable op registers here — name, dispatch traits
// (does it address an artifact? is it coalescable/memoizable through the
// payload cache?) and its handler. Handlers produce the *payload body*
// (fields after "ok":true, no braces); the wire envelope is rendered
// around it per request version, which is what lets one cached payload
// serve v1 and v2 clients with different request ids.
// ---------------------------------------------------------------------------

struct ServiceOps {
  using Entry = ProtocolService::Entry;
  /// Payload producer. `entry` is non-null iff the op `needs_code`.
  /// `cancel` is the request's cooperative deadline token (never null;
  /// tokenless requests get one that never fires) — long-running
  /// handlers thread it into their compute loops, everything else
  /// ignores it.
  using Handler = std::string (*)(const ProtocolService&, const Entry*,
                                  const JsonObject&,
                                  const util::CancelToken*);
  /// Canonical cache/coalescing key builder. Validates every
  /// result-changing parameter (so a cached hit rejects exactly the
  /// requests a fresh compute would) and excludes parameters that
  /// cannot change payload bytes (threads — the sampler/estimator
  /// determinism contract). Null = op is never cached or coalesced.
  using KeyFn = std::string (*)(const Entry&, const JsonObject&);

  struct OpSpec {
    const char* name;
    bool needs_code;
    /// Share one compute among concurrent identical requests, even on a
    /// cache that stores nothing (sample, rate: yes — a compute costs
    /// milliseconds; circuit: no — a render costs microseconds, less
    /// than a round trip through the cache).
    bool coalesce;
    /// Store the computed payload in the LRU (rate: yes — sector
    /// estimates are expensive; circuit: yes — the render depends only
    /// on the immutable artifact; sample: no — coalesce only).
    bool memoize;
    KeyFn key;
    Handler handler;
  };

  /// Registry handles for one op's serving series, resolved once so the
  /// per-request path never builds a label or takes the registry lock.
  struct OpMetrics {
    obs::Counter* requests;
    obs::Histogram* duration;
    /// Coalescable ops (`key` set) only; null otherwise.
    obs::Counter* cache_hit = nullptr;
    obs::Counter* cache_miss = nullptr;
    obs::Counter* cache_coalesce = nullptr;
  };

  static const std::vector<OpSpec>& table();
  static const OpSpec* find_op(const std::string& name);
  /// The metrics record of a `table()` entry.
  static const OpMetrics& metrics_of(const OpSpec& spec);
  static obs::Counter& unknown_ops();
  /// "codes|info|..." over every registered op, for v2 error hints.
  static std::string ops_hint();

  static std::string codes(const ProtocolService& service, const Entry*,
                           const JsonObject&, const util::CancelToken*);
  static std::string info(const ProtocolService&, const Entry* entry,
                          const JsonObject&, const util::CancelToken*);
  static std::string sample(const ProtocolService&, const Entry* entry,
                            const JsonObject& request,
                            const util::CancelToken*);
  static std::string rate(const ProtocolService&, const Entry* entry,
                          const JsonObject& request,
                          const util::CancelToken* cancel);
  static std::string circuit(const ProtocolService&, const Entry* entry,
                             const JsonObject& request,
                             const util::CancelToken*);
  static std::string health(const ProtocolService& service, const Entry*,
                            const JsonObject&, const util::CancelToken*);
  static std::string stats(const ProtocolService& service, const Entry*,
                           const JsonObject&, const util::CancelToken*);
  static std::string reload(const ProtocolService& service, const Entry*,
                            const JsonObject&, const util::CancelToken*);
  static std::string metrics(const ProtocolService&, const Entry*,
                             const JsonObject&, const util::CancelToken*);

  static std::string sample_key(const Entry& entry, const JsonObject& request);
  static std::string rate_key(const Entry& entry, const JsonObject& request);
  static std::string circuit_key(const Entry& entry,
                                 const JsonObject& request);
};

const std::vector<ServiceOps::OpSpec>& ServiceOps::table() {
  static const std::vector<OpSpec> kOps = {
      {"codes", false, false, false, nullptr, &ServiceOps::codes},
      {"info", true, false, false, nullptr, &ServiceOps::info},
      {"sample", true, true, false, &ServiceOps::sample_key,
       &ServiceOps::sample},
      {"rate", true, true, true, &ServiceOps::rate_key, &ServiceOps::rate},
      {"circuit", true, false, true, &ServiceOps::circuit_key,
       &ServiceOps::circuit},
      {"health", false, false, false, nullptr, &ServiceOps::health},
      {"stats", false, false, false, nullptr, &ServiceOps::stats},
      {"reload", false, false, false, nullptr, &ServiceOps::reload},
      {"metrics", false, false, false, nullptr, &ServiceOps::metrics},
  };
  return kOps;
}

const ServiceOps::OpSpec* ServiceOps::find_op(const std::string& name) {
  for (const auto& spec : table()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

const ServiceOps::OpMetrics& ServiceOps::metrics_of(const OpSpec& spec) {
  static const std::vector<OpMetrics> kMetrics = [] {
    auto& registry = obs::Registry::instance();
    // Full literal metric names: the append-only name registry is
    // extracted from source by ftsp_lint, so names are never composed
    // at runtime.
    const auto counter = [&](const char* metric, const char* op) {
      return &registry.counter(obs::labeled(metric, "op", op));
    };
    std::vector<OpMetrics> metrics;
    metrics.reserve(table().size());
    for (const auto& op : table()) {
      OpMetrics m{counter("serve.request.op.count", op.name),
                  &registry.histogram(obs::labeled(
                      "serve.request.duration_us", "op", op.name))};
      if (op.key != nullptr) {
        m.cache_hit = counter("serve.cache.hit.count", op.name);
        m.cache_miss = counter("serve.cache.miss.count", op.name);
        m.cache_coalesce = counter("serve.cache.coalesce.count", op.name);
      }
      metrics.push_back(m);
    }
    return metrics;
  }();
  return kMetrics[static_cast<std::size_t>(&spec - table().data())];
}

obs::Counter& ServiceOps::unknown_ops() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("serve.request.unknown_op.count");
  return counter;
}

std::string ServiceOps::ops_hint() {
  std::string hint;
  for (const auto& spec : table()) {
    if (!hint.empty()) {
      hint += '|';
    }
    hint += spec.name;
  }
  return hint;
}

std::string ServiceOps::codes(const ProtocolService& service, const Entry*,
                              const JsonObject&,
                              const util::CancelToken*) {
  JsonWriter out;
  out.raw_field("codes", quoted_json_array(service.code_names()));
  // Only when non-empty: shadow-free stores keep the historical v1
  // response bytes, shadowed ones surface the hidden keys to operators.
  if (!service.shadowed_keys().empty()) {
    out.raw_field("shadowed", quoted_json_array(service.shadowed_keys()));
  }
  return out.take_body();
}

std::string ServiceOps::info(const ProtocolService&, const Entry* entry,
                             const JsonObject&,
                             const util::CancelToken*) {
  const ProtocolArtifact& artifact = entry->artifact;
  const auto& code = *artifact.protocol.code;
  JsonWriter out;
  out.field("code", code.name());
  out.field("basis", artifact.protocol.basis == qec::LogicalBasis::Zero
                         ? "zero"
                         : "plus");
  out.field("n", static_cast<std::uint64_t>(code.num_qubits()));
  out.field("k", static_cast<std::uint64_t>(code.num_logical()));
  out.field("d", static_cast<std::uint64_t>(code.distance()));
  out.field("key", artifact.key);
  out.field("engine", artifact.provenance.engine_fingerprint);
  if (qec::coupling_constrained(artifact.coupling)) {
    out.field("coupling", artifact.coupling->name());
    out.field("coupling_fingerprint", artifact.coupling->fingerprint());
    out.field("coupling_edges",
              static_cast<std::uint64_t>(artifact.coupling->num_edges()));
    out.field("gadget_reach", std::uint64_t{artifact.gadget_reach});
  } else {
    out.field("coupling", "all");
  }
  out.field("prep_fallback", artifact.provenance.prep_fallback);
  out.field("prep_cnots", std::uint64_t{artifact.provenance.prep_cnots});
  out.field("verification_measurements",
            std::uint64_t{artifact.provenance.verification_measurements});
  out.field("branches", std::uint64_t{artifact.provenance.branch_count});
  out.field("solver_invocations", artifact.provenance.solver_invocations);
  out.field("compile_wall_seconds", artifact.provenance.wall_seconds);
  return out.take_body();
}

std::string ServiceOps::sample_key(const Entry& entry,
                                   const JsonObject& request) {
  // "threads" is validated but left out of the key: the thread count
  // never changes sampled bits (deterministic shard seeding), so requests
  // differing only in "threads" share one compute.
  const SampleParams params = parse_sample(request);
  return "sample\x1f" + entry.artifact.key + "\x1fp=" + key_number(params.p) +
         "\x1fshots=" + std::to_string(params.shots) +
         "\x1fseed=" + std::to_string(params.seed);
}

std::string ServiceOps::sample(const ProtocolService&, const Entry* entry,
                               const JsonObject& request,
                               const util::CancelToken*) {
  const ProtocolArtifact& artifact = entry->artifact;
  const SampleParams params = parse_sample(request);
  core::SamplerOptions sampler;
  sampler.num_threads = params.threads;
  sampler.layout = &artifact.layout;
  const auto counts = core::sample_protocol_counts(
      entry->executor, entry->decoder, params.p, params.shots, params.seed,
      sampler);
  const auto estimate = core::estimate_logical_rate(counts);
  JsonWriter out;
  out.field("code", ProtocolService::serving_name(artifact));
  out.field("p", params.p);
  out.field("shots", std::uint64_t{params.shots});
  out.field("p_logical", estimate.mean);
  out.field("std_error", estimate.std_error);
  out.field("seed", params.seed);
  out.field("x_fails", counts.x_fails);
  out.field("z_fails", counts.z_fails);
  out.field("hook_terminated", counts.hook_terminated);
  out.field("total_faults", counts.total_faults);
  return out.take_body();
}

std::string ServiceOps::rate_key(const Entry& entry,
                                 const JsonObject& request) {
  const RateParams params = parse_rate(request);
  std::string key = "rate\x1f" + entry.artifact.key +
                    "\x1fshots=" + std::to_string(params.shots) +
                    "\x1fseed=" + std::to_string(params.seed) +
                    "\x1frel_err=" + key_number(params.rel_err);
  if (params.p_points == 0) {
    key += "\x1fp=" + key_number(params.p);
  } else {
    key += "\x1fp_min=" + key_number(params.p_min) + "\x1fp_max=" +
           key_number(params.p_max) +
           "\x1fp_points=" + std::to_string(params.p_points);
  }
  return key;
}

std::string ServiceOps::rate(const ProtocolService&, const Entry* entry,
                             const JsonObject& request,
                             const util::CancelToken* cancel) {
  // Stratified fault-sector estimation (see core/rate_estimator.hpp):
  // exhaustive small sectors + adaptively allocated conditional
  // sampling, served from the artifact's precomputed layout and run
  // in bounded chunk_shots waves so one request's footprint stays
  // flat regardless of its budget. "shots" caps the Monte-Carlo lane
  // budget; "rel_err" is the convergence target. A p_min/p_max/
  // p_points triple requests a log-spaced sweep answered from ONE
  // sampling pass (sector reweighting; uniform model only).
  const ProtocolArtifact& artifact = entry->artifact;
  const RateParams params = parse_rate(request);
  core::RateOptions rate_options;
  rate_options.max_shots = params.shots;
  rate_options.seed = params.seed;
  rate_options.num_threads = params.threads;
  rate_options.rel_err = params.rel_err;
  rate_options.layout = &artifact.layout;
  // Per-request deadline: the estimator checks between wave batches and
  // throws CancelledError, which dispatch maps to `deadline_exceeded` —
  // a pathological rate request frees its worker instead of holding it.
  rate_options.cancel = cancel;
  JsonWriter out;
  out.field("code", ProtocolService::serving_name(artifact));
  if (params.p_points == 0) {
    const auto estimate = core::estimate_logical_error_rate(
        entry->executor, entry->decoder, params.p, rate_options);
    write_rate_fields(out, params.p, estimate);
    return out.take_body();
  }
  const std::vector<double> ps =
      core::log_spaced_grid(params.p_min, params.p_max, params.p_points);
  const auto estimates = core::estimate_logical_error_rate_sweep(
      entry->executor, entry->decoder, ps, rate_options);
  std::string sweep = "[";
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    if (i > 0) {
      sweep += ',';
    }
    JsonWriter element;
    write_rate_fields(element, ps[i], estimates[i]);
    sweep += element.take();
  }
  sweep += ']';
  out.raw_field("sweep", sweep);
  return out.take_body();
}

std::string ServiceOps::circuit_key(const Entry& entry,
                                    const JsonObject& request) {
  // "\x1f" and "format" are split: 'f' would extend the hex escape.
  return "circuit\x1f" + entry.artifact.key +
         "\x1f" "format=" + parse_circuit_format(request);
}

std::string ServiceOps::circuit(const ProtocolService&, const Entry* entry,
                                const JsonObject& request,
                                const util::CancelToken*) {
  const ProtocolArtifact& artifact = entry->artifact;
  const std::string format = parse_circuit_format(request);
  JsonWriter out;
  out.field("code", ProtocolService::serving_name(artifact));
  out.field("format", format);
  out.field("body", format == "qasm"
                        ? core::protocol_to_qasm(artifact.protocol)
                        : core::save_protocol(artifact.protocol));
  return out.take_body();
}

std::string ServiceOps::health(const ProtocolService& service, const Entry*,
                               const JsonObject&,
                               const util::CancelToken*) {
  JsonWriter out;
  out.field("status", "serving");
  out.field("codes", static_cast<std::uint64_t>(service.size()));
  // The snapshot's own generation, not the live runtime counter: one
  // request answered by one service snapshot reports one generation,
  // even when a hot reload swaps the current service mid-request.
  out.field("generation", service.generation());
  out.field("shadowed",
            static_cast<std::uint64_t>(service.shadowed_keys().size()));
  bool reloadable = false;
  std::string last_error;
  {
    std::lock_guard<std::mutex> lock(service.runtime()->hook_mutex);
    reloadable = static_cast<bool>(service.runtime()->reload_hook);
    last_error = service.runtime()->last_reload_error;
  }
  out.field("reloadable", reloadable);
  // Resilience surface, emitted only when relevant (the `shadowed`
  // precedent): healthy stores keep their historical response bytes.
  // `degraded` = the last reload failed and an older snapshot is still
  // answering; the recovery counts = damage this snapshot's load
  // survived (skipped index lines, quarantined artifacts).
  if (service.runtime()->degraded.load()) {
    out.field("degraded", true);
    out.field("last_error", last_error);
  }
  const auto& recovery = service.store_recovery();
  if (recovery.quarantined != 0) {
    out.field("quarantined",
              static_cast<std::uint64_t>(recovery.quarantined));
  }
  if (recovery.malformed_index_lines != 0) {
    out.field("recovered_index_lines",
              static_cast<std::uint64_t>(recovery.malformed_index_lines));
  }
  return out.take_body();
}

std::string ServiceOps::stats(const ProtocolService& service, const Entry*,
                              const JsonObject& request,
                              const util::CancelToken*) {
  JsonWriter out;
  out.field("generation", service.runtime()->generation.load());
  // Every registered op, zeros included, in name order: the frozen v1
  // layout.
  std::map<std::string, std::uint64_t> counts;
  for (const auto& spec : table()) {
    counts[spec.name] = metrics_of(spec).requests->value();
  }
  JsonWriter ops;
  for (const auto& [name, count] : counts) {
    ops.field(name, count);
  }
  out.raw_field("ops", "{" + ops.take_body() + "}");
  out.field("rejected", unknown_ops().value());
  if (const auto& cache = service.payload_cache()) {
    const auto stats = cache->stats();
    const std::uint64_t lookups = stats.hits + stats.misses;
    JsonWriter cache_out;
    cache_out.field("hits", stats.hits);
    cache_out.field("misses", stats.misses);
    cache_out.field("hit_rate",
                    lookups == 0
                        ? 0.0
                        : static_cast<double>(stats.hits) /
                              static_cast<double>(lookups));
    cache_out.field("coalesced", stats.coalesced);
    cache_out.field("evictions", stats.evictions);
    cache_out.field("entries", static_cast<std::uint64_t>(stats.entries));
    cache_out.field("bytes", static_cast<std::uint64_t>(stats.bytes));
    cache_out.field("capacity_bytes",
                    static_cast<std::uint64_t>(cache->capacity_bytes()));
    out.raw_field("cache", "{" + cache_out.take_body() + "}");
  } else {
    out.raw_field("cache", "null");
  }
  // v2-only extension: latency percentiles and the per-op cache
  // breakdown, read from the process metric registry. Strictly appended
  // after the shared fields so v1 stats responses keep their historical
  // bytes forever.
  const auto vit = request.find("v");
  const bool v2 = vit != request.end() &&
                  vit->second.kind == JsonValue::Kind::Number &&
                  vit->second.number >= 2.0;
  if (v2) {
    out.field("obs_enabled", obs::enabled());
    JsonWriter latency;
    for (const auto& spec : table()) {
      const obs::Histogram& histogram = *metrics_of(spec).duration;
      JsonWriter op_out;
      op_out.field("count", histogram.count());
      op_out.field("p50_us", histogram.percentile_us(0.50));
      op_out.field("p90_us", histogram.percentile_us(0.90));
      op_out.field("p99_us", histogram.percentile_us(0.99));
      latency.raw_field(spec.name, "{" + op_out.take_body() + "}");
    }
    out.raw_field("latency", "{" + latency.take_body() + "}");
    JsonWriter cache_ops;
    for (const auto& spec : table()) {
      if (spec.key == nullptr) {
        continue;  // Never cached or coalesced: no breakdown to report.
      }
      const OpMetrics& metrics = metrics_of(spec);
      JsonWriter op_out;
      op_out.field("hit", metrics.cache_hit->value());
      op_out.field("miss", metrics.cache_miss->value());
      op_out.field("coalesce", metrics.cache_coalesce->value());
      cache_ops.raw_field(spec.name, "{" + op_out.take_body() + "}");
    }
    out.raw_field("cache_ops", "{" + cache_ops.take_body() + "}");
  }
  return out.take_body();
}

std::string ServiceOps::reload(const ProtocolService& service, const Entry*,
                               const JsonObject&,
                               const util::CancelToken*) {
  std::function<std::uint64_t()> hook;
  {
    std::lock_guard<std::mutex> lock(service.runtime()->hook_mutex);
    hook = service.runtime()->reload_hook;
  }
  if (!hook) {
    throw serve::ServiceError(
        serve::error_code::kUnsupported,
        "reload is not available on this serving endpoint (start the "
        "server with a reloadable store)");
  }
  const std::uint64_t generation = hook();
  JsonWriter out;
  out.field("reloaded", true);
  out.field("generation", generation);
  return out.take_body();
}

std::string ServiceOps::metrics(const ProtocolService&, const Entry*,
                                const JsonObject&,
                                const util::CancelToken*) {
  static obs::Counter& scrapes =
      obs::Registry::instance().counter("serve.metrics.scrape.count");
  scrapes.add(1);
  JsonWriter out;
  out.field("format", "prometheus");
  out.field("body", obs::render_prometheus());
  return out.take_body();
}

// ---------------------------------------------------------------------------
// ProtocolService
// ---------------------------------------------------------------------------

ProtocolService::ProtocolService() : runtime_(std::make_shared<Runtime>()) {}

std::string ProtocolService::serving_name(const core::Protocol& protocol) {
  std::string name = protocol.code->name();
  if (protocol.basis == qec::LogicalBasis::Plus) {
    name += "/plus";
  }
  return name;
}

std::string ProtocolService::serving_name(const ProtocolArtifact& artifact) {
  std::string name = serving_name(artifact.protocol);
  if (qec::coupling_constrained(artifact.coupling)) {
    name += "@" + artifact.coupling->name();
    if (artifact.gadget_reach != 0) {
      name += "+g" + std::to_string(artifact.gadget_reach);
    }
  }
  return name;
}

std::size_t ProtocolService::load_store(ArtifactStore& store) {
  for (const std::string& key : store.keys()) {
    try {
      if (auto artifact = store.get(key)) {
        add(std::move(*artifact));
      }
    } catch (const ArtifactFormatError& e) {
      // One unreadable/corrupt artifact must not take down every other
      // protocol in the store: move it aside (quarantine/ keeps the
      // bytes for a post-mortem), drop its index entry, keep loading.
      // The count surfaces in `health` as "quarantined".
      store.quarantine(key, e.what());
    }
  }
  store_recovery_ = store.recovery();
  return entries_.size();
}

void ProtocolService::add(ProtocolArtifact artifact) {
  std::unique_ptr<Entry> entry;
  try {
    entry = std::make_unique<Entry>(std::move(artifact));
  } catch (const std::logic_error& e) {
    // The rehydrated decoder or the layout check rejected the artifact's
    // contents: a malformed artifact, which `load_store` quarantines.
    throw ArtifactFormatError(std::string("artifact: serving entry: ") +
                              e.what());
  }
  const std::string name = serving_name(entry->artifact);
  const auto it = entries_.find(name);
  if (it != entries_.end() && it->second->artifact.key != entry->artifact.key) {
    // Same serving name, different store key: the earlier artifact is
    // silently unreachable from every request. Record it (the `codes`
    // response surfaces the list) and warn loudly — an operator whose
    // store mixes e.g. proof-on and proof-off compiles of one code
    // should know which one answers.
    shadowed_.push_back(it->second->artifact.key);
    std::fprintf(stderr,
                 "ftsp-serve: WARNING: serving name '%s' shadows artifact "
                 "key '%s' (replaced by '%s'; last key in store order "
                 "wins)\n",
                 name.c_str(), it->second->artifact.key.c_str(),
                 entry->artifact.key.c_str());
  }
  entries_[name] = std::move(entry);
}

std::vector<std::string> ProtocolService::code_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    names.push_back(name);
  }
  return names;
}

const ProtocolService::Entry* ProtocolService::find(
    const std::string& code_name) const {
  const auto it = entries_.find(code_name);
  return it == entries_.end() ? nullptr : it->second.get();
}

void ProtocolService::set_payload_cache(
    std::shared_ptr<serve::PayloadCache> cache) {
  cache_ = std::move(cache);
}

void ProtocolService::set_runtime(std::shared_ptr<Runtime> runtime) {
  if (runtime != nullptr) {
    runtime_ = std::move(runtime);
  }
}

void ProtocolService::set_access_log(std::shared_ptr<serve::AccessLog> log) {
  access_log_ = std::move(log);
}

std::string ProtocolService::handle_request(
    const std::string& json_line) const {
  return handle_request(json_line, std::chrono::steady_clock::time_point{});
}

std::string ProtocolService::handle_request(
    const std::string& json_line,
    std::chrono::steady_clock::time_point deadline) const {
  // Per-request telemetry, captured as dispatch runs and recorded after
  // the response bytes are final (only `stats` and `metrics` read it
  // back). Per-op series belong to the *registered* op (never the
  // client-supplied string), so a client spraying bogus op names cannot
  // grow the append-only registry.
  struct Telemetry {
    std::string op;
    std::string code;
    int version = 1;
    std::string status = "ok";
    const ServiceOps::OpMetrics* metrics = nullptr;  ///< Known ops only.
    bool cacheable = false;
    bool cache_hit = false;
    bool coalesced = false;
  } telemetry;
  // The clock is read only for the latency histogram (FTSP_OBS) and the
  // access log.
  const bool timing = obs::enabled();
  const bool clocked = timing || access_log_ != nullptr;
  const auto start = clocked ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

  const auto dispatch = [&]() -> std::string {
    serve::Envelope envelope;
    try {
      JsonObject request;
      try {
        request = parse_json_object(json_line);
      } catch (const std::exception& e) {
        // Unparseable line: no fields were recovered, so no id to echo.
        throw serve::ServiceError(serve::error_code::kBadRequest, e.what());
      }
      serve::parse_envelope(request, envelope);
      telemetry.version = envelope.version;
      // Effective deadline: the server-imposed one (absolute, stamped at
      // request arrival so queue wait counts), optionally *tightened* —
      // never extended — by a v2 `deadline_ms` field, relative to now.
      auto effective_deadline = deadline;
      if (envelope.version >= 2) {
        constexpr std::uint64_t kMaxDeadlineMs = 86'400'000;  // One day.
        const std::uint64_t deadline_ms =
            integer_param(request, "deadline_ms", 0, kMaxDeadlineMs);
        if (deadline_ms != 0) {
          const auto requested = std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(deadline_ms);
          if (effective_deadline == std::chrono::steady_clock::time_point{} ||
              requested < effective_deadline) {
            effective_deadline = requested;
          }
        }
      }
      const util::CancelToken cancel_token(effective_deadline);
      const std::string op = string_param(request, "op", "");
      const ServiceOps::OpSpec* spec = ServiceOps::find_op(op);
      if (spec == nullptr) {
        ServiceOps::unknown_ops().add(1);
        // The v1 hint is frozen (see kV1OpsHint); v2 enumerates the
        // live table.
        throw serve::ServiceError(
            serve::error_code::kUnknownOp,
            "unknown op '" + op + "' (" +
                (envelope.version >= 2 ? ServiceOps::ops_hint()
                                       : std::string(kV1OpsHint)) +
                ")");
      }
      telemetry.op = spec->name;
      // Counted before the handler runs, so a `stats` reply counts
      // itself.
      telemetry.metrics = &ServiceOps::metrics_of(*spec);
      telemetry.metrics->requests->add(1);

      const Entry* entry = nullptr;
      if (spec->needs_code) {
        const std::string code_name = string_param(request, "code", "");
        telemetry.code = code_name;
        entry = find(code_name);
        if (entry == nullptr) {
          std::string message = "unknown code '";
          message += code_name;
          message += "' (try {\"op\":\"codes\"})";
          throw serve::ServiceError(serve::error_code::kUnknownCode, message);
        }
      }

      // Expired before compute even starts (long queue wait, tiny
      // client budget): answer without burning a worker on doomed work.
      if (cancel_token.cancelled()) {
        throw util::CancelledError("deadline exceeded before compute");
      }

      std::string payload;
      if (spec->key != nullptr && cache_ != nullptr &&
          (spec->coalesce || cache_->capacity_bytes() > 0)) {
        // Keyed op with a serving cache that can coalesce or store it:
        // the key builder validates every result-changing parameter up
        // front, so a cache hit rejects exactly what a fresh compute
        // would.
        const std::string key = spec->key(*entry, request);
        auto outcome = cache_->get_or_compute(key, spec->memoize, [&] {
          return spec->handler(*this, entry, request, &cancel_token);
        });
        telemetry.cacheable = true;
        telemetry.cache_hit = outcome.cache_hit;
        telemetry.coalesced = outcome.coalesced;
        payload = std::move(outcome.payload);
      } else {
        payload = spec->handler(*this, entry, request, &cancel_token);
      }
      return serve::render_ok(envelope, payload);
    } catch (const serve::ServiceError& e) {
      telemetry.status = e.code();
      return serve::render_error(envelope, e.code(), e.what());
    } catch (const std::invalid_argument& e) {
      telemetry.status = serve::error_code::kBadParam;
      return serve::render_error(envelope, serve::error_code::kBadParam,
                                 e.what());
    } catch (const util::CancelledError&) {
      // A fired deadline, whether caught before compute started or
      // thrown out of a cancelled estimator loop (possibly propagated
      // to every coalesced waiter — cancelled computes are never
      // cached). One stable message: deadline responses must not leak
      // how far the compute got.
      telemetry.status = serve::error_code::kDeadlineExceeded;
      return serve::render_error(envelope,
                                 serve::error_code::kDeadlineExceeded,
                                 "deadline exceeded");
    } catch (const std::exception& e) {
      telemetry.status = serve::error_code::kInternal;
      return serve::render_error(envelope, serve::error_code::kInternal,
                                 e.what());
    }
  };
  std::string response = dispatch();
  static obs::Counter& requests =
      obs::Registry::instance().counter("serve.request.count");
  static obs::Counter& errors =
      obs::Registry::instance().counter("serve.request.error.count");
  requests.add(1);
  if (telemetry.status != "ok") {
    errors.add(1);
  }
  if (telemetry.cacheable) {
    const ServiceOps::OpMetrics& metrics = *telemetry.metrics;
    obs::Counter* outcome = telemetry.cache_hit   ? metrics.cache_hit
                            : telemetry.coalesced ? metrics.cache_coalesce
                                                  : metrics.cache_miss;
    outcome->add(1);
  }
  if (!clocked) {
    return response;
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const auto latency_us =
      elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0;
  if (timing && telemetry.metrics != nullptr) {
    telemetry.metrics->duration->record(latency_us);
  }
  if (access_log_ != nullptr) {
    serve::AccessLog::Record record;
    // Access-log timestamps are observational only — they never reach
    // artifacts or wire bytes.
    // ftsp-lint: allow(det-wall-clock) observational access-log timestamp
    const auto wall_now = std::chrono::system_clock::now();
    record.ts_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            wall_now.time_since_epoch())
            .count());
    record.op = telemetry.op;
    record.code = telemetry.code;
    record.version = telemetry.version;
    record.status = telemetry.status;
    record.latency_us = latency_us;
    record.cache_hit = telemetry.cache_hit;
    record.coalesced = telemetry.coalesced;
    access_log_->append(record);
  }
  return response;
}

}  // namespace ftsp::compile
