// Workload `compile`: cold compiles of the nine library codes with
// `ftsp_cli compile --all` settings plus two SAT-optimal device
// compiles, each written into a fresh store, then cold-process queries
// against that store. The SAT solver, synthesis, proof capture and the
// store do the work; serving and sampling stay idle.

#include <filesystem>
#include <random>

#include "bench.hpp"
#include "compile/service.hpp"
#include "core/ft_check.hpp"
#include "core/synth_cache.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ftsp;

namespace {

/// Counter and histogram-sum deltas of the obs registry between two
/// snapshots, by series name.
std::map<std::string, double> registry_values() {
  std::map<std::string, double> values;
  const auto snapshot = obs::Registry::instance().snapshot();
  for (const auto& row : snapshot.counters) {
    values[row.name] = static_cast<double>(row.value);
  }
  for (const auto& row : snapshot.histograms) {
    values[row.name] = static_cast<double>(row.sum_us);
  }
  return values;
}

double delta(const std::map<std::string, double>& after,
             const std::map<std::string, double>& before,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

std::string stage_series(const std::string& stage) {
  return obs::labeled("compile.stage.duration_us", "stage", stage);
}

/// Per-pass layer totals of a traced run, summed over passes.
struct LayerTotals {
  std::map<std::string, double> values;
  void add(const std::string& name, double value) { values[name] += value; }
};

/// The oracles of one pass, plus (traced) the direct calls into the
/// layers the pass used. Runs after the timed compile.
void check_pass(Context& ctx, const std::vector<CompileJob>& jobs,
                const std::vector<compile::ProtocolArtifact>& artifacts,
                const std::string& dir, LayerTotals& layers) {
  Tracer& tracer = *ctx.tracer;
  for (const auto& artifact : artifacts) {
    const auto t0 = Clock::now();
    core::FtCheckResult ft;
    {
      const Span span(tracer, "core.ft_check");
      ft = core::check_fault_tolerance(artifact.protocol);
    }
    // The oracle's own time: reported, never part of a pass's time.
    layers.add("core.ft_check_ms", 1e3 * seconds_since(t0));
    ctx.report->check(ft.ok, "check_fault_tolerance: " + artifact.key);

    auto t1 = Clock::now();
    std::string bytes;
    {
      const Span span(tracer, "compile.encode");
      bytes = compile::encode_artifact(artifact);
    }
    layers.add("compile.encode_us", 1e6 * seconds_since(t1));
    t1 = Clock::now();
    compile::ProtocolArtifact decoded;
    {
      const Span span(tracer, "compile.decode");
      decoded = compile::decode_artifact(bytes);
    }
    layers.add("compile.decode_us", 1e6 * seconds_since(t1));
    ctx.report->check(compile::encode_artifact(decoded) == bytes,
                      "decode(encode(a)) re-encodes identically: " +
                          artifact.key);
    if (ctx.trace) {
      const auto t2 = Clock::now();
      {
        const Span span(tracer, "decoder.rehydrate");
        const auto decoder = compile::make_artifact_decoder(artifact);
        (void)decoder;
      }
      layers.add("decoder.rehydrate_us", 1e6 * seconds_since(t2));
    }
  }

  // The warm path: every artifact back from disk and loaded for
  // serving, with zero solver calls.
  auto& cache = core::SynthCache::instance();
  cache.reset_stats();
  {
    const auto t0 = Clock::now();
    const compile::ArtifactStore store(dir);
    std::size_t found = 0;
    {
      const Span span(tracer, "compile.store_get");
      for (const auto& artifact : artifacts) {
        found += store.get(artifact.key).has_value() ? 1 : 0;
      }
    }
    layers.add("compile.store_get_ms", 1e3 * seconds_since(t0));
    ctx.report->check(found == artifacts.size(),
                      "every compiled artifact is back from the store");
    const auto t1 = Clock::now();
    compile::ArtifactStore reopened(dir);
    compile::ProtocolService service;
    std::size_t loaded = 0;
    {
      const Span span(tracer, "compile.load_store");
      loaded = service.load_store(reopened);
    }
    layers.add("compile.load_store_ms", 1e3 * seconds_since(t1));
    ctx.report->check(loaded == jobs.size(),
                      "load_store serves every compiled protocol");
  }
  ctx.report->check(cache.solver_invocations() == 0,
                    "warm get/load path makes zero solver calls");

  if (!ctx.trace) {
    return;
  }
  // Direct calls into the synthesis layers the compile ran through.
  for (const auto& job : jobs) {
    if (!job.options.coupling.is_all_to_all()) {
      continue;
    }
    auto t0 = Clock::now();
    std::unique_ptr<qec::StateContext> state;
    {
      const Span span(tracer, "qec.state_context");
      state = std::make_unique<qec::StateContext>(job.code,
                                                  qec::LogicalBasis::Zero);
    }
    layers.add("qec.state_context_us", 1e6 * seconds_since(t0));
    t0 = Clock::now();
    {
      const Span span(tracer, "core.prep");
      const auto prep = core::synthesize_prep(*state, job.options.prep);
      (void)prep;
    }
    layers.add("core.prep_ms", 1e3 * seconds_since(t0));
  }
  for (const auto& job : jobs) {
    if (job.options.coupling.is_all_to_all()) {
      continue;
    }
    core::SynthCache::instance().clear();
    const qec::StateContext state(job.code, qec::LogicalBasis::Zero);
    core::PrepSynthOptions prep = job.options.prep;
    prep.coupling = job.options.coupling.resolve(job.code.num_qubits());
    const auto t0 = Clock::now();
    std::optional<circuit::Circuit> circuit;
    {
      const Span span(tracer, "core.prep_optimal");
      circuit = core::synthesize_prep_optimal(state, prep);
    }
    layers.add("core.prep_optimal_ms", 1e3 * seconds_since(t0));
    ctx.report->check(circuit.has_value(),
                      "SAT-optimal device preparation found: " + job.label);
  }
}

}  // namespace

void run_compile(Context& ctx) {
  Tracer& tracer = *ctx.tracer;
  Report& report = *ctx.report;
  std::mt19937_64 rng(ctx.seed);

  // Set-up: what a compile process does before its first synthesis —
  // build the code library and open (create) its store. The passes
  // compile the first set-up's jobs; the later set-ups, spread over the
  // passes, are only timed.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto fresh = library_jobs(ctx.seed, ctx.threads);
    for (auto& job : device_jobs()) {
      fresh.push_back(std::move(job));
    }
    for (const auto& job : fresh) {
      const compile::ProtocolCompiler compiler(job.options);
      (void)compile::artifact_key(job.code, qec::LogicalBasis::Zero,
                                  compiler.options());
    }
    const compile::ArtifactStore store(
        (fs::path(ctx.work_dir) / ("setup-" + std::to_string(setup_s.size())))
            .string());
    store.attach_synth_cache();
    compile::ArtifactStore::detach_synth_cache();
    setup_s.push_back(seconds_since(t0));
    return fresh;
  };
  const auto jobs = set_up();
  const auto spread_setups = [&](double done) {
    while (setup_s.size() < due_reps(done, ctx.seconds, kSetupReps)) {
      (void)set_up();
    }
  };

  reset_peak_rss();
  std::vector<double> pass_s;
  std::vector<double> traced_pass_s;
  std::vector<double> query_ms;
  std::map<std::string, std::vector<double>> code_ms;
  LayerTotals layers;
  std::vector<compile::ProtocolArtifact> artifacts;
  std::string last_dir;
  const auto start = Clock::now();
  for (int pass = 0; pass < 3 || seconds_since(start) < ctx.seconds; ++pass) {
    spread_setups(seconds_since(start));
    const std::string dir =
        (fs::path(ctx.work_dir) / ("pass-" + std::to_string(pass))).string();
    // Traced runs alternate untraced and traced passes so the tracing
    // overhead is measured on the same machine state.
    const bool traced_pass = ctx.trace && pass % 2 == 1;
    Tracer quiet(false, "");
    Tracer& pass_tracer = traced_pass ? tracer : quiet;
    artifacts.clear();

    const auto before = registry_values();
    auto& cache = core::SynthCache::instance();
    const auto t0 = Clock::now();
    {
      const Span pass_span(pass_tracer, "compile.pass");
      compile::ArtifactStore store(dir);
      cache.clear();
      cache.reset_stats();
      store.attach_synth_cache();
      for (const auto& job : jobs) {
        const auto tj = Clock::now();
        {
          const Span span(pass_tracer, "compile.code." + sanitize(job.label));
          {
            const Span compile_span(pass_tracer, "compile.protocol");
            artifacts.push_back(compile::ProtocolCompiler(job.options)
                                    .compile(job.code,
                                             qec::LogicalBasis::Zero));
          }
          // Synthesis is what the provenance times; the rest of the
          // compile call is packaging: decoder tables plus layout.
          const double synth_s = artifacts.back().provenance.wall_seconds;
          layers.add("core.protocol_ms", 1e3 * synth_s);
          layers.add("compile.package_ms", 1e3 * (seconds_since(tj) - synth_s));
          const auto tp = Clock::now();
          {
            const Span put_span(pass_tracer, "compile.store_put");
            store.put(artifacts.back());
          }
          layers.add("compile.store_put_ms", 1e3 * seconds_since(tp));
        }
        code_ms[sanitize(job.label)].push_back(1e3 * seconds_since(tj));
      }
      compile::ArtifactStore::detach_synth_cache();
    }
    const double elapsed = seconds_since(t0);
    (traced_pass ? traced_pass_s : pass_s).push_back(elapsed);
    const auto after = registry_values();
    layers.add("sat.solver_invocations",
               static_cast<double>(cache.solver_invocations()));
    const double lookups =
        static_cast<double>(cache.hits() + cache.misses());
    layers.add("core.synthcache.hit_ratio",
               lookups > 0 ? static_cast<double>(cache.hits()) / lookups
                           : 0.0);
    for (const auto& [layer, series] :
         std::vector<std::pair<std::string, std::string>>{
             {"sat.solve_count", "sat.solve.count"},
             {"sat.conflict_count", "sat.conflict.count"},
             {"sat.propagation_count", "sat.propagation.count"},
             {"sat.proof_bytes", "sat.proof.bytes"}}) {
      layers.add(layer, delta(after, before, series));
    }
    layers.add("core.stage.prep_ms",
               delta(after, before, stage_series("prep")) / 1e3);
    layers.add("core.stage.verif_ms",
               (delta(after, before, stage_series("verif.L1")) +
                delta(after, before, stage_series("verif.L2"))) /
                   1e3);
    layers.add("core.stage.corr_ms",
               (delta(after, before, stage_series("corr.L1")) +
                delta(after, before, stage_series("corr.L2"))) /
                   1e3);
    layers.add("decoder.build_us",
               delta(after, before, stage_series("decoder_tables")) /
                   static_cast<double>(jobs.size()));
    report.count(jobs.size(), 0, "protocols compiled");

    check_pass(ctx, jobs, artifacts, dir, layers);
    std::uniform_int_distribution<std::size_t> pick(0, jobs.size() - 1);
    const std::string line =
        "{\"op\":\"info\",\"code\":\"" + jobs[pick(rng)].label + "\"}";
    for (const double ms : cold_queries(ctx, dir, line, 5)) {
      query_ms.push_back(ms);
    }
    if (!last_dir.empty()) {
      fs::remove_all(last_dir);
    }
    last_dir = dir;
  }
  const double peak_mb = vm_hwm_mb();
  const double passes = static_cast<double>(pass_s.size() +
                                            traced_pass_s.size());

  std::vector<double> all_pass_s = pass_s;
  all_pass_s.insert(all_pass_s.end(), traced_pass_s.begin(),
                    traced_pass_s.end());
  spread_setups(ctx.seconds);
  report.set("setup_s", median(setup_s));
  report.set("peak_rss_mb", peak_mb);
  report.set("p50_ms", 1e3 * median(pass_s));
  report.set("tail_ms", 1e3 * quantile(pass_s, 1.0));
  report.set("throughput_per_s",
             static_cast<double>(jobs.size()) * passes / sum(all_pass_s));
  report_store_metrics(ctx, last_dir, artifacts, query_ms);

  if (!ctx.trace) {
    return;
  }
  for (const auto& [name, value] : layers.values) {
    report.set(name, value / passes);
  }
  for (const auto& [label, times] : code_ms) {
    report.set("compile.code_ms." + label, median(times));
  }
  report.set("sat.propagations_per_s",
             layers.values["sat.propagation_count"] / sum(all_pass_s));
  report.set("trace.overhead_ratio",
             median(traced_pass_s) / median(pass_s));
}

}  // namespace perfbench
