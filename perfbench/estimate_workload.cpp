// Workload `estimate`: offline logical-error-rate estimation by direct
// library calls on five codes — one 2^20-shot batched sample at
// p = 1e-2 on the run's CPUs and one 7-point stratified rate sweep per
// code per pass. Frame-batch kernels, shard threading and rate-estimator
// waves do the work; no serving and no SAT.

#include <cmath>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "compile/artifact.hpp"
#include "core/executor.hpp"
#include "core/rate_estimator.hpp"
#include "core/samplers.hpp"
#include "obs/registry.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ftsp;

namespace {

constexpr double kP = 1e-2;
constexpr std::size_t kBatchShots = std::size_t{1} << 20;
const std::vector<std::string> kCodes = {"Steane", "[[11,1,3]]", "Carbon",
                                         "Tetrahedral", "Tesseract"};

/// A protocol ready to sample: the artifact plus the decoder and
/// executor rehydrated from it (both reference the artifact, so the
/// three live together on the heap).
struct Loaded {
  compile::ProtocolArtifact artifact;
  decoder::PerfectDecoder decoder;
  core::Executor executor;

  explicit Loaded(compile::ProtocolArtifact a)
      : artifact(std::move(a)),
        decoder(compile::make_artifact_decoder(artifact)),
        executor(artifact.protocol) {}
};

bool same_batch(const core::TrajectoryBatch& a,
                const core::TrajectoryBatch& b) {
  if (a.trajectories.size() != b.trajectories.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& x = a.trajectories[i];
    const auto& y = b.trajectories[i];
    if (x.sites != y.sites || x.faults != y.faults || x.x_fail != y.x_fail ||
        x.z_fail != y.z_fail || x.hook_terminated != y.hook_terminated) {
      return false;
    }
  }
  return true;
}

core::SamplerOptions sampler_options(const Loaded& loaded, std::size_t threads,
                                     core::WordWidth width) {
  core::SamplerOptions options;
  options.num_threads = threads;
  options.layout = &loaded.artifact.layout;
  options.width = width;
  return options;
}

/// Seconds one batch of `shots` takes at `threads` threads and `width`.
double sample_seconds(const Loaded& loaded, std::size_t shots,
                      std::size_t threads, core::WordWidth width,
                      std::uint64_t seed) {
  const auto t0 = Clock::now();
  const auto batch = core::sample_protocol_batch(
      loaded.executor, loaded.decoder, kP, shots, seed,
      sampler_options(loaded, threads, width));
  return seconds_since(t0);
}

/// The sampler oracles, once per run: word widths and thread counts
/// never change sampled bits, and the batched engine samples the same
/// distribution as the one-shot-at-a-time scalar reference.
void check_sampler(Context& ctx, const std::string& label,
                   const Loaded& loaded, std::uint64_t seed) {
  const std::size_t shots = 4096;
  const auto w64 = core::sample_protocol_batch(
      loaded.executor, loaded.decoder, kP, shots, seed,
      sampler_options(loaded, 1, core::WordWidth::W64));
  const auto w256 = core::sample_protocol_batch(
      loaded.executor, loaded.decoder, kP, shots, seed,
      sampler_options(loaded, 1, core::WordWidth::W256));
  ctx.report->check(same_batch(w64, w256),
                    "4096-shot batch identical at 64- and 256-bit words: " +
                        label);

  // At an elevated rate so both engines see failures; 5 sigma apart at
  // most (the engines draw different streams, so equality is in
  // distribution).
  const double q = 0.05;
  const auto scalar = core::sample_protocol_batch_scalar(
      loaded.executor, loaded.decoder, q, shots, seed);
  const auto batched = core::sample_protocol_batch(
      loaded.executor, loaded.decoder, q, shots, seed,
      sampler_options(loaded, 1, core::WordWidth::Auto));
  const auto a = core::estimate_logical_rate({scalar}, q);
  const auto b = core::estimate_logical_rate({batched}, q);
  const double sigma =
      std::sqrt(a.std_error * a.std_error + b.std_error * b.std_error);
  ctx.report->check(std::abs(a.mean - b.mean) <= 5.0 * sigma + 1e-9,
                    "4096-shot batch agrees with the scalar sampler: " +
                        label);

  const std::size_t big = std::size_t{1} << 16;
  const auto one = core::sample_protocol_batch(
      loaded.executor, loaded.decoder, kP, big, seed + 1,
      sampler_options(loaded, 1, core::WordWidth::Auto));
  const auto all = core::sample_protocol_batch(
      loaded.executor, loaded.decoder, kP, big, seed + 1,
      sampler_options(loaded, ctx.nproc, core::WordWidth::Auto));
  ctx.report->check(same_batch(one, all),
                    "batch identical at 1 and nproc threads: " + label);
}

}  // namespace

void run_estimate(Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;

  // The input store: the nine library codes as `compile --all` builds
  // it. Compiled before set-up; the compile workload times this.
  const std::string dir = (fs::path(ctx.work_dir) / "store").string();
  const auto jobs = library_jobs(ctx.seed, ctx.threads);
  const auto artifacts = compile_store(jobs, dir);
  std::map<std::string, std::string> keys;
  for (const auto& artifact : artifacts) {
    keys[artifact.protocol.code->name()] = artifact.key;
  }

  // Set-up: open the store, load the five artifacts and rehydrate
  // their decoders and executors. The run samples with the first
  // set-up's; the later ones, spread over the passes, are only timed.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<Loaded>> fresh;
    const compile::ArtifactStore store(dir);
    for (const auto& name : kCodes) {
      auto artifact = store.get(keys.at(name));
      if (!artifact) {
        throw std::runtime_error("store lost " + name);
      }
      fresh.push_back(std::make_unique<Loaded>(std::move(*artifact)));
    }
    setup_s.push_back(seconds_since(t0));
    return fresh;
  };
  const auto loaded = set_up();

  for (std::size_t i = 0; i < kCodes.size(); ++i) {
    check_sampler(ctx, kCodes[i], *loaded[i], ctx.seed * 7919 + i);
  }

  if (ctx.trace) {
    // Single-thread kernel throughput per word width, thread scaling,
    // and the memory one sampled shot holds.
    const std::size_t shots = std::size_t{1} << 17;
    double w64_s = 0.0;
    double w256_s = 0.0;
    double parallel_s = 0.0;
    for (std::size_t i = 0; i < kCodes.size(); ++i) {
      const Span span(tracer, "core.sampler.width");
      w64_s += sample_seconds(*loaded[i], shots, 1, core::WordWidth::W64,
                              ctx.seed + i);
      w256_s += sample_seconds(*loaded[i], shots, 1, core::WordWidth::W256,
                               ctx.seed + i);
      const AllCpus unpinned;
      parallel_s += sample_seconds(*loaded[i], shots, ctx.nproc,
                                   core::WordWidth::W256, ctx.seed + i);
    }
    const double mshots = static_cast<double>(shots * kCodes.size()) / 1e6;
    report.set("core.sampler.mshots_per_s_w64", mshots / w64_s);
    report.set("core.sampler.mshots_per_s_w256", mshots / w256_s);
    // Measured across every CPU the process started with, not the one
    // the rest of the run is pinned to.
    report.set("core.sampler.thread_scaling", w256_s / parallel_s);

    reset_peak_rss();
    const double base_mb = vm_rss_mb();
    {
      const auto batch = core::sample_protocol_batch(
          loaded[0]->executor, loaded[0]->decoder, kP, kBatchShots, ctx.seed,
          sampler_options(*loaded[0], ctx.threads, core::WordWidth::Auto));
      (void)batch;
    }
    report.set("core.sampler.bytes_per_shot",
               (vm_hwm_mb() - base_mb) * 1024.0 * 1024.0 /
                   static_cast<double>(kBatchShots));
  }

  reset_peak_rss();
  const auto waves_before =
      obs::Registry::instance().counter("rate.wave.count").value();
  std::vector<double> sweep_ms;        // Per pass, summed over codes.
  std::vector<double> traced_pass_s;
  std::vector<double> untraced_pass_s;
  std::map<std::string, std::vector<double>> code_sweep_ms;
  double sample_s = 0.0;
  double sampled = 0.0;
  double mc_shots = 0.0;
  double exhaustive = 0.0;
  const auto grid = core::log_spaced_grid(1e-4, 1e-2, 7);
  const std::string query_line =
      "{\"op\":\"rate\",\"code\":\"Steane\",\"p\":0.001,\"rel_err\":0.1}";
  constexpr std::size_t kQueries = 15;
  std::vector<double> query_ms;
  // The set-ups and cold queries due once `done` seconds have passed.
  const auto spread = [&](double done) {
    while (setup_s.size() < due_reps(done, ctx.seconds, kSetupReps)) {
      (void)set_up();
    }
    while (query_ms.size() < due_reps(done, ctx.seconds, kQueries)) {
      const auto ms = cold_queries(ctx, dir, query_line, 1);
      query_ms.insert(query_ms.end(), ms.begin(), ms.end());
    }
  };
  const auto start = Clock::now();
  int passes = 0;
  for (; passes < 2 || seconds_since(start) < ctx.seconds; ++passes) {
    spread(seconds_since(start));
    const bool traced_pass = ctx.trace && passes % 2 == 1;
    Tracer quiet(false, "");
    Tracer& pass_tracer = traced_pass ? tracer : quiet;
    const auto tp = Clock::now();
    double pass_sweep_ms = 0.0;
    const Span pass_span(pass_tracer, "estimate.pass");
    for (std::size_t i = 0; i < kCodes.size(); ++i) {
      const Loaded& code = *loaded[i];
      const std::uint64_t seed =
          ctx.seed * 1000003 + static_cast<std::uint64_t>(passes) * 31 + i;
      core::Estimate mc;
      {
        const Span span(pass_tracer, "core.sampler.batch");
        const auto t0 = Clock::now();
        const auto batch = core::sample_protocol_batch(
            code.executor, code.decoder, kP, kBatchShots, seed,
            sampler_options(code, ctx.threads, core::WordWidth::Auto));
        sample_s += seconds_since(t0);
        sampled += static_cast<double>(batch.trajectories.size());
        mc = core::estimate_logical_rate({batch}, kP);
      }
      core::RateOptions options;
      options.rel_err = 0.05;
      options.seed = seed;  // One thread: the estimator's default.
      options.layout = &code.artifact.layout;
      std::vector<core::RateEstimate> sweep;
      {
        const Span span(pass_tracer, "core.rate.sweep");
        const auto t0 = Clock::now();
        sweep = core::estimate_logical_error_rate_sweep(
            code.executor, code.decoder, grid, options);
        const double ms = 1e3 * seconds_since(t0);
        pass_sweep_ms += ms;
        code_sweep_ms[sanitize(kCodes[i])].push_back(ms);
      }
      report.count(2, 0, "sample and sweep calls");
      if (!report.check(sweep.size() == grid.size(),
                        "sweep answers every p: " + kCodes[i])) {
        continue;
      }
      // The p = 1e-2 estimate's interval must hold the plain Monte-Carlo
      // estimate of the same code, widened by 5 standard errors of the
      // difference of the two (both estimates are random). The
      // difference measures as a unit normal; a slack of 4 Monte-Carlo
      // errors alone left Carbon 3.5 sigma from a false alarm, so one
      // run in a hundred failed on a correct program.
      const auto& at_p = sweep.back();
      const double slack =
          5.0 * std::sqrt(at_p.std_error * at_p.std_error +
                          mc.std_error * mc.std_error);
      report.check(at_p.ci_low - slack <= mc.mean &&
                       mc.mean <= at_p.ci_high + slack,
                   "rate interval holds the 2^20-shot Monte-Carlo estimate: " +
                       kCodes[i]);
      mc_shots += static_cast<double>(sweep.front().mc_shots);
      exhaustive += static_cast<double>(sweep.front().exhaustive_cases);
    }
    sweep_ms.push_back(pass_sweep_ms);
    (traced_pass ? traced_pass_s : untraced_pass_s)
        .push_back(seconds_since(tp));
  }
  report.set("peak_rss_mb", vm_hwm_mb());
  report.set("p50_ms", median(sweep_ms));
  report.set("tail_ms", quantile(sweep_ms, 1.0));
  report.set("throughput_per_s", sampled / sample_s);

  spread(ctx.seconds);
  report.set("setup_s", median(setup_s));
  report_store_metrics(ctx, dir, artifacts, query_ms);

  if (!ctx.trace) {
    return;
  }
  for (const auto& [label, times] : code_sweep_ms) {
    report.set("core.rate.estimate_ms." + label, median(times));
  }
  const double n = static_cast<double>(passes);
  report.set("core.rate.mc_shots", mc_shots / n);
  report.set("core.rate.exhaustive_cases", exhaustive / n);
  report.set(
      "core.rate.waves",
      static_cast<double>(
          obs::Registry::instance().counter("rate.wave.count").value() -
          waves_before) /
          n);
  report.set("trace.overhead_ratio",
             median(traced_pass_s) / median(untraced_pass_s));
}

}  // namespace perfbench
