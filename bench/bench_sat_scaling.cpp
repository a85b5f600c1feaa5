// Ablation B: cost of the SAT synthesis itself (google-benchmark timings)
// — verification synthesis, correction synthesis and full protocol
// assembly per code, plus raw solver throughput on the embedded queries.
// The paper notes SAT methods provide optimality but "exhibit poor
// scalability"; this bench quantifies where the time goes.
//
// The BM_DepthSweep* family compares the synthesis engines on the
// depth/weight-bound sweep workload (the (u, v) optimum search):
//   SeedPath     — from-scratch re-encode per bound, sequential solver
//                  (the historical single-shot path).
//   Incremental  — skeleton encoded once, bounds swept via assumptions.
//   Cached       — incremental + synthesis cache, modeling repeated
//                  code-library / code_search runs (all iterations after
//                  the first are cache hits).
#include <benchmark/benchmark.h>

#include "core/protocol.hpp"
#include "core/synth_cache.hpp"
#include "core/verification.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"

namespace {

using namespace ftsp;

const char* kCodes[] = {"Steane", "Shor", "Surface_3", "[[11,1,3]]",
                        "Tetrahedral", "Hamming", "Carbon", "[[16,2,4]]",
                        "Tesseract"};

struct SweepInstance {
  f2::BitMatrix generators;
  std::vector<f2::BitVec> errors;
  std::string label;
};

SweepInstance sweep_instance(std::size_t code_index) {
  const auto code = qec::library_code_by_name(kCodes[code_index]);
  const qec::StateContext ctx(code, qec::LogicalBasis::Zero);
  const auto prep = core::synthesize_prep(ctx);
  const auto events =
      core::enumerate_single_fault_events(code.num_qubits(), {&prep});
  auto dangerous = core::dangerous_errors(ctx, qec::PauliType::X, events);
  return {ctx.detector_generators(qec::PauliType::X), std::move(dangerous),
          code.name()};
}

void run_depth_sweep(benchmark::State& state,
                     const core::VerificationSynthOptions& options) {
  const auto inst = sweep_instance(static_cast<std::size_t>(state.range(0)));
  if (inst.errors.empty()) {
    state.SkipWithError("no dangerous errors");
    return;
  }
  std::uint64_t conflicts = 0;
  for (auto _ : state) {
    sat::SweepTelemetry telemetry;
    auto per_iter = options;
    per_iter.telemetry = &telemetry;
    auto set = core::synthesize_verification(inst.generators, inst.errors,
                                             per_iter);
    benchmark::DoNotOptimize(set);
    conflicts += telemetry.total_conflicts();
  }
  state.counters["conflicts"] =
      benchmark::Counter(static_cast<double>(conflicts),
                         benchmark::Counter::kAvgIterations);
  state.SetLabel(inst.label);
}

void BM_DepthSweepSeedPath(benchmark::State& state) {
  core::VerificationSynthOptions options;
  options.engine.incremental = false;
  options.engine.use_cache = false;
  run_depth_sweep(state, options);
}
BENCHMARK(BM_DepthSweepSeedPath)
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_DepthSweepIncremental(benchmark::State& state) {
  core::VerificationSynthOptions options;
  options.engine.incremental = true;
  options.engine.use_cache = false;
  run_depth_sweep(state, options);
}
BENCHMARK(BM_DepthSweepIncremental)
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_DepthSweepCached(benchmark::State& state) {
  core::SynthCache::instance().clear();
  core::VerificationSynthOptions options;
  options.engine.incremental = true;
  options.engine.use_cache = true;
  run_depth_sweep(state, options);
}
BENCHMARK(BM_DepthSweepCached)
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(8);

void BM_VerificationSynthesis(benchmark::State& state) {
  const auto code = qec::library_code_by_name(
      kCodes[static_cast<std::size_t>(state.range(0))]);
  const qec::StateContext ctx(code, qec::LogicalBasis::Zero);
  const auto prep = core::synthesize_prep(ctx);
  const auto events =
      core::enumerate_single_fault_events(code.num_qubits(), {&prep});
  const auto dangerous =
      core::dangerous_errors(ctx, qec::PauliType::X, events);
  // Cache disabled so every iteration measures synthesis, not a memo hit
  // (other benchmarks in this process populate the cache).
  core::VerificationSynthOptions options;
  options.engine.use_cache = false;
  for (auto _ : state) {
    auto set = core::synthesize_verification(
        ctx.detector_generators(qec::PauliType::X), dangerous, options);
    benchmark::DoNotOptimize(set);
  }
  state.SetLabel(code.name() + " (" + std::to_string(dangerous.size()) +
                 " dangerous errors)");
}
BENCHMARK(BM_VerificationSynthesis)
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_FullProtocolSynthesis(benchmark::State& state) {
  const auto code = qec::library_code_by_name(
      kCodes[static_cast<std::size_t>(state.range(0))]);
  core::SynthesisOptions options;
  options.prep.engine.use_cache = false;
  options.verification.engine.use_cache = false;
  options.correction.engine.use_cache = false;
  for (auto _ : state) {
    auto protocol =
        core::synthesize_protocol(code, qec::LogicalBasis::Zero, options);
    benchmark::DoNotOptimize(protocol);
  }
  state.SetLabel(code.name());
}
BENCHMARK(BM_FullProtocolSynthesis)
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_FaultEnumeration(benchmark::State& state) {
  const auto code = qec::library_code_by_name(
      kCodes[static_cast<std::size_t>(state.range(0))]);
  const qec::StateContext ctx(code, qec::LogicalBasis::Zero);
  const auto prep = core::synthesize_prep(ctx);
  for (auto _ : state) {
    auto events =
        core::enumerate_single_fault_events(code.num_qubits(), {&prep});
    benchmark::DoNotOptimize(events);
  }
  state.SetLabel(code.name());
}
BENCHMARK(BM_FaultEnumeration)
    ->DenseRange(0, 8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace

BENCHMARK_MAIN();
