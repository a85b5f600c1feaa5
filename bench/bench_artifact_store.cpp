// Warm-load vs re-synthesis: the end-to-end cost of obtaining a servable
// protocol (executor + decoder ready to sample) from (a) a cold SAT
// synthesis and (b) a precompiled artifact loaded from an ArtifactStore.
// This is the acceptance benchmark of the compile/store/serve split —
// the warm path must be >= 20x faster end to end and bit-identical.
//
// Plain chrono main (no Google Benchmark dependency), JSON-per-code
// output consumed by the CI bench-smoke job:
//   bench_artifact_store [--smoke] [--all] [--shots N]
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/executor.hpp"
#include "core/samplers.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"
#include "sat/engine.hpp"

namespace {

using namespace ftsp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

bool identical(const core::TrajectoryBatch& a,
               const core::TrajectoryBatch& b) {
  if (a.trajectories.size() != b.trajectories.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& ta = a.trajectories[i];
    const auto& tb = b.trajectories[i];
    if (ta.x_fail != tb.x_fail || ta.z_fail != tb.z_fail ||
        ta.faults != tb.faults || ta.hook_terminated != tb.hook_terminated) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  std::size_t shots = 4096;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      shots = 1024;
    } else if (std::strcmp(argv[i], "--shots") == 0 && i + 1 < argc) {
      shots = static_cast<std::size_t>(std::stoul(argv[++i]));
    }
  }

  std::vector<std::string> names = {"Steane", "Shor", "Surface_3",
                                    "[[11,1,3]]"};
  if (all) {
    names.clear();
    for (const auto& code : qec::all_library_codes()) {
      names.push_back(code.name());
    }
  }

  // Pid-suffixed so concurrent invocations (parallel CI jobs on one
  // runner) never clobber each other's stores; removed on every exit
  // path below.
  const auto store_dir =
      std::filesystem::temp_directory_path() /
      ("ftsp-bench-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(store_dir);
  struct Cleanup {
    std::filesystem::path dir;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{store_dir};

  const compile::ProtocolCompiler compiler;
  double worst_speedup = 1e300;
  std::printf("[\n");
  for (std::size_t c = 0; c < names.size(); ++c) {
    const auto code = qec::library_code_by_name(names[c]);

    // --- Cold path: SAT synthesis + decoder build, nothing cached.
    core::SynthCache::instance().clear();
    core::SynthCache::instance().reset_stats();
    const auto t_synth = Clock::now();
    const auto artifact = compiler.compile(code);
    const core::Executor synth_executor(artifact.protocol);
    const decoder::PerfectDecoder synth_decoder(*artifact.protocol.code);
    const double synth_ms = ms_since(t_synth);
    const std::uint64_t solver_calls = sat::engine_solver_invocations();

    {
      compile::ArtifactStore store(store_dir.string());
      store.put(artifact);
    }

    // --- Warm path: fresh store handle, load + rehydrate, ready to
    // sample. Best of a few repetitions (filesystem-cache steady state —
    // the serving regime).
    double load_ms = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t_load = Clock::now();
      const compile::ArtifactStore store(store_dir.string());
      const auto loaded = store.get(artifact.key);
      const core::Executor executor(loaded->protocol);
      const decoder::PerfectDecoder decoder =
          compile::make_artifact_decoder(*loaded);
      load_ms = std::min(load_ms, ms_since(t_load));
    }

    // --- Bit-identity of the two sampling paths.
    core::SynthCache::instance().reset_stats();
    const compile::ArtifactStore store(store_dir.string());
    const auto loaded = store.get(artifact.key);
    const core::Executor warm_executor(loaded->protocol);
    const decoder::PerfectDecoder warm_decoder =
        compile::make_artifact_decoder(*loaded);
    core::SamplerOptions warm_options;
    warm_options.layout = &loaded->layout;
    const auto t_sample = Clock::now();
    const auto warm_batch = core::sample_protocol_batch(
        warm_executor, warm_decoder, 0.01, shots, 42, warm_options);
    const double sample_ms = ms_since(t_sample);
    const auto cold_batch = core::sample_protocol_batch(
        synth_executor, synth_decoder, 0.01, shots, 42);
    const bool bit_identical = identical(warm_batch, cold_batch);
    const std::uint64_t warm_solver_calls = sat::engine_solver_invocations();

    const double speedup = synth_ms / load_ms;
    worst_speedup = std::min(worst_speedup, speedup);
    std::printf(
        "  {\"code\": \"%s\", \"synth_ms\": %.3f, \"solver_calls\": %llu, "
        "\"load_ms\": %.3f, \"speedup\": %.1f, \"warm_solver_calls\": %llu, "
        "\"sample_ms\": %.3f, \"shots\": %zu, \"bit_identical\": %s}%s\n",
        names[c].c_str(), synth_ms,
        static_cast<unsigned long long>(solver_calls), load_ms, speedup,
        static_cast<unsigned long long>(warm_solver_calls), sample_ms, shots,
        bit_identical ? "true" : "false",
        c + 1 < names.size() ? "," : "");
    if (!bit_identical || warm_solver_calls != 0) {
      std::fprintf(stderr, "FAIL: %s warm path diverged\n", names[c].c_str());
      return 1;
    }
  }
  std::printf("]\n");
  std::fprintf(stderr, "worst warm-load speedup: %.1fx (target >= 20x)\n",
               worst_speedup);
  return worst_speedup >= 20.0 ? 0 : 1;
}
