// Proof-logging overhead: the end-to-end cost of a protocol compile with
// DRAT capture on vs off. This is the acceptance benchmark of the
// proof-carrying-compile claim: logging enabled must stay within 25% of
// the baseline compile, and logging *disabled* must be a true no-op —
// same search, same stats, bit-identical artifact bytes. Every present
// proof must also carry a passing compile-time check.
//
// The gate is the median over paired reps of the on/off compile-time
// ratio, with the run order alternating per rep; compile_off_ms and
// compile_on_ms report each side's median.
//
// Plain chrono main (no Google Benchmark dependency), JSON-per-code
// output consumed by the CI bench-smoke job:
//   bench_proof_overhead [--smoke] [--all] [--reps N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compile/artifact.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"

namespace {

using namespace ftsp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Cold compile (cache cleared first, so every SAT query really runs).
compile::ProtocolArtifact cold_compile(const qec::CssCode& code,
                                       bool capture, double* out_ms) {
  core::SynthCache::instance().clear();
  core::SynthCache::instance().reset_stats();
  core::SynthesisOptions options;
  options.capture_proofs = capture;
  const compile::ProtocolCompiler compiler(options);
  const auto start = Clock::now();
  auto artifact = compiler.compile(code);
  *out_ms = ms_since(start);
  return artifact;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

/// Strips the fields that legitimately differ between two compiles of
/// the same inputs (timing, timestamp) and the proof payload itself, so
/// the remaining container bytes must match exactly when proof capture
/// did not perturb the search.
std::string comparable_bytes(compile::ProtocolArtifact artifact) {
  artifact.provenance.wall_seconds = 0.0;
  artifact.provenance.compiled_at_unix = 0;
  artifact.proofs.clear();
  return compile::encode_artifact(artifact);
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  int reps = 9;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      reps = 7;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    }
  }

  std::vector<std::string> names = {"Steane", "Shor", "Surface_3"};
  if (all) {
    names.clear();
    for (const auto& code : qec::all_library_codes()) {
      names.push_back(code.name());
    }
  }

  double worst_ratio = 0.0;
  bool identical = true;
  std::size_t unchecked = 0;
  std::printf("[\n");
  for (std::size_t c = 0; c < names.size(); ++c) {
    const auto code = qec::library_code_by_name(names[c]);

    // Paired reps, alternating which side runs first so drift in machine
    // load hits both sides alike; the gate reads the median of the
    // per-rep on/off ratios, which one noisy rep cannot move.
    std::vector<double> off_times;
    std::vector<double> on_times;
    std::vector<double> ratios;
    compile::ProtocolArtifact off_artifact;
    compile::ProtocolArtifact on_artifact;
    for (int rep = 0; rep < reps; ++rep) {
      double off = 0.0;
      double on = 0.0;
      if (rep % 2 == 0) {
        off_artifact = cold_compile(code, /*capture=*/false, &off);
        on_artifact = cold_compile(code, /*capture=*/true, &on);
      } else {
        on_artifact = cold_compile(code, /*capture=*/true, &on);
        off_artifact = cold_compile(code, /*capture=*/false, &off);
      }
      off_times.push_back(off);
      on_times.push_back(on);
      ratios.push_back(on / off);
    }
    const double off_ms = median(off_times);
    const double on_ms = median(on_times);

    // The 0%-when-disabled claim, checked at full strength: proof
    // capture must not change the search. Same key, same solver-call
    // count, and — after dropping timing/timestamp/proof payload —
    // bit-identical container bytes.
    const bool same_key = off_artifact.key == on_artifact.key;
    const bool same_calls = off_artifact.provenance.solver_invocations ==
                            on_artifact.provenance.solver_invocations;
    const bool same_bytes =
        comparable_bytes(off_artifact) == comparable_bytes(on_artifact);
    const bool code_identical = same_key && same_calls && same_bytes;
    identical = identical && code_identical;

    std::size_t proofs_present = 0;
    for (const auto& proof : on_artifact.proofs) {
      proofs_present += proof.present ? 1 : 0;
      if (proof.present && !proof.checked) {
        ++unchecked;
        std::fprintf(stderr, "FAIL: %s proof [%s] failed its check\n",
                     names[c].c_str(), proof.stage.c_str());
      }
    }

    const double ratio = median(ratios);
    worst_ratio = std::max(worst_ratio, ratio);
    std::printf(
        "  {\"code\": \"%s\", \"compile_off_ms\": %.3f, "
        "\"compile_on_ms\": %.3f, \"overhead_ratio\": %.3f, "
        "\"proofs_present\": %zu, \"proof_entries\": %zu, "
        "\"bit_identical_when_off\": %s}%s\n",
        names[c].c_str(), off_ms, on_ms, ratio, proofs_present,
        on_artifact.proofs.size(), code_identical ? "true" : "false",
        c + 1 < names.size() ? "," : "");
    if (!code_identical) {
      std::fprintf(stderr,
                   "FAIL: %s proof capture perturbed the compile "
                   "(key %s, solver calls %s, bytes %s)\n",
                   names[c].c_str(), same_key ? "ok" : "DIFFERS",
                   same_calls ? "ok" : "DIFFER",
                   same_bytes ? "ok" : "DIFFER");
    }
  }
  std::printf("]\n");
  std::fprintf(stderr,
               "worst proof-logging overhead: %.2fx (target <= 1.25x)\n",
               worst_ratio);
  if (!identical || unchecked > 0) {
    return 1;
  }
  return worst_ratio <= 1.25 ? 0 : 1;
}
