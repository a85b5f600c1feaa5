#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "sat/solver.hpp"

namespace ftsp::sat {

/// Knobs of the synthesis SAT engine. Embedded in the options of every
/// SAT-backed synthesis routine.
struct EngineOptions {
  /// Encode the query skeleton once and sweep bounds via assumptions
  /// (learned clauses are reused across the sweep). When false, each
  /// bound re-encodes from scratch — the historical single-shot path.
  /// Read by the verification/correction sweeps only; preparation always
  /// re-encodes per gate count.
  bool incremental = true;
  /// Retired no-ops: they sized the deleted solver portfolio. Kept only
  /// because `perfbench/bench.cpp` still assigns them; set them nowhere
  /// else. `fingerprint()` and `make_engine_solver` ignore both.
  std::size_t num_threads = 1;
  std::size_t num_configs = 1;
  /// Consult/populate the process-wide `core::SynthCache`.
  bool use_cache = true;

  /// Canonical engine description for cache keys. Excludes `use_cache`
  /// and the retired fields.
  std::string fingerprint() const;
};

/// Builds the solver every synthesis query runs on, with
/// `conflict_budget` set (0 = unlimited). No field of `engine` changes
/// the solver: `incremental` and `use_cache` are read by the synthesis
/// routines. Every call bumps the process-wide engine-invocation
/// counter below.
std::unique_ptr<Solver> make_engine_solver(const EngineOptions& engine,
                                           std::uint64_t conflict_budget);

/// Process-wide count of `make_engine_solver` calls since the last reset.
/// All SAT-backed synthesis routes through that factory, so this counter
/// is the "did anything actually hit the solver?" probe: a warm
/// cache/artifact path must leave it untouched (asserted in the artifact
/// round-trip tests). Thread-safe.
std::uint64_t engine_solver_invocations();
void reset_engine_solver_invocations();

}  // namespace ftsp::sat
