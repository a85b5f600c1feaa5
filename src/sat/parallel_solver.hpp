#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sat/solver.hpp"
#include "sat/solver_base.hpp"

namespace ftsp::sat {

struct ParallelSolverOptions {
  /// Worker threads used to race configurations. Affects wall-clock time
  /// only — never the result (see class comment).
  std::size_t num_threads = 1;
  /// Portfolio size: number of diversified solver configurations raced
  /// per query.
  std::size_t num_configs = 4;
  /// Diversification seed; equal seeds give bit-identical results at any
  /// thread count.
  std::uint64_t seed = 1;
  /// Per-configuration conflict budget of round 0; doubles every round.
  std::uint64_t round_conflicts = 4096;
};

/// A deterministic parallel SAT engine racing diversified `Solver`
/// configurations (a portfolio) over a thread pool.
///
/// Determinism contract: for a fixed seed, `solve()` returns the same
/// verdict AND the same model regardless of `num_threads`. This is
/// achieved by budgeted rounds — every configuration gets the same
/// conflict budget per round, the winner is the lowest-index
/// configuration that decides in the earliest deciding round, and the
/// states of all non-winning workers are discarded after each query so no
/// timing-dependent learned clauses survive. First-winner cancellation
/// runs through `Solver::set_interrupt_flag`; an interrupted worker is
/// always discarded, which is what makes cancellation invisible to the
/// result. UNSAT verdicts are configuration-independent by soundness.
///
/// The winning worker keeps its learned clauses, so assumption-based
/// bound sweeps (see `CnfBuilder::make_cardinality_ladder`) stay warm
/// across `solve()` calls in parallel mode too — for the winning
/// configuration only. Losing workers are rebuilt from the clause store
/// before their next use (an O(clauses) replay); that discard is what
/// makes cancellation timing invisible to results, and the replay cost
/// is small next to search.
class ParallelSolver final : public SolverBase {
 public:
  explicit ParallelSolver(const ParallelSolverOptions& options = {});
  ~ParallelSolver() override;
  ParallelSolver(const ParallelSolver&) = delete;
  ParallelSolver& operator=(const ParallelSolver&) = delete;

  using SolverBase::add_clause;
  using SolverBase::model_value;
  using SolverBase::solve;

  Var new_var() override;
  int num_vars() const override { return num_vars_; }
  bool add_clause(std::span<const Lit> lits) override;
  bool solve(std::span<const Lit> assumptions) override;
  bool model_value(Var v) const override;
  bool okay() const override { return ok_; }
  void set_conflict_budget(std::uint64_t budget) override {
    conflict_budget_ = budget;
  }
  SolverStats stats() const override;
  void reset_stats() override;
  std::vector<std::vector<Lit>> problem_clauses() const override;

  /// DRAT proof logging. The winning worker's log is the proof (UNSAT
  /// verdicts are configuration-independent, and the deterministic
  /// referee makes the winner reproducible). Enabling taints live
  /// workers so every premise is recorded from the first clause of the
  /// rebuild.
  void set_proof_logging(bool enable) override;
  bool proof_logging() const override { return proof_logging_; }
  std::optional<UnsatProof> last_unsat_proof() const override {
    return last_proof_;
  }

  const ParallelSolverOptions& options() const { return opts_; }

  /// Index of the configuration that produced the last verdict.
  /// Deterministic for a fixed seed.
  std::size_t last_winner() const { return last_winner_; }

 private:
  struct Worker {
    std::unique_ptr<Solver> solver;
    std::size_t clauses_loaded = 0;
    std::atomic<bool> interrupt{false};
    /// Set when the worker was skipped, interrupted, or lost a race; a
    /// tainted worker is rebuilt from the clause store before reuse so
    /// its state never depends on scheduling.
    bool tainted = false;
  };

  SolverConfig config_for(std::size_t index) const;
  void sync_worker(std::size_t index);

  ParallelSolverOptions opts_;
  int num_vars_ = 0;
  std::vector<std::vector<Lit>> clauses_;
  bool ok_ = true;
  std::vector<bool> model_;
  std::vector<std::unique_ptr<Worker>> workers_;
  SolverStats retired_stats_;  // From discarded workers.
  std::uint64_t conflict_budget_ = 0;
  std::size_t last_winner_ = 0;
  bool proof_logging_ = false;
  std::optional<UnsatProof> last_proof_;
};

/// Knobs selecting and parameterizing the synthesis SAT engine. Embedded
/// in the options of every SAT-backed synthesis routine.
struct EngineOptions {
  /// Encode the query skeleton once and sweep bounds via assumptions
  /// (learned clauses are reused across the sweep). When false, each
  /// bound re-encodes from scratch — the historical single-shot path.
  /// Read by the verification/correction sweeps only; preparation always
  /// re-encodes per gate count.
  bool incremental = true;
  /// Worker threads for the portfolio race; 1 keeps everything on the
  /// calling thread. Never affects results.
  std::size_t num_threads = 1;
  /// Portfolio size; 1 selects the plain sequential `Solver`.
  std::size_t num_configs = 1;
  std::uint64_t seed = 1;
  std::uint64_t round_conflicts = 4096;
  /// Consult/populate the process-wide `core::SynthCache`.
  bool use_cache = true;

  /// Canonical engine description for cache keys. Excludes `num_threads`
  /// (results are thread-count invariant) and `use_cache`.
  std::string fingerprint() const;
};

/// Builds the solver an `EngineOptions` describes: the sequential
/// `Solver` for a single configuration, a `ParallelSolver` otherwise.
/// Every call bumps the process-wide engine-invocation counter below.
std::unique_ptr<SolverBase> make_engine_solver(const EngineOptions& engine,
                                               std::uint64_t conflict_budget);

/// Process-wide count of `make_engine_solver` calls since the last reset.
/// All SAT-backed synthesis routes through that factory, so this counter
/// is the "did anything actually hit the solver?" probe: a warm
/// cache/artifact path must leave it untouched (asserted in the artifact
/// round-trip tests). Thread-safe.
std::uint64_t engine_solver_invocations();
void reset_engine_solver_invocations();

}  // namespace ftsp::sat
