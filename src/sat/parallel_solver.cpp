#include "sat/parallel_solver.hpp"

#include <algorithm>
#include <cassert>

#include "obs/registry.hpp"
#include "util/parallel.hpp"

namespace ftsp::sat {

namespace {

/// Records the deterministic referee's verdict for one portfolio race.
void record_portfolio_winner(std::size_t winner) {
  static obs::Counter& races =
      obs::Registry::instance().counter("sat.portfolio.race.count");
  static obs::Gauge& winner_index =
      obs::Registry::instance().gauge("sat.portfolio.winner.index");
  races.add(1);
  winner_index.set(static_cast<std::int64_t>(winner));
}

void record_portfolio_round() {
  static obs::Counter& rounds =
      obs::Registry::instance().counter("sat.portfolio.round.count");
  rounds.add(1);
}

}  // namespace

ParallelSolver::ParallelSolver(const ParallelSolverOptions& options)
    : opts_(options) {
  opts_.num_threads = std::max<std::size_t>(opts_.num_threads, 1);
  opts_.num_configs = std::max<std::size_t>(opts_.num_configs, 1);
  opts_.round_conflicts = std::max<std::uint64_t>(opts_.round_conflicts, 64);
}

ParallelSolver::~ParallelSolver() = default;

Var ParallelSolver::new_var() { return num_vars_++; }

bool ParallelSolver::add_clause(std::span<const Lit> lits) {
  if (!ok_) {
    return false;
  }
  if (lits.empty()) {
    if (proof_logging_) {
      // The caller added the empty clause itself: the refutation is the
      // premise (which contains it) plus the trivial final step.
      UnsatProof proof;
      proof.premise = clauses_;
      proof.premise.emplace_back();
      proof.drat = "0\n";
      last_proof_ = std::move(proof);
    }
    ok_ = false;
    return false;
  }
  clauses_.emplace_back(lits.begin(), lits.end());
  return true;
}

void ParallelSolver::set_proof_logging(bool enable) {
  if (enable == proof_logging_) {
    return;
  }
  proof_logging_ = enable;
  last_proof_.reset();
  // Live workers recorded their premise (or none) under the old setting;
  // taint them so the next sync replays every clause with the new one.
  for (auto& w : workers_) {
    if (w) {
      w->tainted = true;
    }
  }
}

SolverConfig ParallelSolver::config_for(std::size_t index) const {
  SolverConfig c;
  c.seed = opts_.seed ^ (0x9E3779B97F4A7C15ULL * (index + 1));
  if (index == 0) {
    return c;  // Reference configuration: identical to a plain Solver.
  }
  c.random_branch_freq = 0.005 * static_cast<double>(index % 4);
  c.initial_phase = (index % 2) != 0;
  c.restart_base = std::uint64_t{64} << (index % 3);
  c.var_activity_decay = (index % 3 == 2) ? 0.92 : 0.95;
  return c;
}

void ParallelSolver::sync_worker(std::size_t index) {
  if (workers_.size() <= index) {
    workers_.resize(index + 1);
  }
  if (!workers_[index]) {
    workers_[index] = std::make_unique<Worker>();
  }
  Worker& w = *workers_[index];
  if (!w.solver || w.tainted) {
    if (w.solver) {
      retired_stats_ += w.solver->stats();
    }
    w.solver = std::make_unique<Solver>(config_for(index));
    w.solver->set_interrupt_flag(&w.interrupt);
    // Before the clause replay below, so the premise is verbatim.
    w.solver->set_proof_logging(proof_logging_);
    w.clauses_loaded = 0;
    w.tainted = false;
  }
  while (w.solver->num_vars() < num_vars_) {
    w.solver->new_var();
  }
  for (; w.clauses_loaded < clauses_.size(); ++w.clauses_loaded) {
    w.solver->add_clause(clauses_[w.clauses_loaded]);
  }
  w.interrupt.store(false, std::memory_order_relaxed);
}

bool ParallelSolver::solve(std::span<const Lit> assumptions) {
  model_.clear();
  if (!ok_) {
    // A refutation of the formula alone (captured when ok_ dropped) also
    // refutes it under any assumptions, so last_proof_ stays valid.
    return false;
  }
  if (proof_logging_) {
    last_proof_.reset();
  }

  const std::size_t configs = opts_.num_configs;
  for (std::size_t i = 0; i < configs; ++i) {
    sync_worker(i);
  }

  // Single configuration: no race to referee, run inline and unlimited.
  if (configs == 1) {
    Worker& w = *workers_[0];
    const LBool r = w.solver->solve_limited(assumptions, conflict_budget_);
    if (r == LBool::Undef) {
      throw SolveInterrupted{};
    }
    last_winner_ = 0;
    record_portfolio_winner(0);
    const bool sat = (r == LBool::True);
    if (sat) {
      model_.resize(static_cast<std::size_t>(num_vars_));
      for (Var v = 0; v < num_vars_; ++v) {
        model_[static_cast<std::size_t>(v)] = w.solver->model_value(v);
      }
    } else {
      if (proof_logging_) {
        last_proof_ = w.solver->last_unsat_proof();
      }
      if (assumptions.empty()) {
        ok_ = false;
      }
    }
    return sat;
  }

  std::uint64_t round_budget = opts_.round_conflicts;
  std::uint64_t spent = 0;

  for (;;) {
    if (conflict_budget_ != 0 && spent >= conflict_budget_) {
      throw SolveInterrupted{};
    }
    // The budget caps each configuration's cumulative conflicts (matching
    // the sequential solver's per-call semantics), so the final round is
    // clamped to the remainder instead of overshooting by a full round.
    const std::uint64_t effective_budget =
        conflict_budget_ != 0
            ? std::min(round_budget, conflict_budget_ - spent)
            : round_budget;

    std::vector<LBool> results(configs, LBool::Undef);
    // Lowest configuration index with a verdict: every higher index is
    // irrelevant to the referee.
    std::atomic<std::size_t> cancel_above{configs};

    const auto run_config = [&](std::size_t i) {
      Worker& w = *workers_[i];
      if (i > cancel_above.load(std::memory_order_acquire)) {
        w.tainted = true;  // Skipped: state would be schedule-dependent.
        return;
      }
      const LBool r = w.solver->solve_limited(assumptions, effective_budget);
      if (w.interrupt.load(std::memory_order_relaxed)) {
        w.tainted = true;  // Cancelled mid-run; discard partial state.
        return;
      }
      results[i] = r;
      if (r != LBool::Undef) {
        std::size_t expected = cancel_above.load();
        while (i < expected &&
               !cancel_above.compare_exchange_weak(expected, i)) {
        }
        for (std::size_t j = i + 1; j < configs; ++j) {
          workers_[j]->interrupt.store(true, std::memory_order_relaxed);
        }
      }
    };

    record_portfolio_round();
    util::run_indexed_parallel(configs, opts_.num_threads, run_config);

    // Referee: the lowest index with any verdict wins (an UNSAT verdict
    // is configuration-independent).
    std::size_t winner = configs;
    for (std::size_t i = 0; i < configs; ++i) {
      if (results[i] != LBool::Undef) {
        winner = i;
        break;
      }
    }

    if (winner != configs) {
      last_winner_ = winner;
      record_portfolio_winner(winner);
      const bool sat = results[winner] == LBool::True;
      if (sat) {
        const Solver& s = *workers_[winner]->solver;
        model_.resize(static_cast<std::size_t>(num_vars_));
        for (Var v = 0; v < num_vars_; ++v) {
          model_[static_cast<std::size_t>(v)] = s.model_value(v);
        }
      } else {
        if (proof_logging_) {
          last_proof_ = workers_[winner]->solver->last_unsat_proof();
        }
        if (assumptions.empty()) {
          ok_ = false;
        }
      }
      for (std::size_t i = 0; i < configs; ++i) {
        if (i != winner) {
          workers_[i]->tainted = true;
        }
      }
      return sat;
    }

    spent += effective_budget;
    round_budget *= 2;
  }
}

bool ParallelSolver::model_value(Var v) const {
  assert(!model_.empty());
  return model_[static_cast<std::size_t>(v)];
}

SolverStats ParallelSolver::stats() const {
  SolverStats total = retired_stats_;
  for (const auto& w : workers_) {
    if (w && w->solver) {
      total += w->solver->stats();
    }
  }
  return total;
}

void ParallelSolver::reset_stats() {
  retired_stats_ = SolverStats{};
  for (auto& w : workers_) {
    if (w && w->solver) {
      w->solver->reset_stats();
    }
  }
}

std::vector<std::vector<Lit>> ParallelSolver::problem_clauses() const {
  return clauses_;
}

std::string EngineOptions::fingerprint() const {
  std::string f = "inc=";
  f += incremental ? '1' : '0';
  f += ",cfg=" + std::to_string(num_configs);
  // Retired field kept verbatim: store and satcache keys embed it.
  f += ",cube=0";
  // The sequential solver ignores the racing knobs; leaving them out of
  // the fingerprint lets configurations that compute identical results
  // share cache entries.
  if (num_configs > 1) {
    f += ",seed=" + std::to_string(seed);
    f += ",rc=" + std::to_string(round_conflicts);
  }
  return f;
}

namespace {
std::atomic<std::uint64_t> g_engine_invocations{0};
}  // namespace

std::uint64_t engine_solver_invocations() {
  return g_engine_invocations.load(std::memory_order_relaxed);
}

void reset_engine_solver_invocations() {
  g_engine_invocations.store(0, std::memory_order_relaxed);
}

std::unique_ptr<SolverBase> make_engine_solver(
    const EngineOptions& engine, std::uint64_t conflict_budget) {
  g_engine_invocations.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<SolverBase> solver;
  if (engine.num_configs <= 1) {
    solver = std::make_unique<Solver>();
  } else {
    ParallelSolverOptions options;
    options.num_threads = engine.num_threads;
    options.num_configs = engine.num_configs;
    options.seed = engine.seed;
    options.round_conflicts = engine.round_conflicts;
    solver = std::make_unique<ParallelSolver>(options);
  }
  solver->set_conflict_budget(conflict_budget);
  return solver;
}

}  // namespace ftsp::sat
