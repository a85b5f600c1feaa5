// The SAT engine entry point (`sat/engine.hpp`) and the `Solver` surface
// the synthesis stages lean on per call: stats deltas, resumable
// conflict budgets and the problem-clause export. `EngineOptions`'
// fingerprint bytes are pinned here because store and satcache keys
// embed them.
#include "sat/engine.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

namespace ftsp::sat {
namespace {

void add_pigeonhole(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> p(static_cast<std::size_t>(pigeons));
  for (auto& row : p) {
    for (int h = 0; h < holes; ++h) {
      row.push_back(s.new_var());
    }
  }
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) {
      clause.push_back(pos(p[static_cast<std::size_t>(i)]
                            [static_cast<std::size_t>(h)]));
    }
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_binary(neg(p[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(h)]),
                     neg(p[static_cast<std::size_t>(j)]
                          [static_cast<std::size_t>(h)]));
      }
    }
  }
}

TEST(SolverStatsOps, ResetAndDeltas) {
  Solver solver;
  add_pigeonhole(solver, 4, 4);  // Satisfiable: one pigeon per hole.
  ASSERT_TRUE(solver.solve());
  const SolverStats first = solver.stats();
  EXPECT_GT(first.decisions, 0u);
  solver.reset_stats();
  EXPECT_EQ(solver.stats().decisions, 0u);
  EXPECT_EQ(solver.stats().conflicts, 0u);
  // Deltas across a second solve are attributable to it alone.
  ASSERT_TRUE(solver.solve());
  const SolverStats second = solver.stats();
  const SolverStats sum = first + second;
  EXPECT_EQ(sum.decisions, first.decisions + second.decisions);
  const SolverStats diff = sum - first;
  EXPECT_EQ(diff.decisions, second.decisions);
}

TEST(SolverLimited, ReturnsUndefOnTinyBudgetAndResumesWarm) {
  Solver solver;
  add_pigeonhole(solver, 8, 7);
  EXPECT_EQ(solver.solve_limited({}, 5), LBool::Undef);
  // Resumable: enough budget eventually refutes it.
  LBool result = LBool::Undef;
  for (int round = 0; round < 64 && result == LBool::Undef; ++round) {
    result = solver.solve_limited({}, 2000);
  }
  EXPECT_EQ(result, LBool::False);
}

TEST(SolverExport, ProblemClausesRoundTrip) {
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const Var c = solver.new_var();
  // Ternary first: a later unit would simplify it away at level 0.
  solver.add_ternary(neg(a), pos(b), pos(c));
  solver.add_unit(pos(a));
  const auto clauses = solver.problem_clauses();
  // The unit appears (as a level-0 trail entry) and the ternary survives.
  bool has_unit = false;
  bool has_ternary = false;
  for (const auto& clause : clauses) {
    has_unit = has_unit || (clause.size() == 1 && clause[0] == pos(a));
    has_ternary = has_ternary || clause.size() == 3;
  }
  EXPECT_TRUE(has_unit);
  EXPECT_TRUE(has_ternary);
  // Loading the export into a fresh solver preserves satisfiability.
  CnfFormula f;
  f.num_vars = solver.num_vars();
  f.clauses = clauses;
  Solver fresh;
  f.load_into(fresh);
  EXPECT_TRUE(fresh.solve());
  EXPECT_TRUE(fresh.model_value(a));
}

/// `EngineOptions::fingerprint()` is embedded in persisted store and
/// satcache keys, so its bytes are pinned. The retired portfolio fields
/// change neither the fingerprint nor the solver `make_engine_solver`
/// builds.
TEST(EngineOptions, FingerprintBytesArePinned) {
  EXPECT_EQ(EngineOptions{}.fingerprint(), "inc=1,cfg=1,cube=0");
  EXPECT_EQ(EngineOptions{.incremental = false}.fingerprint(),
            "inc=0,cfg=1,cube=0");
  EngineOptions retired;
  retired.num_configs = 4;
  retired.num_threads = 8;
  EXPECT_EQ(retired.fingerprint(), "inc=1,cfg=1,cube=0");

  const auto trace = [](const EngineOptions& engine) {
    auto solver = make_engine_solver(engine, 0);
    add_pigeonhole(*solver, 6, 6);
    EXPECT_TRUE(solver->solve());
    std::vector<bool> model;
    for (Var v = 0; v < solver->num_vars(); ++v) {
      model.push_back(solver->model_value(v));
    }
    const SolverStats stats = solver->stats();
    return std::make_tuple(model, stats.decisions, stats.conflicts,
                           stats.propagations);
  };
  EXPECT_EQ(trace(EngineOptions{}), trace(retired));

  // The budget argument reaches the solver.
  auto budgeted = make_engine_solver(retired, 10);
  add_pigeonhole(*budgeted, 8, 7);
  EXPECT_THROW(budgeted->solve(), Solver::SolveInterrupted);
}

}  // namespace
}  // namespace ftsp::sat
