// ParallelSolver: correctness against the sequential solver and brute
// force, and the determinism contract — for a fixed seed, verdict AND
// model are identical at any thread count (1, 2, 8).
#include "sat/parallel_solver.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sat/cnf_builder.hpp"
#include "sat/dimacs.hpp"

namespace ftsp::sat {
namespace {

CnfFormula random_3sat(std::uint64_t seed, int num_vars, int num_clauses) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, num_vars - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  CnfFormula f;
  f.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit(pick(rng), coin(rng) != 0));
    }
    f.clauses.push_back(clause);
  }
  return f;
}

bool brute_force_sat(const CnfFormula& f) {
  for (unsigned assignment = 0;
       assignment < (1u << static_cast<unsigned>(f.num_vars));
       ++assignment) {
    bool all = true;
    for (const auto& clause : f.clauses) {
      bool any = false;
      for (Lit l : clause) {
        const bool value = ((assignment >> l.var()) & 1u) != 0;
        any = any || (value != l.sign());
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) {
      return true;
    }
  }
  return false;
}

bool model_satisfies(const SolverBase& s, const CnfFormula& f) {
  for (const auto& clause : f.clauses) {
    bool satisfied = false;
    for (Lit l : clause) {
      satisfied = satisfied || s.model_value(l);
    }
    if (!satisfied) {
      return false;
    }
  }
  return true;
}

void add_pigeonhole(SolverBase& s, int pigeons, int holes) {
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

TEST(ParallelSolver, AgreesWithBruteForceAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const CnfFormula f = random_3sat(seed * 131 + 17, 10, 42);
    ParallelSolverOptions options;
    options.num_threads = 2;
    options.num_configs = 4;
    options.seed = seed + 1;
    ParallelSolver solver(options);
    f.load_into(solver);
    const bool sat = solver.solve();
    EXPECT_EQ(sat, brute_force_sat(f)) << "seed " << seed;
    if (sat) {
      EXPECT_TRUE(model_satisfies(solver, f));
    }
  }
}

TEST(ParallelSolver, PigeonholeUnsat) {
  ParallelSolverOptions options;
  options.num_threads = 4;
  options.num_configs = 4;
  options.round_conflicts = 256;
  ParallelSolver solver(options);
  add_pigeonhole(solver, 7, 6);
  EXPECT_FALSE(solver.solve());
  EXPECT_FALSE(solver.okay());
  EXPECT_GT(solver.stats().conflicts, 0u);
}

/// The determinism contract: identical model bits at 1, 2 and 8 threads.
TEST(ParallelSolver, ModelIsIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CnfFormula f = random_3sat(seed * 977 + 5, 14, 56);
    std::vector<std::vector<bool>> models;
    std::vector<bool> verdicts;
    std::vector<std::size_t> winners;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ParallelSolverOptions options;
      options.num_threads = threads;
      options.num_configs = 4;
      options.seed = seed;
      options.round_conflicts = 128;  // Small: force multiple rounds.
      ParallelSolver solver(options);
      f.load_into(solver);
      const bool sat = solver.solve();
      verdicts.push_back(sat);
      winners.push_back(solver.last_winner());
      std::vector<bool> model;
      if (sat) {
        for (Var v = 0; v < solver.num_vars(); ++v) {
          model.push_back(solver.model_value(v));
        }
      }
      models.push_back(std::move(model));
    }
    EXPECT_EQ(verdicts[0], verdicts[1]);
    EXPECT_EQ(verdicts[0], verdicts[2]);
    EXPECT_EQ(winners[0], winners[1]) << "seed " << seed;
    EXPECT_EQ(winners[0], winners[2]) << "seed " << seed;
    EXPECT_EQ(models[0], models[1]) << "seed " << seed;
    EXPECT_EQ(models[0], models[2]) << "seed " << seed;
  }
}

/// Determinism must also hold across repeated solves on the same engine
/// (incremental use: clauses added between solves, winner state reused).
TEST(ParallelSolver, IncrementalEnumerationIsDeterministic) {
  const CnfFormula f = random_3sat(4242, 12, 30);
  std::vector<std::vector<std::vector<bool>>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ParallelSolverOptions options;
    options.num_threads = threads;
    options.num_configs = 3;
    options.seed = 7;
    options.round_conflicts = 64;
    ParallelSolver solver(options);
    f.load_into(solver);
    std::vector<std::vector<bool>> models;
    while (models.size() < 5 && solver.okay() && solver.solve()) {
      std::vector<bool> model;
      std::vector<Lit> block;
      for (Var v = 0; v < f.num_vars; ++v) {
        model.push_back(solver.model_value(v));
        block.push_back(solver.model_value(v) ? neg(v) : pos(v));
      }
      models.push_back(std::move(model));
      solver.add_clause(block);
    }
    runs.push_back(std::move(models));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(ParallelSolver, AssumptionsWork) {
  ParallelSolverOptions options;
  options.num_threads = 2;
  options.num_configs = 3;
  ParallelSolver solver(options);
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  solver.add_binary(pos(a), pos(b));
  ASSERT_TRUE(solver.solve({neg(a)}));
  EXPECT_FALSE(solver.model_value(a));
  EXPECT_TRUE(solver.model_value(b));
  EXPECT_FALSE(solver.solve({neg(a), neg(b)}));
  EXPECT_TRUE(solver.okay());  // UNSAT under assumptions only.
  EXPECT_TRUE(solver.solve());
}

TEST(ParallelSolver, ConflictBudgetThrows) {
  ParallelSolverOptions options;
  options.num_threads = 2;
  options.num_configs = 2;
  options.round_conflicts = 64;
  ParallelSolver solver(options);
  add_pigeonhole(solver, 9, 8);
  solver.set_conflict_budget(100);
  EXPECT_THROW(solver.solve(), SolverBase::SolveInterrupted);
}

/// `EngineOptions::fingerprint()` is embedded in persisted store and
/// satcache keys, so its bytes are pinned.
TEST(EngineOptions, FingerprintBytesArePinned) {
  EXPECT_EQ(EngineOptions{}.fingerprint(), "inc=1,cfg=1,cube=0");
  EXPECT_EQ(EngineOptions{.incremental = false}.fingerprint(),
            "inc=0,cfg=1,cube=0");
  EXPECT_EQ(EngineOptions{.num_configs = 4}.fingerprint(),
            "inc=1,cfg=4,cube=0,seed=1,rc=4096");
  EXPECT_EQ((EngineOptions{.incremental = false, .num_configs = 4})
                .fingerprint(),
            "inc=0,cfg=4,cube=0,seed=1,rc=4096");
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

TEST(SolverConfig, DiversifiedConfigsAgreeOnVerdict) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const CnfFormula f = random_3sat(seed * 53 + 11, 10, 41);
    const bool expected = brute_force_sat(f);
    for (std::size_t config = 0; config < 4; ++config) {
      SolverConfig c;
      c.seed = seed + 100 * config;
      c.random_branch_freq = 0.01 * static_cast<double>(config);
      c.initial_phase = (config % 2) != 0;
      c.restart_base = 64 << (config % 3);
      Solver solver(c);
      f.load_into(solver);
      EXPECT_EQ(solver.solve(), expected)
          << "seed " << seed << " config " << config;
    }
  }
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

TEST(SolverInterrupt, FlagCancelsSolve) {
  Solver solver;
  add_pigeonhole(solver, 8, 7);
  std::atomic<bool> flag{true};
  solver.set_interrupt_flag(&flag);
  EXPECT_EQ(solver.solve_limited({}, 0), LBool::Undef);
  EXPECT_THROW(solver.solve(), SolverBase::SolveInterrupted);
  flag.store(false);
  EXPECT_FALSE(solver.solve());
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

}  // namespace
}  // namespace ftsp::sat
