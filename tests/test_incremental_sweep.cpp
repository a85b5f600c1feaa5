// Incremental assumption-based bound sweeps: cardinality-ladder
// semantics, verification synthesis equivalence between the incremental
// and from-scratch engines, sweep telemetry, and the synthesis cache.
#include <gtest/gtest.h>

#include "core/prep_synth.hpp"
#include "core/protocol.hpp"
#include "core/synth_cache.hpp"
#include "core/verification.hpp"
#include "qec/code_library.hpp"
#include "qec/state_context.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/solver.hpp"

namespace ftsp::core {
namespace {

using f2::BitMatrix;
using f2::BitVec;
using qec::LogicalBasis;
using qec::PauliType;

TEST(CardinalityLadder, AtMostSemanticsAreExact) {
  const std::size_t n = 6;
  sat::Solver solver;
  sat::CnfBuilder cnf(solver);
  std::vector<sat::Lit> lits;
  for (std::size_t i = 0; i < n; ++i) {
    lits.push_back(cnf.fresh());
  }
  const auto ladder = cnf.make_cardinality_ladder(lits, n);
  ASSERT_EQ(ladder.max_bound(), n);
  // For every assignment pattern and every bound k: satisfiable under
  // the at_most(k) assumption iff popcount(pattern) <= k.
  for (unsigned pattern = 0; pattern < (1u << n); ++pattern) {
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<sat::Lit> assumptions = {ladder.at_most(k)};
      std::size_t ones = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool on = ((pattern >> i) & 1u) != 0;
        ones += on ? 1 : 0;
        assumptions.push_back(on ? lits[i] : ~lits[i]);
      }
      EXPECT_EQ(solver.solve(assumptions), ones <= k)
          << "pattern " << pattern << " k " << k;
    }
  }
}

struct SweepInstance {
  BitMatrix generators;
  std::vector<BitVec> errors;
};

SweepInstance library_instance(const char* name) {
  const auto code = qec::library_code_by_name(name);
  const qec::StateContext state(code, LogicalBasis::Zero);
  const auto prep = synthesize_prep(state);
  const auto events =
      enumerate_single_fault_events(code.num_qubits(), {&prep});
  SweepInstance inst{state.detector_generators(PauliType::X),
                     dangerous_errors(state, PauliType::X, events)};
  return inst;
}

void expect_valid_set(const VerificationSet& set,
                      const std::vector<BitVec>& errors) {
  for (const BitVec& e : errors) {
    bool detected = false;
    for (const BitVec& s : set.stabilizers) {
      detected = detected || s.dot(e);
    }
    EXPECT_TRUE(detected) << "undetected error " << e.to_string();
  }
}

TEST(IncrementalSweep, MatchesFromScratchOptimum) {
  for (const char* name : {"Steane", "Shor", "Surface_3"}) {
    const auto inst = library_instance(name);
    ASSERT_FALSE(inst.errors.empty()) << name;

    VerificationSynthOptions incremental;
    incremental.engine.incremental = true;
    incremental.engine.use_cache = false;
    VerificationSynthOptions fresh;
    fresh.engine.incremental = false;
    fresh.engine.use_cache = false;

    const auto a =
        synthesize_verification(inst.generators, inst.errors, incremental);
    const auto b =
        synthesize_verification(inst.generators, inst.errors, fresh);
    ASSERT_TRUE(a.has_value()) << name;
    ASSERT_TRUE(b.has_value()) << name;
    EXPECT_EQ(a->count(), b->count()) << name;
    EXPECT_EQ(a->total_weight(), b->total_weight()) << name;
    expect_valid_set(*a, inst.errors);
    expect_valid_set(*b, inst.errors);
  }
}

TEST(IncrementalSweep, SyntheticOptimumIsExact) {
  const BitMatrix candidates =
      BitMatrix::from_strings({"1100", "0011"});
  const std::vector<BitVec> errors = {BitVec::from_string("1000"),
                                      BitVec::from_string("0010")};
  VerificationSynthOptions options;
  options.engine.use_cache = false;
  const auto set = synthesize_verification(candidates, errors, options);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->count(), 1u);
  EXPECT_EQ(set->stabilizers[0].to_string(), "1111");
}

TEST(IncrementalSweep, TelemetryRecordsPerBoundDeltas) {
  const auto inst = library_instance("Steane");
  sat::SweepTelemetry telemetry;
  VerificationSynthOptions options;
  options.engine.use_cache = false;
  options.telemetry = &telemetry;
  const auto set =
      synthesize_verification(inst.generators, inst.errors, options);
  ASSERT_TRUE(set.has_value());
  ASSERT_GE(telemetry.steps.size(), 2u);  // Feasibility + >= 1 sweep step.
  // Every SAT bound admits the optimum; every UNSAT bound is below it.
  // (The optimum itself may never be queried directly — the sweep
  // shortcuts through witness weights.)
  for (const auto& step : telemetry.steps) {
    if (step.sat) {
      EXPECT_GE(step.bound, set->total_weight());
    } else {
      EXPECT_LT(step.bound, set->total_weight());
    }
  }
  // Deltas are per-step, not cumulative: each one is bounded by the
  // total across all steps.
  const std::uint64_t total = telemetry.total_conflicts();
  for (const auto& step : telemetry.steps) {
    EXPECT_LE(step.delta.conflicts, total);
  }
}

TEST(SynthCacheTest, SecondIdenticalCallHits) {
  auto& cache = SynthCache::instance();
  cache.clear();
  const auto inst = library_instance("Steane");
  VerificationSynthOptions options;  // use_cache defaults to true.
  const auto first =
      synthesize_verification(inst.generators, inst.errors, options);
  ASSERT_TRUE(first.has_value());
  const std::uint64_t hits_before = cache.hits();
  const auto second =
      synthesize_verification(inst.generators, inst.errors, options);
  ASSERT_TRUE(second.has_value());
  EXPECT_GT(cache.hits(), hits_before);
  EXPECT_EQ(first->count(), second->count());
  EXPECT_EQ(first->total_weight(), second->total_weight());
  // Prep circuits are cached too (BFS and SAT paths alike).
  const auto code = qec::steane();
  const qec::StateContext state(code, LogicalBasis::Zero);
  PrepSynthOptions prep_options;
  const auto p1 = synthesize_prep_optimal(state, prep_options);
  ASSERT_TRUE(p1.has_value());
  const std::size_t size_after_first = cache.size();
  const auto p2 = synthesize_prep_optimal(state, prep_options);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(cache.size(), size_after_first);
  EXPECT_EQ(p1->to_text(), p2->to_text());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SynthCacheTest, BypassWhenDisabled) {
  auto& cache = SynthCache::instance();
  cache.clear();
  const auto inst = library_instance("Steane");
  VerificationSynthOptions options;
  options.engine.use_cache = false;
  const auto set =
      synthesize_verification(inst.generators, inst.errors, options);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace ftsp::core
