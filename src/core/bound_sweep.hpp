#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/proof_capture.hpp"
#include "core/stabilizer_select.hpp"
#include "core/synth_cache.hpp"
#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "qec/coupling.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/engine.hpp"
#include "sat/solver.hpp"

namespace ftsp::core {

/// The solver of one encoded synthesis query. Proof logging is on when
/// a sink is attached, set before any clause lands, so the logged premise
/// is verbatim.
inline std::unique_ptr<sat::Solver> make_query_solver(
    const sat::EngineOptions& engine, std::uint64_t conflict_budget,
    const ProofSink* proof_sink) {
  auto solver = sat::make_engine_solver(engine, conflict_budget);
  if (proof_sink != nullptr) {
    solver->set_proof_logging(true);
  }
  return solver;
}

/// One encoded "choose u stabilizers from the span of `generators`"
/// query: the skeleton shared by verification and correction synthesis.
/// `Options` is either stage's synthesis options (engine, coupling,
/// proof sink); the query runs without a conflict budget. The
/// constructor emits, in this order: solver (`make_query_solver`),
/// nonzero rows, the coupling restriction, row-order symmetry breaking,
/// the stage's own clauses (`stage_clauses(cnf, selection)`), and then
/// either a total-weight ladder swept by assumption (`fresh_bound` empty:
/// the incremental engine) or the hard bound `fresh_bound` (the
/// from-scratch engine). The clause order is part of the captured proofs'
/// bytes.
struct SelectionQuery {
  std::unique_ptr<sat::Solver> solver;
  sat::CnfBuilder cnf;
  StabilizerSelection selection;
  /// Empty in from-scratch mode: every bound then solves unassumed.
  sat::CardinalityLadder ladder;

  template <typename Options, typename StageClauses>
  SelectionQuery(const f2::BitMatrix& generators, std::size_t u,
                 const Options& options, const StageClauses& stage_clauses,
                 std::optional<std::size_t> fresh_bound)
      : solver(make_query_solver(options.engine, /*conflict_budget=*/0,
                                 options.proof_sink)),
        cnf(*solver),
        selection(cnf, generators, u) {
    selection.require_nonzero();
    if (const auto* map = options.coupling.get();
        qec::coupling_constrained(map)) {
      // Only device-realizable measurements (supports admitting an
      // ancilla walk, see `qec::CouplingMap`) stay in the search space.
      selection.restrict_supports([map](const f2::BitVec& support) {
        return map->has_walk(support);
      });
    }
    if (u > 1) {
      selection.break_symmetry();
    }
    stage_clauses(cnf, selection);
    if (fresh_bound.has_value()) {
      selection.bound_total_weight(*fresh_bound);
    } else {
      ladder = selection.make_total_weight_ladder(u * generators.cols());
    }
  }
  /// `cnf` and `selection` point into this object.
  SelectionQuery(SelectionQuery&&) = delete;

  /// Solves under total weight <= v (assuming `ladder.at_most(v)` when
  /// that bound is binding) and records one telemetry step when a sink
  /// is supplied.
  bool solve(std::size_t v, sat::SweepTelemetry* telemetry) {
    const sat::SolverStats before = solver->stats();
    bool sat;
    if (v < ladder.max_bound()) {
      const sat::Lit bound = ladder.at_most(v);
      sat = solver->solve({bound});
    } else {
      sat = solver->solve();
    }
    if (telemetry != nullptr) {
      telemetry->steps.push_back({v, sat, solver->stats() - before});
    }
    return sat;
  }

  /// After a satisfying solve: the selected supports, in row order.
  std::vector<f2::BitVec> extract_supports() const {
    std::vector<f2::BitVec> supports;
    for (std::size_t i = 0; i < selection.count(); ++i) {
      supports.push_back(selection.extract(*solver, i));
    }
    return supports;
  }
};

/// Binary-searches the minimal bound v in [lo, vmax] for which
/// `try_bound(v)` yields a witness, carrying witnesses out of the sweep
/// so no final re-query is needed.
///
/// Requirements: `try_bound` is monotone (a witness at v implies one at
/// every v' >= v) and `weight_of(w)` is a bound at which `w` itself is a
/// witness. On success the returned witness's weight equals the minimal
/// feasible bound; returns an empty optional when even `vmax` fails.
template <typename TryBound, typename WeightOf>
auto sweep_min_weight(std::size_t lo, std::size_t vmax, TryBound&& try_bound,
                      WeightOf&& weight_of) -> decltype(try_bound(vmax)) {
  auto best = try_bound(vmax);
  if (!best.has_value()) {
    return best;
  }
  std::size_t hi = std::min(weight_of(*best), vmax);
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (auto witness = try_bound(mid)) {
      hi = std::min(mid, weight_of(*witness));
      best = std::move(witness);
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

/// The lexicographic (u, v) optimum of a selection query: the smallest u
/// admitting any selection, then the smallest total weight v for that u.
/// `make_witness(supports)` turns a model's supports into the stage's
/// witness (which has `total_weight()`). With `options.engine.incremental`
/// each u encodes one `SelectionQuery` and sweeps v by assumption;
/// otherwise every bound re-encodes a fresh query — the reference path.
///
/// Under `options.proof_sink` each u ends in `record_sweep_outcome`
/// with the sweep's last refutation, before the next u starts. `warm`,
/// when given, receives the incremental query of the optimal u (left
/// null on the from-scratch path) for model enumeration at the optimum.
template <typename Options, typename StageClauses, typename MakeWitness>
auto sweep_lexicographic(const f2::BitMatrix& generators,
                         const Options& options, const std::string& what,
                         const StageClauses& stage_clauses,
                         const MakeWitness& make_witness,
                         std::unique_ptr<SelectionQuery>* warm = nullptr)
    -> std::optional<
        std::invoke_result_t<const MakeWitness&, std::vector<f2::BitVec>>> {
  using Witness =
      std::invoke_result_t<const MakeWitness&, std::vector<f2::BitVec>>;
  const std::size_t n = generators.cols();
  const auto weight_of = [](const Witness& w) { return w.total_weight(); };
  ProofSink* const sink = options.proof_sink;
  for (std::size_t u = 1; u <= options.max_measurements; ++u) {
    // The binary-search invariant makes the chronologically last UNSAT
    // leg the one at v* - 1 (see record_sweep_outcome), so keeping the
    // latest refutation suffices.
    std::optional<SweepRefutation> refutation;
    const auto try_bound = [&](SelectionQuery& query,
                               std::size_t v) -> std::optional<Witness> {
      if (!query.solve(v, options.telemetry)) {
        if (sink != nullptr) {
          refutation =
              SweepRefutation{query.solver->take_unsat_proof().value(), v};
        }
        return std::nullopt;
      }
      return make_witness(query.extract_supports());
    };
    std::unique_ptr<SelectionQuery> query;
    std::optional<Witness> best;
    // Each selected stabilizer has weight >= 1: v ranges over [u, u * n].
    if (options.engine.incremental) {
      query = std::make_unique<SelectionQuery>(generators, u, options,
                                               stage_clauses, std::nullopt);
      best = sweep_min_weight(
          u, u * n, [&](std::size_t v) { return try_bound(*query, v); },
          weight_of);
    } else {
      best = sweep_min_weight(
          u, u * n,
          [&](std::size_t v) {
            SelectionQuery fresh(generators, u, options, stage_clauses, v);
            return try_bound(fresh, v);
          },
          weight_of);
    }
    if (best.has_value() && warm != nullptr) {
      *warm = std::move(query);
    }
    // The refutation is checked with the search's memory released.
    query.reset();
    if (sink != nullptr) {
      record_sweep_outcome(*sink, options.proof_label, what, u,
                           best.has_value(), refutation);
    }
    if (best.has_value()) {
      return best;
    }
  }
  return std::nullopt;
}

/// The synthesis-cache epilogue of prep, verification and correction.
/// With `options.engine.use_cache` off it just runs `solve()`. Otherwise
/// it looks up `key()`: a hit is decoded (`kCacheInfeasible` reads as
/// "no result") and, under a proof sink, recorded as an absent entry for
/// `claim`, since its refutations ran in the compile that populated the
/// cache. A miss runs `solve()` and stores the encoded result or the
/// sentinel. An exception from `solve()` (a conflict budget running out)
/// stores nothing.
template <typename Options, typename Key, typename Encode, typename Decode,
          typename Solve>
auto cached_synthesis(const Options& options, const char* claim,
                      const Key& key, const Encode& encode,
                      const Decode& decode, const Solve& solve)
    -> decltype(solve()) {
  if (!options.engine.use_cache) {
    return solve();
  }
  const std::string cache_key = key();
  SynthCache& cache = SynthCache::instance();
  if (const auto hit = cache.lookup(cache_key)) {
    if (options.proof_sink != nullptr) {
      options.proof_sink->record_absent(
          options.proof_label, claim,
          "served from the synthesis cache; the refutations ran in the "
          "compile that populated it");
    }
    if (*hit == kCacheInfeasible) {
      return std::nullopt;
    }
    return decode(*hit);
  }
  auto result = solve();
  cache.store(cache_key,
              result.has_value() ? encode(*result) : kCacheInfeasible);
  return result;
}

}  // namespace ftsp::core
