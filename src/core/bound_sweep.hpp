#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "sat/cnf_builder.hpp"
#include "sat/solver.hpp"

namespace ftsp::core {

/// Shared per-bound solve of the incremental sweeps: assumes
/// `ladder.at_most(v)` when the bound is binding (vacuous bounds solve
/// unbounded) and records one telemetry step when a sink is supplied.
inline bool solve_with_ladder_bound(sat::Solver& solver,
                                    const sat::CardinalityLadder& ladder,
                                    std::size_t v,
                                    sat::SweepTelemetry* telemetry) {
  const sat::SolverStats before = solver.stats();
  bool sat;
  if (v < ladder.max_bound()) {
    const sat::Lit bound = ladder.at_most(v);
    sat = solver.solve({bound});
  } else {
    sat = solver.solve();
  }
  if (telemetry != nullptr) {
    telemetry->steps.push_back({v, sat, solver.stats() - before});
  }
  return sat;
}

/// Shared scaffolding of the (u, v) weight sweeps in verification and
/// correction synthesis: binary-searches the minimal bound v in
/// [lo, vmax] for which `try_bound(v)` yields a witness, carrying
/// witnesses out of the sweep so no final re-query is needed.
///
/// Requirements: `try_bound` is monotone (a witness at v implies one at
/// every v' >= v) and `weight_of(w)` is a bound at which `w` itself is a
/// witness. On success the returned witness's weight equals the minimal
/// feasible bound; returns an empty optional when even `vmax` fails.
/// Works for both engines — incrementally (try_bound solving one shared
/// skeleton under assumptions) or from scratch (try_bound re-encoding).
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

}  // namespace ftsp::core
