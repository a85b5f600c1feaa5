#include "sat/engine.hpp"

#include <atomic>

#include "obs/registry.hpp"

namespace ftsp::sat {

namespace {

std::atomic<std::uint64_t> g_engine_invocations{0};

/// Registers the portfolio's series, retired with the portfolio. The
/// names stay registered (the metric-name manifest is append-only) and
/// always read 0.
void register_retired_portfolio_series() {
  static const bool registered = [] {
    auto& registry = obs::Registry::instance();
    registry.counter("sat.portfolio.race.count");
    registry.counter("sat.portfolio.round.count");
    registry.gauge("sat.portfolio.winner.index");
    return true;
  }();
  (void)registered;
}

}  // namespace

std::string EngineOptions::fingerprint() const {
  std::string f = "inc=";
  f += incremental ? '1' : '0';
  // Retired fields kept verbatim: store and satcache keys embed them.
  f += ",cfg=1,cube=0";
  return f;
}

std::uint64_t engine_solver_invocations() {
  return g_engine_invocations.load(std::memory_order_relaxed);
}

void reset_engine_solver_invocations() {
  g_engine_invocations.store(0, std::memory_order_relaxed);
}

std::unique_ptr<Solver> make_engine_solver(const EngineOptions& /*engine*/,
                                           std::uint64_t conflict_budget) {
  register_retired_portfolio_series();
  g_engine_invocations.fetch_add(1, std::memory_order_relaxed);
  auto solver = std::make_unique<Solver>();
  solver->set_conflict_budget(conflict_budget);
  return solver;
}

}  // namespace ftsp::sat
