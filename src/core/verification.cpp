#include "core/verification.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "core/bound_sweep.hpp"
#include "core/stabilizer_select.hpp"
#include "core/synth_cache.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/engine.hpp"

namespace ftsp::core {

using f2::BitMatrix;
using f2::BitVec;
using sat::CnfBuilder;

std::size_t VerificationSet::total_weight() const {
  std::size_t w = 0;
  for (const auto& s : stabilizers) {
    w += s.popcount();
  }
  return w;
}

namespace {

/// One encoded "u stabilizers detect all errors" skeleton. In incremental
/// mode the total-weight bound is a cardinality ladder swept via
/// assumptions, so the skeleton is encoded once per u and learned clauses
/// carry across the whole (binary-search) weight sweep.
struct QueryContext {
  std::unique_ptr<sat::Solver> solver;
  std::unique_ptr<CnfBuilder> cnf;
  std::unique_ptr<StabilizerSelection> selection;
  sat::CardinalityLadder ladder;
  std::size_t u = 0;

  QueryContext(const BitMatrix& generators, const std::vector<BitVec>& errors,
               std::size_t num_stabilizers,
               const VerificationSynthOptions& options, bool with_ladder)
      : u(num_stabilizers) {
    solver = sat::make_engine_solver(options.engine, options.conflict_budget);
    if (options.proof_sink != nullptr) {
      // On before any clause lands, so the logged premise is verbatim.
      solver->set_proof_logging(true);
    }
    cnf = std::make_unique<CnfBuilder>(*solver);
    selection =
        std::make_unique<StabilizerSelection>(*cnf, generators, u);
    selection->require_nonzero();
    if (const auto* map = options.coupling.get();
        qec::coupling_constrained(map)) {
      // Only device-realizable measurements (supports admitting an
      // ancilla walk, see the header) stay in the search space.
      selection->restrict_supports([map](const f2::BitVec& support) {
        return map->has_walk(support);
      });
    }
    if (u > 1) {
      selection->break_symmetry();
    }
    for (const BitVec& e : errors) {
      std::vector<sat::Lit> detecting;
      detecting.reserve(u);
      for (std::size_t i = 0; i < u; ++i) {
        detecting.push_back(selection->syndrome_bit(i, e));
      }
      cnf->add_at_least_one(detecting);
    }
    if (with_ladder) {
      ladder = selection->make_total_weight_ladder(u * generators.cols());
    }
  }

  bool solve_with_bound(std::size_t v,
                        const VerificationSynthOptions& options) {
    return solve_with_ladder_bound(*solver, ladder, v, options.telemetry);
  }

  VerificationSet extract_set() const {
    VerificationSet set;
    for (std::size_t i = 0; i < u; ++i) {
      set.stabilizers.push_back(selection->extract(*solver, i));
    }
    return set;
  }
};

/// From-scratch decision query — the historical single-shot path, kept
/// as the `engine.incremental = false` baseline.
std::optional<VerificationSet> query_fresh(
    const BitMatrix& generators, const std::vector<BitVec>& errors,
    std::size_t u, std::size_t v, const VerificationSynthOptions& options,
    std::optional<sat::UnsatProof>* proof_out = nullptr) {
  QueryContext ctx(generators, errors, u, options, /*with_ladder=*/false);
  ctx.selection->bound_total_weight(v);
  const sat::SolverStats before = ctx.solver->stats();
  const bool sat = ctx.solver->solve();
  if (options.telemetry != nullptr) {
    options.telemetry->steps.push_back(
        {v, sat, ctx.solver->stats() - before});
  }
  if (!sat) {
    if (proof_out != nullptr) {
      *proof_out = ctx.solver->take_unsat_proof();
    }
    return std::nullopt;
  }
  return ctx.extract_set();
}

struct Optimum {
  std::size_t u = 0;
  std::size_t v = 0;
  VerificationSet set;
  /// The warm incremental context at (u, unbounded); null on the
  /// from-scratch path.
  std::unique_ptr<QueryContext> ctx;
};

/// Finds the lexicographic (u, v) optimum: smallest u admitting any
/// solution, then smallest v for that u (binary search over the weight
/// bound). The witness of the optimum is carried out of the sweep, so no
/// final re-query is needed.
std::optional<Optimum> find_optimum(const BitMatrix& generators,
                                    const std::vector<BitVec>& errors,
                                    const VerificationSynthOptions& options) {
  const std::size_t n = generators.cols();
  const auto weight_of = [](const VerificationSet& set) {
    return set.total_weight();
  };
  ProofSink* const sink = options.proof_sink;
  for (std::size_t u = 1; u <= options.max_measurements; ++u) {
    std::unique_ptr<QueryContext> ctx;
    std::optional<VerificationSet> best;
    // Proof capture: the binary-search invariant makes the
    // chronologically last UNSAT leg the one at v* - 1 (see
    // record_sweep_outcome), so stashing the latest refutation suffices.
    std::optional<sat::UnsatProof> last_unsat;
    std::size_t last_unsat_bound = 0;
    bool saw_unsat = false;
    if (options.engine.incremental) {
      ctx = std::make_unique<QueryContext>(generators, errors, u, options,
                                           /*with_ladder=*/true);
      best = sweep_min_weight(
          /*lo=*/u, /*vmax=*/u * n,  // Each stabilizer has weight >= 1.
          [&](std::size_t v) -> std::optional<VerificationSet> {
            if (!ctx->solve_with_bound(v, options)) {
              if (sink != nullptr) {
                saw_unsat = true;
                last_unsat = ctx->solver->take_unsat_proof();
                last_unsat_bound = v;
              }
              return std::nullopt;
            }
            return ctx->extract_set();
          },
          weight_of);
    } else {
      // From-scratch path: every bound re-encodes the CNF.
      best = sweep_min_weight(
          u, u * n,
          [&](std::size_t v) {
            auto result =
                query_fresh(generators, errors, u, v, options,
                            sink != nullptr ? &last_unsat : nullptr);
            if (sink != nullptr && !result.has_value()) {
              saw_unsat = true;
              last_unsat_bound = v;
            }
            return result;
          },
          weight_of);
    }
    if (sink != nullptr) {
      record_sweep_outcome(*sink, options.proof_label,
                           "verification measurements", u, best.has_value(),
                           saw_unsat, last_unsat, last_unsat_bound);
    }
    if (!best.has_value()) {
      continue;
    }
    Optimum optimum;
    optimum.u = u;
    optimum.v = best->total_weight();
    optimum.set = *std::move(best);
    optimum.ctx = std::move(ctx);
    return optimum;
  }
  return std::nullopt;
}

std::string verification_cache_key(const BitMatrix& generators,
                                   const std::vector<BitVec>& errors,
                                   const VerificationSynthOptions& options) {
  std::string key = "verif|" + options.engine.fingerprint();
  key += "|mm=" + std::to_string(options.max_measurements);
  key += "|bud=" + std::to_string(options.conflict_budget);
  // All-to-all adds nothing (legacy keys stay warm); constrained maps
  // key on the structure fingerprint.
  if (qec::coupling_constrained(options.coupling)) {
    key += "|coup=" + options.coupling->fingerprint();
  }
  key += "|G=" + cache_key_matrix(generators);
  key += cache_key_errors(errors);
  return key;
}

std::string encode_set(const VerificationSet& set) {
  std::string text;
  for (const auto& s : set.stabilizers) {
    text += s.to_string();
    text += '\n';
  }
  return text;
}

VerificationSet decode_set(const std::string& text) {
  VerificationSet set;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    set.stabilizers.push_back(
        BitVec::from_string(text.substr(start, end - start)));
    start = (end == std::string::npos) ? text.size() : end + 1;
  }
  return set;
}

}  // namespace

std::optional<VerificationSet> synthesize_verification(
    const BitMatrix& candidate_generators,
    const std::vector<BitVec>& dangerous_errors,
    const VerificationSynthOptions& options) {
  if (dangerous_errors.empty()) {
    if (options.proof_sink != nullptr) {
      options.proof_sink->record_absent(
          options.proof_label, "empty verification set is optimal",
          "no dangerous errors: nothing to verify, no SAT query involved");
    }
    return VerificationSet{};
  }

  std::string key;
  if (options.engine.use_cache) {
    key = verification_cache_key(candidate_generators, dangerous_errors,
                                 options);
    if (const auto hit = SynthCache::instance().lookup(key)) {
      if (options.proof_sink != nullptr) {
        options.proof_sink->record_absent(
            options.proof_label, "optimal verification set",
            "served from the synthesis cache; the refutations ran in the "
            "compile that populated it");
      }
      if (*hit == kCacheInfeasible) {
        return std::nullopt;
      }
      return decode_set(*hit);
    }
  }

  auto optimum = find_optimum(candidate_generators, dangerous_errors, options);
  if (!optimum.has_value()) {
    if (options.engine.use_cache) {
      SynthCache::instance().store(key, kCacheInfeasible);
    }
    return std::nullopt;
  }
  if (options.engine.use_cache) {
    if (optimum->ctx != nullptr) {
      std::vector<sat::Lit> bound;
      if (optimum->v < optimum->ctx->ladder.max_bound()) {
        bound.push_back(optimum->ctx->ladder.at_most(optimum->v));
      }
      SynthCache::instance().dump_cnf(key, *optimum->ctx->solver, bound);
    }
    SynthCache::instance().store(key, encode_set(optimum->set));
  }
  return std::move(optimum->set);
}

std::vector<VerificationSet> enumerate_optimal_verifications(
    const BitMatrix& candidate_generators,
    const std::vector<BitVec>& dangerous_errors,
    const VerificationSynthOptions& options) {
  if (dangerous_errors.empty()) {
    return {VerificationSet{}};
  }
  auto optimum =
      find_optimum(candidate_generators, dangerous_errors, options);
  if (!optimum.has_value()) {
    return {};
  }
  const auto [u, v] = std::pair{optimum->u, optimum->v};

  // Enumerate models at the optimum, blocking each found selection. The
  // incremental sweep context is reused warm (the bound becomes a hard
  // unit); the from-scratch path re-encodes once, as before.
  std::unique_ptr<QueryContext> fresh;
  QueryContext* ctx = optimum->ctx.get();
  if (ctx != nullptr) {
    if (v < ctx->ladder.max_bound()) {
      ctx->solver->add_unit(ctx->ladder.at_most(v));
    }
  } else {
    fresh = std::make_unique<QueryContext>(candidate_generators,
                                           dangerous_errors, u, options,
                                           /*with_ladder=*/false);
    fresh->selection->bound_total_weight(v);
    ctx = fresh.get();
  }

  std::vector<VerificationSet> results;
  std::set<std::vector<std::string>> seen;
  while (results.size() < options.enumerate_limit && ctx->solver->okay() &&
         ctx->solver->solve()) {
    VerificationSet set = ctx->extract_set();
    // Canonicalize as an unordered multiset of supports.
    std::vector<std::string> dedupe_key;
    for (const auto& s : set.stabilizers) {
      dedupe_key.push_back(s.to_string());
    }
    std::sort(dedupe_key.begin(), dedupe_key.end());
    if (seen.insert(std::move(dedupe_key)).second) {
      results.push_back(std::move(set));
    }
    ctx->selection->block_model(*ctx->solver);
  }
  return results;
}

}  // namespace ftsp::core
