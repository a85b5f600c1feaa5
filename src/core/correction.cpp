#include "core/correction.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "core/bound_sweep.hpp"
#include "core/stabilizer_select.hpp"
#include "core/synth_cache.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/engine.hpp"

namespace ftsp::core {

using f2::BitVec;
using qec::PauliType;
using sat::CnfBuilder;
using sat::Lit;

std::size_t CorrectionPlan::total_weight() const {
  std::size_t w = 0;
  for (const auto& s : measurements) {
    w += s.popcount();
  }
  return w;
}

namespace {

/// Deduplicates errors modulo the same-type state stabilizers (equivalent
/// errors have identical syndromes under any candidate measurement and
/// identical recovery constraints).
std::vector<BitVec> dedupe_by_coset(const qec::StateContext& state,
                                    PauliType type,
                                    const std::vector<BitVec>& errors) {
  std::vector<BitVec> unique;
  std::unordered_set<std::string> seen;
  for (const BitVec& e : errors) {
    const std::string key = state.coset_key(type, e).to_string();
    if (seen.insert(key).second) {
      unique.push_back(e);
    }
  }
  return unique;
}

/// The WLOG recovery candidate pool (see header).
std::vector<BitVec> recovery_candidates(const std::vector<BitVec>& errors,
                                        std::size_t n) {
  std::vector<BitVec> candidates;
  std::unordered_set<std::string> seen;
  const auto add = [&](const BitVec& c) {
    if (seen.insert(c.to_string()).second) {
      candidates.push_back(c);
    }
  };
  std::vector<BitVec> bases = errors;
  bases.emplace_back(n);  // The zero base: weight<=1 recoveries.
  for (const BitVec& base : bases) {
    add(base);
    for (std::size_t q = 0; q < n; ++q) {
      BitVec c = base;
      c.flip(q);
      add(c);
    }
  }
  // Prefer light recoveries when several are valid.
  std::sort(candidates.begin(), candidates.end(),
            [](const BitVec& a, const BitVec& b) {
              const auto wa = a.popcount();
              const auto wb = b.popcount();
              if (wa != wb) {
                return wa < wb;
              }
              return a.lex_less(b);
            });
  return candidates;
}

struct Instance {
  std::vector<BitVec> errors;           // Deduped class errors.
  std::vector<BitVec> candidates;       // Recovery pool, weight-sorted.
  std::vector<std::vector<bool>> ok;    // ok[j][c]: wt_S(e_j + c) <= 1.
};

Instance build_instance(const qec::StateContext& state, PauliType type,
                        const std::vector<BitVec>& class_errors) {
  Instance inst;
  inst.errors = dedupe_by_coset(state, type, class_errors);
  inst.candidates = recovery_candidates(inst.errors, state.num_qubits());
  inst.ok.resize(inst.errors.size());
  for (std::size_t j = 0; j < inst.errors.size(); ++j) {
    inst.ok[j].resize(inst.candidates.size());
    for (std::size_t c = 0; c < inst.candidates.size(); ++c) {
      inst.ok[j][c] =
          state.reduced_weight(type, inst.errors[j] ^ inst.candidates[c]) <=
          1;
    }
  }
  return inst;
}

/// Common recovery for a subset of errors: lightest candidate valid for
/// all, or nullopt.
std::optional<BitVec> common_recovery(const Instance& inst,
                                      const std::vector<std::size_t>& members) {
  for (std::size_t c = 0; c < inst.candidates.size(); ++c) {
    bool valid = true;
    for (std::size_t j : members) {
      if (!inst.ok[j][c]) {
        valid = false;
        break;
      }
    }
    if (valid) {
      return inst.candidates[c];
    }
  }
  return std::nullopt;
}

/// Builds the recovery map for fixed measurements by grouping errors on
/// their concrete extended syndromes.
std::optional<CorrectionPlan> finalize(const qec::StateContext& state,
                                       PauliType type, const Instance& inst,
                                       std::vector<BitVec> measurements) {
  (void)state;
  (void)type;
  CorrectionPlan plan;
  plan.measurements = std::move(measurements);
  std::map<BitVec, std::vector<std::size_t>, f2::BitVecLexLess> classes;
  for (std::size_t j = 0; j < inst.errors.size(); ++j) {
    BitVec pattern(plan.measurements.size());
    for (std::size_t i = 0; i < plan.measurements.size(); ++i) {
      if (plan.measurements[i].dot(inst.errors[j])) {
        pattern.set(i);
      }
    }
    classes[pattern].push_back(j);
  }
  for (const auto& [pattern, members] : classes) {
    const auto recovery = common_recovery(inst, members);
    if (!recovery.has_value()) {
      return std::nullopt;  // Measurements do not separate the class.
    }
    plan.recoveries.emplace(pattern, *recovery);
  }
  return plan;
}

/// One encoded "u measurements separate every class" skeleton; the weight
/// bound is either swept via a cardinality ladder (incremental mode) or
/// fixed per instance (from-scratch mode).
struct CorrectionContext {
  std::unique_ptr<sat::Solver> solver;
  std::unique_ptr<CnfBuilder> cnf;
  std::unique_ptr<StabilizerSelection> selection;
  sat::CardinalityLadder ladder;
  std::size_t u = 0;

  CorrectionContext(const qec::StateContext& state, PauliType type,
                    const Instance& inst, std::size_t num_measurements,
                    const CorrectionSynthOptions& options, bool with_ladder)
      : u(num_measurements) {
    const auto& generators = state.detector_generators(type);
    solver = sat::make_engine_solver(options.engine, options.conflict_budget);
    if (options.proof_sink != nullptr) {
      // On before any clause lands, so the logged premise is verbatim.
      solver->set_proof_logging(true);
    }
    cnf = std::make_unique<CnfBuilder>(*solver);
    selection = std::make_unique<StabilizerSelection>(*cnf, generators, u);
    selection->require_nonzero();
    if (const auto* map = options.coupling.get();
        qec::coupling_constrained(map)) {
      // Same device-realizability restriction as verification synthesis:
      // correction measurements are ancilla gadgets too.
      selection->restrict_supports([map](const f2::BitVec& support) {
        return map->has_walk(support);
      });
    }
    if (u > 1) {
      selection->break_symmetry();
    }

    // Syndrome literals per (error, measurement).
    std::vector<std::vector<Lit>> sigma(inst.errors.size(),
                                        std::vector<Lit>(u));
    for (std::size_t j = 0; j < inst.errors.size(); ++j) {
      for (std::size_t i = 0; i < u; ++i) {
        sigma[j][i] = selection->syndrome_bit(i, inst.errors[j]);
      }
    }

    // Per extended pattern pi: a selected recovery (at least one
    // candidate; selecting several is harmless, all must then be valid).
    // For every error j and invalid candidate c: if j's syndrome matches
    // pi, c must not be selected for pi.
    const std::size_t num_patterns = std::size_t{1} << u;
    for (std::size_t pi = 0; pi < num_patterns; ++pi) {
      std::vector<Lit> chosen(inst.candidates.size());
      for (std::size_t c = 0; c < inst.candidates.size(); ++c) {
        chosen[c] = cnf->fresh();
      }
      cnf->add_at_least_one(chosen);
      for (std::size_t j = 0; j < inst.errors.size(); ++j) {
        for (std::size_t c = 0; c < inst.candidates.size(); ++c) {
          if (inst.ok[j][c]) {
            continue;
          }
          // not(match(j, pi)) or not chosen[c]
          std::vector<Lit> clause;
          clause.reserve(u + 1);
          clause.push_back(~chosen[c]);
          for (std::size_t i = 0; i < u; ++i) {
            const bool bit = ((pi >> i) & 1U) != 0;
            clause.push_back(bit ? ~sigma[j][i] : sigma[j][i]);
          }
          solver->add_clause(clause);
        }
      }
    }

    if (with_ladder) {
      ladder = selection->make_total_weight_ladder(
          u * state.num_qubits());
    }
  }

  bool solve_with_bound(std::size_t v,
                        const CorrectionSynthOptions& options) {
    return solve_with_ladder_bound(*solver, ladder, v, options.telemetry);
  }

  std::optional<CorrectionPlan> extract_plan(const qec::StateContext& state,
                                             PauliType type,
                                             const Instance& inst) const {
    std::vector<BitVec> measurements;
    for (std::size_t i = 0; i < u; ++i) {
      measurements.push_back(selection->extract(*solver, i));
    }
    // Recompute recoveries deterministically (also re-validates the
    // model).
    return finalize(state, type, inst, std::move(measurements));
  }
};

/// One from-scratch decision query: u measurements of total weight <= v.
std::optional<CorrectionPlan> query_fresh(
    const qec::StateContext& state, PauliType type, const Instance& inst,
    std::size_t u, std::size_t v, const CorrectionSynthOptions& options,
    std::optional<sat::UnsatProof>* proof_out = nullptr) {
  CorrectionContext ctx(state, type, inst, u, options,
                        /*with_ladder=*/false);
  ctx.selection->bound_total_weight(v);
  const sat::SolverStats before = ctx.solver->stats();
  const bool sat = ctx.solver->solve();
  if (options.telemetry != nullptr) {
    options.telemetry->steps.push_back(
        {v, sat, ctx.solver->stats() - before});
  }
  if (!sat) {
    if (proof_out != nullptr) {
      *proof_out = ctx.solver->last_unsat_proof();
    }
    return std::nullopt;
  }
  return ctx.extract_plan(state, type, inst);
}

constexpr const char* kEmptyBits = "-";  // A zero-length bit vector.

std::string correction_cache_key(const qec::StateContext& state,
                                 PauliType type,
                                 const std::vector<BitVec>& class_errors,
                                 const CorrectionSynthOptions& options) {
  std::string key = "corr|" + options.engine.fingerprint();
  key += "|mm=" + std::to_string(options.max_measurements);
  key += "|bud=" + std::to_string(options.conflict_budget);
  if (qec::coupling_constrained(options.coupling)) {
    key += "|coup=" + options.coupling->fingerprint();
  }
  key += "|t=";
  key += type == PauliType::X ? 'X' : 'Z';
  key += "|SX=" + cache_key_matrix(state.stabilizer_generators(PauliType::X));
  key += "|SZ=" + cache_key_matrix(state.stabilizer_generators(PauliType::Z));
  key += cache_key_errors(class_errors);
  return key;
}

std::string bits_or_empty(const BitVec& v) {
  return v.empty() ? kEmptyBits : v.to_string();
}

BitVec bits_from(const std::string& s) {
  return s == kEmptyBits ? BitVec(0) : BitVec::from_string(s);
}

std::string encode_plan(const CorrectionPlan& plan) {
  std::string text;
  for (const auto& m : plan.measurements) {
    text += "m " + m.to_string() + "\n";
  }
  for (const auto& [pattern, recovery] : plan.recoveries) {
    text += "r " + bits_or_empty(pattern) + " " + recovery.to_string() + "\n";
  }
  return text;
}

CorrectionPlan decode_plan(const std::string& text) {
  CorrectionPlan plan;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    if (line[0] == 'm') {
      plan.measurements.push_back(BitVec::from_string(line.substr(2)));
    } else {
      const std::size_t space = line.find(' ', 2);
      plan.recoveries.emplace(bits_from(line.substr(2, space - 2)),
                              bits_from(line.substr(space + 1)));
    }
  }
  return plan;
}

}  // namespace

std::optional<CorrectionPlan> synthesize_correction(
    const qec::StateContext& state, PauliType error_type,
    const std::vector<BitVec>& class_errors,
    const CorrectionSynthOptions& options) {
  std::string key;
  if (options.engine.use_cache) {
    key = correction_cache_key(state, error_type, class_errors, options);
    if (const auto hit = SynthCache::instance().lookup(key)) {
      if (options.proof_sink != nullptr) {
        options.proof_sink->record_absent(
            options.proof_label, "optimal correction plan",
            "served from the synthesis cache; the refutations ran in the "
            "compile that populated it");
      }
      if (*hit == kCacheInfeasible) {
        return std::nullopt;
      }
      return decode_plan(*hit);
    }
  }
  const auto finish = [&](std::optional<CorrectionPlan> result)
      -> std::optional<CorrectionPlan> {
    if (options.engine.use_cache) {
      SynthCache::instance().store(
          key, result.has_value() ? encode_plan(*result) : kCacheInfeasible);
    }
    return result;
  };

  const Instance inst = build_instance(state, error_type, class_errors);

  // u = 0: a single unconditional recovery for the whole class.
  {
    std::vector<std::size_t> all(inst.errors.size());
    for (std::size_t j = 0; j < all.size(); ++j) {
      all[j] = j;
    }
    if (const auto recovery = common_recovery(inst, all)) {
      if (options.proof_sink != nullptr) {
        options.proof_sink->record_absent(
            options.proof_label,
            "0 correction measurements suffice (one common recovery)",
            "established by an exhaustive scan of the WLOG recovery pool, "
            "no SAT query involved");
      }
      CorrectionPlan plan;
      plan.recoveries.emplace(BitVec(0), *recovery);
      return finish(std::move(plan));
    }
  }

  const std::size_t n = state.num_qubits();
  const auto weight_of = [](const CorrectionPlan& plan) {
    return plan.total_weight();
  };
  ProofSink* const sink = options.proof_sink;
  for (std::size_t u = 1; u <= options.max_measurements; ++u) {
    std::optional<CorrectionPlan> best;
    // Proof capture: the binary-search invariant makes the
    // chronologically last UNSAT leg the one at v* - 1 (see
    // record_sweep_outcome), so stashing the latest refutation suffices.
    std::optional<sat::UnsatProof> last_unsat;
    std::size_t last_unsat_bound = 0;
    bool saw_unsat = false;
    if (options.engine.incremental) {
      // Encode the skeleton once; sweep the weight bound via assumptions.
      CorrectionContext ctx(state, error_type, inst, u, options,
                            /*with_ladder=*/true);
      best = sweep_min_weight(
          /*lo=*/u, /*vmax=*/u * n,
          [&](std::size_t v) -> std::optional<CorrectionPlan> {
            if (!ctx.solve_with_bound(v, options)) {
              if (sink != nullptr) {
                saw_unsat = true;
                last_unsat = ctx.solver->last_unsat_proof();
                last_unsat_bound = v;
              }
              return std::nullopt;
            }
            return ctx.extract_plan(state, error_type, inst);
          },
          weight_of);
      if (best.has_value() && options.engine.use_cache) {
        std::vector<Lit> bound;
        if (best->total_weight() < ctx.ladder.max_bound()) {
          bound.push_back(ctx.ladder.at_most(best->total_weight()));
        }
        SynthCache::instance().dump_cnf(key, *ctx.solver, bound);
      }
    } else {
      // From-scratch path: every bound re-encodes the CNF.
      best = sweep_min_weight(
          u, u * n,
          [&](std::size_t v) {
            auto result =
                query_fresh(state, error_type, inst, u, v, options,
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
                           "correction measurements", u, best.has_value(),
                           saw_unsat, last_unsat, last_unsat_bound);
    }
    if (best.has_value()) {
      return finish(std::move(best));
    }
  }
  return finish(std::nullopt);
}

}  // namespace ftsp::core
