#include "core/correction.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "core/bound_sweep.hpp"
#include "core/stabilizer_select.hpp"
#include "sat/cnf_builder.hpp"

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

/// Builds the recovery map for a model's measurements by grouping the
/// errors on their concrete extended syndromes.
///
/// A model never leaves a class without a common recovery: each syndrome
/// literal is a full Tseitin parity of the alpha bits, so an error's
/// pattern in the model equals its concrete syndrome under the extracted
/// measurements, and the encoding selects for every pattern a candidate
/// that is valid for each error showing it. The throw guards that
/// invariant.
CorrectionPlan finalize(const Instance& inst,
                        std::vector<BitVec> measurements) {
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
      throw std::logic_error(
          "synthesize_correction: a model left a syndrome class without a "
          "common recovery");
    }
    plan.recoveries.emplace(pattern, *recovery);
  }
  return plan;
}

/// The correction stage's clauses: per extended pattern pi, a selected
/// recovery (at least one candidate; selecting several is harmless, all
/// must then be valid), and for every error j and invalid candidate c:
/// if j's syndrome matches pi, c must not be selected for pi.
auto separate_classes(const Instance& inst) {
  return [&inst](CnfBuilder& cnf, StabilizerSelection& selection) {
    const std::size_t u = selection.count();
    std::vector<std::vector<Lit>> sigma(inst.errors.size(),
                                        std::vector<Lit>(u));
    for (std::size_t j = 0; j < inst.errors.size(); ++j) {
      for (std::size_t i = 0; i < u; ++i) {
        sigma[j][i] = selection.syndrome_bit(i, inst.errors[j]);
      }
    }
    const std::size_t num_patterns = std::size_t{1} << u;
    for (std::size_t pi = 0; pi < num_patterns; ++pi) {
      std::vector<Lit> chosen(inst.candidates.size());
      for (std::size_t c = 0; c < inst.candidates.size(); ++c) {
        chosen[c] = cnf.fresh();
      }
      cnf.add_at_least_one(chosen);
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
          cnf.solver().add_clause(clause);
        }
      }
    }
  };
}

constexpr const char* kEmptyBits = "-";  // A zero-length bit vector.

std::string correction_cache_key(const qec::StateContext& state,
                                 PauliType type,
                                 const std::vector<BitVec>& class_errors,
                                 const CorrectionSynthOptions& options) {
  std::string key = "corr|" + options.engine.fingerprint();
  key += "|mm=" + std::to_string(options.max_measurements);
  key += "|bud=0";  // Selection queries run without a conflict budget.
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

/// The uncached search: one common recovery when it exists (u = 0),
/// else the (u, v) sweep.
std::optional<CorrectionPlan> correction_uncached(
    const qec::StateContext& state, PauliType error_type,
    const std::vector<BitVec>& class_errors,
    const CorrectionSynthOptions& options) {
  const Instance inst = build_instance(state, error_type, class_errors);

  // u = 0: a single unconditional recovery for the whole class.
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
    return plan;
  }
  return sweep_lexicographic(
      state.detector_generators(error_type), options,
      "correction measurements", separate_classes(inst),
      [&inst](std::vector<BitVec> measurements) {
        return finalize(inst, std::move(measurements));
      });
}

}  // namespace

std::optional<CorrectionPlan> synthesize_correction(
    const qec::StateContext& state, PauliType error_type,
    const std::vector<BitVec>& class_errors,
    const CorrectionSynthOptions& options) {
  return cached_synthesis(
      options, "optimal correction plan",
      [&] {
        return correction_cache_key(state, error_type, class_errors,
                                    options);
      },
      encode_plan, decode_plan,
      [&] {
        return correction_uncached(state, error_type, class_errors, options);
      });
}

}  // namespace ftsp::core
