#include "core/verification.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "core/bound_sweep.hpp"
#include "core/stabilizer_select.hpp"
#include "sat/cnf_builder.hpp"

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

/// The verification stage's clauses: every dangerous error anticommutes
/// with at least one selected stabilizer.
auto detect_all(const std::vector<BitVec>& errors) {
  return [&errors](CnfBuilder& cnf, StabilizerSelection& selection) {
    for (const BitVec& e : errors) {
      std::vector<sat::Lit> detecting;
      detecting.reserve(selection.count());
      for (std::size_t i = 0; i < selection.count(); ++i) {
        detecting.push_back(selection.syndrome_bit(i, e));
      }
      cnf.add_at_least_one(detecting);
    }
  };
}

VerificationSet to_set(std::vector<BitVec> supports) {
  return VerificationSet{std::move(supports)};
}

std::string verification_cache_key(const BitMatrix& generators,
                                   const std::vector<BitVec>& errors,
                                   const VerificationSynthOptions& options) {
  std::string key = "verif|" + options.engine.fingerprint();
  key += "|mm=" + std::to_string(options.max_measurements);
  key += "|bud=0";  // Selection queries run without a conflict budget.
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
  return cached_synthesis(
      options, "optimal verification set",
      [&] {
        return verification_cache_key(candidate_generators, dangerous_errors,
                                      options);
      },
      encode_set, decode_set,
      [&] {
        return sweep_lexicographic(candidate_generators, options,
                                   "verification measurements",
                                   detect_all(dangerous_errors), to_set);
      });
}

std::vector<VerificationSet> enumerate_optimal_verifications(
    const BitMatrix& candidate_generators,
    const std::vector<BitVec>& dangerous_errors,
    const VerificationSynthOptions& options) {
  if (dangerous_errors.empty()) {
    return {VerificationSet{}};
  }
  const auto stage_clauses = detect_all(dangerous_errors);
  std::unique_ptr<SelectionQuery> query;
  const auto optimum =
      sweep_lexicographic(candidate_generators, options,
                          "verification measurements", stage_clauses, to_set,
                          &query);
  if (!optimum.has_value()) {
    return {};
  }
  const std::size_t v = optimum->total_weight();

  // Enumerate models at the optimum, blocking each found selection. The
  // incremental sweep query is reused warm (the bound becomes a hard
  // unit); the from-scratch path re-encodes once at the optimum.
  if (query != nullptr) {
    if (v < query->ladder.max_bound()) {
      query->solver->add_unit(query->ladder.at_most(v));
    }
  } else {
    query = std::make_unique<SelectionQuery>(
        candidate_generators, optimum->count(), options, stage_clauses, v);
  }

  std::vector<VerificationSet> results;
  std::set<std::vector<std::string>> seen;
  while (results.size() < options.enumerate_limit && query->solver->okay() &&
         query->solver->solve()) {
    VerificationSet set = to_set(query->extract_supports());
    // Canonicalize as an unordered multiset of supports.
    std::vector<std::string> dedupe_key;
    for (const auto& s : set.stabilizers) {
      dedupe_key.push_back(s.to_string());
    }
    std::sort(dedupe_key.begin(), dedupe_key.end());
    if (seen.insert(std::move(dedupe_key)).second) {
      results.push_back(std::move(set));
    }
    query->selection.block_model(*query->solver);
  }
  return results;
}

}  // namespace ftsp::core
