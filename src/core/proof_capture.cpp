#include "core/proof_capture.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/registry.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "util/binio.hpp"

namespace ftsp::core {

namespace {

using sat::ProofHints;

/// A trimmed refutation before it is shared: the log and the renumbered
/// chain of the empty clause.
struct TrimmedLog {
  sat::ProofLog log;
  std::vector<std::uint32_t> refutation;
};

/// The literal set of a DRAT line (its DIMACS values, sorted): deletions
/// name clauses by set, not by the order written.
std::string clause_key(std::string_view line) {
  std::vector<int> lits;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (p != end) {
    int value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{}) {
      ++p;  // A space, the "d" prefix or the newline.
      continue;
    }
    p = next;
    if (value != 0) {
      lits.push_back(value);
    }
  }
  std::sort(lits.begin(), lits.end());
  return {reinterpret_cast<const char*>(lits.data()),
          lits.size() * sizeof(int)};
}

/// The lines of a solver's DRAT text (one clause per line) that a proof
/// citing the lemmas `cited` keeps: those lemmas' addition lines, the
/// terminating empty clause and the deletions of kept lemmas. A deletion
/// names a literal set, not a clause, so it is kept only while every copy
/// of that set the full proof holds is a kept one: the copy the solver
/// deleted is then kept too, and no clause a later chain cites goes
/// missing. Dropping a deletion never breaks a RUP step.
std::string trim_drat(std::string_view drat, const std::vector<bool>& cited) {
  const bool deletions = drat.starts_with("d ") ||
                         drat.find("\nd ") != std::string_view::npos;
  struct Copies {
    std::size_t all = 0;   // Active in the full proof.
    std::size_t kept = 0;  // Active in the trimmed proof.
  };
  std::unordered_map<std::string, Copies> copies;
  std::string out;
  std::size_t lemma = 0;
  for (std::size_t pos = 0; pos < drat.size();) {
    const std::size_t newline = drat.find('\n', pos);
    const std::size_t end =
        newline == std::string_view::npos ? drat.size() : newline + 1;
    const std::string_view line = drat.substr(pos, end - pos);
    pos = end;
    if (line.starts_with("d ")) {
      Copies& c = copies[clause_key(line)];
      if (c.kept > 0 && c.kept >= c.all) {
        out += line;
        --c.kept;
      }
      c.all -= c.all > 0 ? 1 : 0;
      continue;
    }
    // Past the last lemma comes only the empty clause.
    const bool keep = lemma >= cited.size() || cited[lemma];
    ++lemma;
    if (keep) {
      out += line;
    }
    if (deletions) {
      Copies& c = copies[clause_key(line)];
      ++c.all;
      c.kept += keep ? 1 : 0;
    }
  }
  // The text lives as long as its artifact: no growth slack.
  out.shrink_to_fit();
  return out;
}

TrimmedLog trim_log(const sat::UnsatProof& proof) {
  const std::vector<std::vector<sat::Lit>>& premise = proof.premise();
  const sat::RefutationCore core =
      sat::refutation_core(proof.hints(), premise.size(), proof.refutation);

  // A kept clause's new ID is its rank among the kept ones.
  TrimmedLog trimmed;
  sat::ProofLog& log = trimmed.log;
  std::vector<std::uint32_t> premise_id(premise.size(), ProofHints::kNone);
  for (std::size_t i = 0; i < premise.size(); ++i) {
    if (core.premise[i]) {
      premise_id[i] = static_cast<std::uint32_t>(log.premise.size());
      log.premise.push_back(premise[i]);
    }
  }
  std::vector<std::uint32_t> lemma_id(core.lemmas.size(), ProofHints::kNone);
  std::uint32_t kept = 0;
  for (std::size_t k = 0; k < core.lemmas.size(); ++k) {
    if (core.lemmas[k]) {
      lemma_id[k] = ProofHints::kLemma | kept++;
    }
  }
  const auto renumber = [&](std::uint32_t id) {
    const bool lemma = (id & ProofHints::kLemma) != 0;
    const bool assumption = (id & ProofHints::kAssumption) != 0;
    if (lemma == assumption) {
      return !lemma && id < premise_id.size() ? premise_id[id]
                                              : ProofHints::kNone;
    }
    if (assumption) {
      return id;  // Every assumption stays, under its own index.
    }
    const std::size_t k = id & ~ProofHints::kLemma;
    return k < lemma_id.size() ? lemma_id[k] : ProofHints::kNone;
  };

  ProofHints::Reader reader(proof.hints());
  ProofHints::Step step;
  std::vector<std::uint32_t> chain;
  std::size_t lemma = 0;
  while (reader.next(step)) {
    const bool root = step.unit != sat::Lit::undef;
    if (!root && !core.lemmas[lemma++]) {
      continue;
    }
    chain.clear();
    std::transform(step.chain.begin(), step.chain.end(),
                   std::back_inserter(chain), renumber);
    if (root) {
      log.hints.add_root(step.unit, chain);
    } else {
      log.hints.add_lemma(chain);
    }
  }
  std::transform(proof.refutation.begin(), proof.refutation.end(),
                 std::back_inserter(trimmed.refutation), renumber);
  log.drat = trim_drat(proof.drat(), core.lemmas);
  return trimmed;
}

}  // namespace

void ProofSink::record_absent(std::string stage, std::string claim,
                              std::string reason) {
  CapturedProof entry;
  entry.stage = std::move(stage);
  entry.claim = std::move(claim);
  entry.absent_reason = std::move(reason);
  proofs.push_back(std::move(entry));
}

sat::UnsatProof trim_proof(const sat::UnsatProof& proof) {
  TrimmedLog trimmed = trim_log(proof);
  sat::UnsatProof out;
  out.log = std::make_shared<const sat::ProofLog>(std::move(trimmed.log));
  out.assumptions = proof.assumptions;
  out.refutation = std::move(trimmed.refutation);
  return out;
}

CapturedProof make_checked_proof(std::string stage, std::string claim,
                                 std::size_t bound,
                                 const sat::UnsatProof& proof) {
  CapturedProof entry;
  entry.stage = std::move(stage);
  entry.claim = std::move(claim);
  entry.bound = static_cast<std::uint32_t>(bound);
  entry.present = true;

  // The DIMACS header keeps the full formula's variable count: the DRAT
  // may name any of its variables.
  int num_vars = 0;
  for (const auto& clause : proof.premise()) {
    for (const sat::Lit l : clause) {
      num_vars = std::max(num_vars, l.var() + 1);
    }
  }
  for (const sat::Lit a : proof.assumptions) {
    num_vars = std::max(num_vars, a.var() + 1);
  }
  TrimmedLog trimmed = trim_log(proof);
  // Bake the assumptions in as unit clauses: the persisted premise is
  // self-contained, and an audit re-check runs with an empty assumption
  // set against byte-identical inputs.
  entry.premise_dimacs =
      sat::to_dimacs(num_vars, trimmed.log.premise, proof.assumptions);
  {
    // A sub-stage of prep/verif/corr: their series include this time.
    static obs::Histogram& check_us = obs::Registry::instance().histogram(
        obs::labeled("compile.stage.duration_us", "stage", "proof_check"));
    const obs::ScopedTimer timer(check_us);
    // The lemmas come from the very bytes that are fingerprinted and
    // stored; the renumbered hints stay behind in memory.
    entry.checked =
        sat::check_hinted(trimmed.log.premise, proof.assumptions,
                          trimmed.log.drat, trimmed.log.hints,
                          trimmed.refutation)
            .ok;
  }
  entry.drat = std::move(trimmed.log.drat);
  entry.premise_size = entry.premise_dimacs.size();
  entry.premise_crc = util::crc32(entry.premise_dimacs);
  entry.drat_size = entry.drat.size();
  entry.drat_crc = util::crc32(entry.drat);
  return entry;
}

void record_sweep_outcome(ProofSink& sink, const std::string& stage,
                          const std::string& what, std::size_t u,
                          bool feasible,
                          const std::optional<SweepRefutation>& refutation) {
  if (!feasible) {
    // The unbounded leg: u measurements cannot work at any total weight,
    // anchoring the minimality of every larger feasible u.
    sink.record(make_checked_proof(
        stage,
        "no " + std::to_string(u) + " " + what +
            " suffice at any total weight",
        u, refutation.value().proof));
    return;
  }
  if (!refutation.has_value()) {
    sink.record_absent(
        stage,
        std::to_string(u) + " " + what + " at the minimal total weight",
        "optimal weight equals the structural lower bound; the sweep had "
        "no UNSAT leg");
    return;
  }
  const std::string claim = "no " + std::to_string(u) + " " + what +
                            " of total weight <= " +
                            std::to_string(refutation->bound) + " suffice";
  sink.record(
      make_checked_proof(stage, claim, refutation->bound, refutation->proof));
}

}  // namespace ftsp::core
