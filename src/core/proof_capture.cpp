#include "core/proof_capture.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "obs/registry.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "util/binio.hpp"

namespace ftsp::core {

namespace {

using sat::ProofHints;

/// Copies into `out` the first `lines` lines of `log` that a proof citing
/// the lemmas `cited` keeps: those lemmas' addition lines and the
/// deletions of kept lemmas. A deletion names a literal set, not a clause,
/// so it is kept only while every copy of that set the full proof holds is
/// a kept one: the copy the solver deleted is then kept too, and no clause
/// a later chain cites goes missing. Dropping a deletion never breaks a
/// RUP step.
void trim_lines(const sat::ProofLog& log, std::size_t lines,
                const std::vector<bool>& cited, sat::ProofLog& out) {
  const auto end = log.deletions.begin() + static_cast<std::ptrdiff_t>(lines);
  const bool deletions = std::find(log.deletions.begin(), end, true) != end;
  struct Copies {
    std::size_t all = 0;   // Active in the full proof.
    std::size_t kept = 0;  // Active in the trimmed proof.
  };
  std::map<std::vector<sat::Lit>, Copies> copies;
  const auto copies_of = [&copies](std::span<const sat::Lit> line) -> auto& {
    std::vector<sat::Lit> set(line.begin(), line.end());
    std::sort(set.begin(), set.end());
    return copies[std::move(set)];
  };
  // One allocation each, sized for the whole prefix: outgrown buffers
  // would stay in the heap beside the session log.
  out.lits.reserve(lines == 0 ? 0 : log.line_ends[lines - 1]);
  out.line_ends.reserve(lines);
  std::size_t lemma = 0;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::span<const sat::Lit> line = log.line(i);
    if (log.deletions[i]) {
      Copies& c = copies_of(line);
      if (c.kept > 0 && c.kept >= c.all) {
        out.add_line(line, /*deletion=*/true);
        --c.kept;
      }
      c.all -= c.all > 0 ? 1 : 0;
      continue;
    }
    const bool keep = lemma < cited.size() && cited[lemma];
    ++lemma;
    if (keep) {
      out.add_line(line, /*deletion=*/false);
    }
    if (deletions) {
      Copies& c = copies_of(line);
      ++c.all;
      c.kept += keep ? 1 : 0;
    }
  }
}

/// Fills `log` with the core of `proof` (see `trim_proof`) and returns
/// the renumbered chain of the empty clause.
std::vector<std::uint32_t> trim_into(const sat::UnsatProof& proof,
                                     sat::ProofLog& log) {
  const std::span<const std::vector<sat::Lit>> premise = proof.premise();
  const sat::RefutationCore core = sat::refutation_core(
      proof.hints(), proof.steps, premise.size(), proof.refutation);

  // A kept clause's new ID is its rank among the kept ones.
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

  ProofHints::Reader reader(proof.hints(), proof.steps);
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
  trim_lines(*proof.log, proof.lines, core.lemmas, log);
  std::vector<std::uint32_t> refutation(proof.refutation.size());
  std::transform(proof.refutation.begin(), proof.refutation.end(),
                 refutation.begin(), renumber);
  return refutation;
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
  auto log = std::make_shared<sat::ProofLog>();
  std::vector<std::uint32_t> refutation = trim_into(proof, *log);
  return {log, log->premise.size(), log->lines(), log->hints.steps(),
          proof.assumptions, std::move(refutation)};
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
  sat::ProofLog trimmed;
  const std::vector<std::uint32_t> refutation = trim_into(proof, trimmed);
  // Bake the assumptions in as unit clauses: the persisted premise is
  // self-contained, and an audit re-check runs with an empty assumption
  // set against byte-identical inputs.
  entry.premise_dimacs =
      sat::to_dimacs(num_vars, trimmed.premise, proof.assumptions);
  entry.drat = sat::to_drat(trimmed, trimmed.lines());
  // The text stands for the kept lines from here on: free them before the
  // check parses it.
  std::vector<sat::Lit>().swap(trimmed.lits);
  {
    // A sub-stage of prep/verif/corr: their series include this time.
    static obs::Histogram& check_us = obs::Registry::instance().histogram(
        obs::labeled("compile.stage.duration_us", "stage", "proof_check"));
    const obs::ScopedTimer timer(check_us);
    // The lemmas come from the very bytes that are fingerprinted and
    // stored; the renumbered hints stay behind in memory.
    entry.checked = sat::check_hinted(trimmed.premise, proof.assumptions,
                                      entry.drat, trimmed.hints, refutation)
                        .ok;
  }
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
