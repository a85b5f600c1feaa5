#include "core/proof_capture.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "util/binio.hpp"

namespace ftsp::core {

void ProofSink::record_absent(std::string stage, std::string claim,
                              std::string reason) {
  CapturedProof entry;
  entry.stage = std::move(stage);
  entry.claim = std::move(claim);
  entry.absent_reason = std::move(reason);
  proofs.push_back(std::move(entry));
}

CapturedProof make_checked_proof(std::string stage, std::string claim,
                                 std::size_t bound,
                                 const sat::UnsatProof& proof) {
  CapturedProof entry;
  entry.stage = std::move(stage);
  entry.claim = std::move(claim);
  entry.bound = static_cast<std::uint32_t>(bound);
  entry.present = true;

  // Bake the assumptions in as unit clauses: the persisted premise is
  // self-contained, and an audit re-check runs with an empty assumption
  // set against byte-identical inputs.
  int num_vars = 0;
  for (const auto& clause : proof.premise()) {
    for (const sat::Lit l : clause) {
      num_vars = std::max(num_vars, l.var() + 1);
    }
  }
  for (const sat::Lit a : proof.assumptions) {
    num_vars = std::max(num_vars, a.var() + 1);
  }
  entry.premise_dimacs =
      sat::to_dimacs(num_vars, proof.premise(), proof.assumptions);
  entry.drat = proof.drat();
  {
    // A sub-stage of prep/verif/corr: their series include this time.
    static obs::Histogram& check_us = obs::Registry::instance().histogram(
        obs::labeled("compile.stage.duration_us", "stage", "proof_check"));
    const obs::ScopedTimer timer(check_us);
    // The lemmas come from the very bytes that are fingerprinted and
    // stored; the hints stay behind in memory.
    entry.checked = sat::check_hinted(proof.premise(), proof.assumptions,
                                      entry.drat, proof.hints(),
                                      proof.refutation)
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
