#include "core/global_opt.hpp"

#include <array>
#include <stdexcept>
#include <tuple>

#include "core/ft_check.hpp"

namespace ftsp::core {

using qec::PauliType;

namespace {

using Score = std::tuple<std::size_t, std::size_t, double, double>;

/// Optimal layer-2 verification sets enumerated per layer-1 candidate.
constexpr std::size_t kMaxLayer2Sets = 8;

Score score_of(const ProtocolMetrics& m) {
  return {m.total_verif_ancillas, m.total_verif_cnots, m.avg_corr_ancillas,
          m.avg_corr_cnots};
}

}  // namespace

GlobalOptResult globally_optimize(const qec::CssCode& code,
                                  qec::LogicalBasis basis,
                                  const GlobalOptOptions& options_in) {
  // Resolve the device coupling spec once so the direct sub-stage calls
  // below (prep, verification enumeration) see the same constraints the
  // inner synthesize_protocol runs will.
  GlobalOptOptions options = options_in;
  resolve_coupling(options.synthesis, code.num_qubits());

  const qec::StateContext state(code, basis);
  const std::size_t n = code.num_qubits();
  const PauliType t1 =
      basis == qec::LogicalBasis::Zero ? PauliType::X : PauliType::Z;
  const PauliType t2 = other(t1);

  // A shared preparation circuit keeps candidates comparable (the paper
  // also fixes the preparation before optimizing verification+correction).
  const circuit::Circuit prep = synthesize_prep(state, options.synthesis.prep);
  const auto prep_events = enumerate_single_fault_events(n, {&prep});
  const auto dangerous1 = dangerous_errors(state, t1, prep_events);

  std::vector<std::optional<VerificationSet>> layer1_sets;
  if (dangerous1.empty()) {
    layer1_sets.push_back(std::nullopt);
  } else {
    auto verification_options = options.synthesis.verification;
    verification_options.enumerate_limit = options.max_layer1_sets;
    for (auto& set : enumerate_optimal_verifications(
             state.detector_generators(t1), dangerous1,
             verification_options)) {
      layer1_sets.emplace_back(std::move(set));
    }
    if (layer1_sets.empty()) {
      throw std::runtime_error("globally_optimize: no layer-1 verification");
    }
  }

  std::array<FlagPolicy, 2> policies = {FlagPolicy::FlagDangerous,
                                        FlagPolicy::DeferToNextLayer};
  const std::size_t policy_count = options.explore_flag_policies ? 2 : 1;

  GlobalOptResult result;
  bool have_best = false;
  Score best_score{};

  const auto consider = [&](Protocol candidate) {
    ++result.candidates_explored;
    // Only fault-tolerant candidates qualify (all should be; this guards
    // the optimizer against synthesis regressions).
    if (options.validate_candidates &&
        !check_fault_tolerance(candidate).ok) {
      return;
    }
    ProtocolMetrics metrics = compute_metrics(candidate);
    const Score score = score_of(metrics);
    if (!have_best || score < best_score) {
      have_best = true;
      best_score = score;
      result.best = std::move(candidate);
      result.best_metrics = std::move(metrics);
    }
  };

  for (const auto& layer1_set : layer1_sets) {
    for (std::size_t pi = 0; pi < policy_count; ++pi) {
      SynthesisOptions synth = options.synthesis;
      synth.flag_policy = policies[pi];
      SynthesisOverrides overrides;
      overrides.prep = prep;
      overrides.layer1_verification = layer1_set;

      Protocol base;
      try {
        base = synthesize_protocol(code, basis, synth, overrides);
      } catch (const std::runtime_error&) {
        continue;  // This combination admits no correction circuit.
      }

      if (!base.layer2.has_value()) {
        consider(std::move(base));
        continue;
      }

      // Enumerate alternative optimal layer-2 verifications for this
      // layer-1 choice.
      std::vector<const circuit::Circuit*> segments = {&base.prep};
      if (base.layer1.has_value()) {
        segments.push_back(&base.layer1->verif);
      }
      auto events = enumerate_single_fault_events(n, segments);
      std::vector<FaultEvent> surviving;
      for (auto& e : events) {
        const bool hooked =
            base.layer1.has_value() &&
            (e.outcomes[1] & base.layer1->flag_mask).any();
        if (!hooked) {
          surviving.push_back(std::move(e));
        }
      }
      const auto dangerous2 = dangerous_errors(state, t2, surviving);
      auto verification_options = options.synthesis.verification;
      verification_options.enumerate_limit = kMaxLayer2Sets;
      const auto layer2_sets = enumerate_optimal_verifications(
          state.detector_generators(t2), dangerous2, verification_options);

      for (const auto& layer2_set : layer2_sets) {
        SynthesisOverrides full = overrides;
        full.layer2_verification = layer2_set;
        try {
          consider(synthesize_protocol(code, basis, synth, full));
        } catch (const std::runtime_error&) {
          continue;
        }
      }
    }
  }

  if (!have_best) {
    throw std::runtime_error("globally_optimize: no valid candidate found");
  }
  return result;
}

}  // namespace ftsp::core
