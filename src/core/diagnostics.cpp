#include "core/diagnostics.hpp"

#include <initializer_list>
#include <random>
#include <vector>

#include "f2/gauss.hpp"
#include "util/mt64.hpp"

namespace ftsp::core {

namespace {

/// A fault op at one location, with its conditional probability weight
/// 1/|ops| given the location faulted.
struct Event {
  const circuit::Circuit* segment;
  std::size_t gate_index;
  int op;
  double weight;
};

/// Runs the protocol with `events` injected. A run executes each
/// (segment, gate) location at most once, so each event fires at most
/// once.
Executor::Result run_with(const Executor& executor,
                          std::initializer_list<const Event*> events) {
  return executor.run([&](const SiteRef& ref) -> int {
    for (const Event* e : events) {
      if (ref.segment == e->segment && ref.gate_index == e->gate_index) {
        return e->op;
      }
    }
    return -1;
  });
}

}  // namespace

TwoFaultSurvey survey_two_faults(const Executor& executor, std::size_t t,
                                 std::size_t samples, std::uint64_t seed) {
  const Protocol& protocol = executor.protocol();
  const qec::StateContext& state = *protocol.state;
  util::Mt64 rng(seed);

  // Flatten the always-executed fault locations for uniform pair
  // sampling.
  struct Location {
    const circuit::Circuit* segment;
    std::size_t gate_index;
    std::size_t num_ops;
  };
  std::vector<Location> locations;
  for (const Executor::Segment& segment : executor.segments()) {
    if (segment.branch) {
      continue;
    }
    const auto& gates = segment.circuit->gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      locations.push_back(
          {segment.circuit, g,
           sim::num_fault_ops(sim::location_kind(gates[g].kind))});
    }
  }

  TwoFaultSurvey survey;
  if (locations.size() < 2) {
    return survey;
  }
  std::uniform_int_distribution<std::size_t> pick(0, locations.size() - 1);
  for (std::size_t s = 0; s < samples; ++s) {
    std::size_t a = pick(rng);
    std::size_t b = pick(rng);
    while (b == a) {
      b = pick(rng);
    }
    const auto op_a = static_cast<int>(rng() % locations[a].num_ops);
    const auto op_b = static_cast<int>(rng() % locations[b].num_ops);
    const Event event_a{locations[a].segment, locations[a].gate_index, op_a,
                        0.0};
    const Event event_b{locations[b].segment, locations[b].gate_index, op_b,
                        0.0};
    const auto result = run_with(executor, {&event_a, &event_b});
    ++survey.pairs_checked;
    const std::size_t wx =
        state.reduced_weight(qec::PauliType::X, result.data_error.x);
    const std::size_t wz =
        state.reduced_weight(qec::PauliType::Z, result.data_error.z);
    if (wx > t || wz > t) {
      ++survey.weight_violations;
    }
    // Logical-class residual: the X part is (a representative of) a
    // logical class iff it anticommutes with some logical Z; mirrored for
    // the Z part after reduction.
    bool logical = false;
    for (std::size_t l = 0; l < protocol.code->num_logical(); ++l) {
      logical = logical ||
                result.data_error.x.dot(protocol.code->logical_z().row(l)) ||
                result.data_error.z.dot(protocol.code->logical_x().row(l));
    }
    if (logical) {
      ++survey.logical_class_residuals;
    }
  }
  return survey;
}

LeadingOrder exact_leading_order(const Executor& executor,
                                 const decoder::PerfectDecoder& decoder) {
  const Protocol& protocol = executor.protocol();

  // Flatten the (location, op) events of the always-executed segments.
  std::vector<Event> events;
  // Remember location boundaries so pairs use *distinct locations*.
  std::vector<std::pair<std::size_t, std::size_t>> location_ranges;
  for (const Executor::Segment& segment : executor.segments()) {
    if (segment.branch) {
      continue;
    }
    const auto& gates = segment.circuit->gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const std::size_t begin = events.size();
      const std::size_t num_ops =
          sim::num_fault_ops(sim::location_kind(gates[g].kind));
      for (std::size_t o = 0; o < num_ops; ++o) {
        events.push_back({segment.circuit, g, static_cast<int>(o),
                          1.0 / static_cast<double>(num_ops)});
      }
      location_ranges.emplace_back(begin, events.size());
    }
  }

  LeadingOrder result;

  // Single faults: exact FT sanity (all must pass).
  for (const auto& e : events) {
    const auto run = run_with(executor, {&e});
    if (decoder.decode(run.data_error).fails(protocol.basis)) {
      ++result.single_fault_failures;
    }
  }

  // All unordered pairs of events at distinct locations.
  for (std::size_t la = 0; la < location_ranges.size(); ++la) {
    for (std::size_t lb = la + 1; lb < location_ranges.size(); ++lb) {
      for (std::size_t ia = location_ranges[la].first;
           ia < location_ranges[la].second; ++ia) {
        for (std::size_t ib = location_ranges[lb].first;
             ib < location_ranges[lb].second; ++ib) {
          const Event& a = events[ia];
          const Event& b = events[ib];
          const auto run = run_with(executor, {&a, &b});
          ++result.pairs_enumerated;
          const auto logical = decoder.decode(run.data_error);
          if (logical.fails(protocol.basis)) {
            result.c2 += a.weight * b.weight;
          }
          if (logical.x_flip || logical.z_flip) {
            result.c2_any += a.weight * b.weight;
          }
        }
      }
    }
  }
  return result;
}

}  // namespace ftsp::core
