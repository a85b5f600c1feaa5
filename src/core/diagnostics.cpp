#include "core/diagnostics.hpp"

#include <random>
#include <vector>

#include "f2/gauss.hpp"

namespace ftsp::core {

TwoFaultSurvey survey_two_faults(const Executor& executor, std::size_t t,
                                 std::size_t samples, std::uint64_t seed) {
  const Protocol& protocol = executor.protocol();
  const qec::StateContext& state = *protocol.state;
  std::mt19937_64 rng(seed);

  // Flatten the always-executed fault locations for uniform pair
  // sampling.
  struct Location {
    const circuit::Circuit* segment;
    std::size_t gate_index;
    std::size_t num_ops;
  };
  std::vector<Location> locations;
  std::vector<const circuit::Circuit*> segments = {&protocol.prep};
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (layer->has_value()) {
      segments.push_back(&(*layer)->verif);
    }
  }
  for (const auto* segment : segments) {
    const auto sites = sim::enumerate_fault_sites(*segment);
    for (const auto& site : sites) {
      locations.push_back({segment, site.gate_index, site.ops.size()});
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
    const std::size_t op_a = rng() % locations[a].num_ops;
    const std::size_t op_b = rng() % locations[b].num_ops;

    const auto chooser = [&](const SiteRef& ref) -> int {
      for (const std::size_t which : {a, b}) {
        const Location& loc = locations[which];
        if (ref.segment == loc.segment &&
            ref.gate_index == loc.gate_index) {
          return static_cast<int>(which == a ? op_a : op_b);
        }
      }
      return -1;
    };
    const auto result = executor.run(chooser);
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

  // Flatten (location, op) events with their conditional probability
  // weight 1/|ops| given the location faulted.
  struct Event {
    const circuit::Circuit* segment;
    std::size_t gate_index;
    int op;
    double weight;
  };
  std::vector<Event> events;
  std::vector<const circuit::Circuit*> segments = {&protocol.prep};
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (layer->has_value()) {
      segments.push_back(&(*layer)->verif);
    }
  }
  // Remember location boundaries so pairs use *distinct locations*.
  std::vector<std::pair<std::size_t, std::size_t>> location_ranges;
  for (const auto* segment : segments) {
    const auto sites = sim::enumerate_fault_sites(*segment);
    for (const auto& site : sites) {
      const std::size_t begin = events.size();
      for (std::size_t o = 0; o < site.ops.size(); ++o) {
        events.push_back({segment, site.gate_index, static_cast<int>(o),
                          1.0 / static_cast<double>(site.ops.size())});
      }
      location_ranges.emplace_back(begin, events.size());
    }
  }

  LeadingOrder result;

  // Single faults: exact FT sanity (all must pass).
  for (const auto& e : events) {
    bool injected = false;
    const auto run = executor.run([&](const SiteRef& ref) -> int {
      if (!injected && ref.segment == e.segment &&
          ref.gate_index == e.gate_index) {
        injected = true;
        return e.op;
      }
      return -1;
    });
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
          bool a_done = false;
          bool b_done = false;
          const auto run = executor.run([&](const SiteRef& ref) -> int {
            if (!a_done && ref.segment == a.segment &&
                ref.gate_index == a.gate_index) {
              a_done = true;
              return a.op;
            }
            if (!b_done && ref.segment == b.segment &&
                ref.gate_index == b.gate_index) {
              b_done = true;
              return b.op;
            }
            return -1;
          });
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
