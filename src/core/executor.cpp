#include "core/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/samplers.hpp"

namespace ftsp::core {

Executor::Executor(const Protocol& protocol) : protocol_(&protocol) {
  std::uint32_t site_base = 0;
  const auto add = [&](const circuit::Circuit& c, bool branch) {
    index_.emplace(&c, segments_.size());
    Segment& segment =
        segments_.emplace_back(Segment{&c, {}, site_base, branch});
    for (const circuit::Gate& g : c.gates()) {
      ++segment.site_counts[static_cast<std::size_t>(
          sim::location_kind(g.kind))];
    }
    site_base += static_cast<std::uint32_t>(c.gates().size());
  };
  add(protocol.prep, false);
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (!layer->has_value()) {
      continue;
    }
    add((*layer)->verif, false);
    for (const auto& [key, branch] : (*layer)->branches) {
      (void)key;
      add(branch.circ, true);
    }
  }
}

void Executor::check_layout(const FrameBatchLayout& layout,
                            const char* caller) const {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(caller) + ": layout " + what);
  };
  if (layout.segments.size() < segments_.size()) {
    fail("has too few segments");
  }
  if (layout.segments.size() > segments_.size()) {
    fail("has too many segments");
  }
  std::uint32_t peak_qubits = 0;
  std::uint32_t peak_cbits = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const circuit::Circuit& c = *segments_[i].circuit;
    const FrameBatchLayout::Segment& stored = layout.segments[i];
    if (stored.num_qubits != c.num_qubits() ||
        stored.num_cbits != c.num_cbits()) {
      fail("does not match protocol (segment " + std::to_string(i) +
           " dimensions)");
    }
    if (stored.site_counts != segments_[i].site_counts) {
      fail("does not match protocol (segment " + std::to_string(i) +
           " site counts)");
    }
    peak_qubits = std::max(peak_qubits, stored.num_qubits);
    peak_cbits = std::max(peak_cbits, stored.num_cbits);
  }
  if (layout.peak_qubits != peak_qubits || layout.peak_cbits != peak_cbits) {
    fail("does not match protocol (peak dimensions)");
  }
}

}  // namespace ftsp::core
