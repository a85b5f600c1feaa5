#include "qec/weight_enumerator.hpp"

#include <stdexcept>

#include "f2/bit_matrix.hpp"
#include "f2/gauss.hpp"
#include "f2/span.hpp"

namespace ftsp::qec {

std::uint64_t WeightDistribution::total() const {
  std::uint64_t sum = 0;
  for (auto c : counts) {
    sum += c;
  }
  return sum;
}

std::size_t WeightDistribution::min_nonzero_weight() const {
  for (std::size_t w = 1; w < counts.size(); ++w) {
    if (counts[w] != 0) {
      return w;
    }
  }
  return 0;
}

namespace {

WeightDistribution distribution_of_span(const f2::BitMatrix& generators,
                                        std::size_t n) {
  const f2::RowSpan span(generators);
  WeightDistribution dist;
  dist.counts.assign(n + 1, 0);
  for (std::size_t i = 0; i < span.size(); ++i) {
    ++dist.counts[span.element(i).popcount()];
  }
  return dist;
}

}  // namespace

WeightDistribution stabilizer_weight_distribution(const CssCode& code,
                                                  PauliType t) {
  return distribution_of_span(code.check_matrix(t), code.num_qubits());
}

WeightDistribution normalizer_weight_distribution(const CssCode& code,
                                                  PauliType t) {
  f2::BitMatrix generators = code.check_matrix(t);
  generators.append_rows(code.logicals(t));
  return distribution_of_span(generators, code.num_qubits());
}

std::size_t distance_from_enumerators(const CssCode& code, PauliType t) {
  const auto stabilizer = stabilizer_weight_distribution(code, t);
  const auto normalizer = normalizer_weight_distribution(code, t);
  for (std::size_t w = 1; w < normalizer.counts.size(); ++w) {
    if (normalizer.counts[w] > stabilizer.counts[w]) {
      return w;
    }
  }
  throw std::logic_error(
      "distance_from_enumerators: no logical element found");
}

}  // namespace ftsp::qec
