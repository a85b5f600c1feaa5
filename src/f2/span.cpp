#include "f2/span.hpp"

#include <bit>
#include <cassert>
#include <span>
#include <stdexcept>

#include "f2/gauss.hpp"

namespace ftsp::f2 {

RowSpan::RowSpan(const BitMatrix& m)
    : vector_size_(m.cols()), words_((m.cols() + 63) / 64) {
  auto red = rref(m);
  pivots_ = red.pivots;
  red.reduced.remove_zero_rows();
  basis_ = std::move(red.reduced);

  const std::size_t dim = basis_.rows();
  if (dim > kMaxSpanDimension) {
    throw std::length_error("RowSpan: span too large to materialize");
  }
  size_ = std::size_t{1} << dim;
  elements_.assign(size_ * words_, 0);
  for (std::size_t i = 1; i < size_; ++i) {
    // Gray code: element i differs from i-1 in basis row ctz(i).
    const auto flip = static_cast<std::size_t>(std::countr_zero(i));
    const std::span<const std::uint64_t> row = basis_.row(flip).words();
    const std::uint64_t* previous = elements_.data() + (i - 1) * words_;
    std::uint64_t* current = elements_.data() + i * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      current[w] = previous[w] ^ row[w];
    }
  }
}

BitVec RowSpan::element(std::size_t i) const {
  assert(i < size_);
  return BitVec::from_words(
      vector_size_,
      std::span<const std::uint64_t>(elements_.data() + i * words_, words_));
}

bool RowSpan::contains(const BitVec& v) const {
  if (basis_.empty()) {
    return v.none();
  }
  return reduce_against(v, basis_, pivots_).none();
}

BitVec RowSpan::coset_canonical(const BitVec& v) const {
  if (basis_.empty()) {
    return v;
  }
  return reduce_against(v, basis_, pivots_);
}

std::pair<std::size_t, std::size_t> RowSpan::closest_element(
    const BitVec& v) const {
  if (v.size() != vector_size_) {
    throw std::invalid_argument("RowSpan: vector size differs from span");
  }
  const std::span<const std::uint64_t> target = v.words();
  std::size_t best = v.size() + 1;
  std::size_t best_index = 0;
  const std::uint64_t* element = elements_.data();
  for (std::size_t i = 0; i < size_; ++i, element += words_) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < words_; ++j) {
      w += static_cast<std::size_t>(std::popcount(target[j] ^ element[j]));
    }
    if (w < best) {
      best = w;
      best_index = i;
      if (best == 0) {
        break;
      }
    }
  }
  return {best_index, best};
}

std::size_t RowSpan::coset_min_weight(const BitVec& v) const {
  return closest_element(v).second;
}

BitVec RowSpan::coset_min_representative(const BitVec& v) const {
  BitVec representative = element(closest_element(v).first);
  representative ^= v;
  return representative;
}

}  // namespace ftsp::f2
