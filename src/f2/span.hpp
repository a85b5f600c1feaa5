#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"

namespace ftsp::f2 {

/// Largest span dimension `RowSpan` materializes (2^24 elements).
inline constexpr std::size_t kMaxSpanDimension = 24;

/// The row space of an F2 matrix, with the full element list materialized.
///
/// QEC codes in this library are small (rank of any stabilizer-side matrix
/// is at most ~12), so enumerating all `2^rank` span elements once and
/// reusing the list is both simple and fast. The enumeration uses a Gray
/// code so each element is one XOR away from the previous one. The
/// elements live in one flat array of packed words, and the coset queries
/// XOR and popcount those words in place: no query allocates per element.
///
/// The main client is stabilizer-reduced weight computation:
/// `wt_S(e) = min_{s in span} wt(e + s)`.
class RowSpan {
 public:
  RowSpan() = default;

  /// Builds the span of the rows of `m`. The matrix may contain dependent
  /// rows; a basis is extracted first. Throws `std::length_error` above
  /// `kMaxSpanDimension`.
  explicit RowSpan(const BitMatrix& m);

  std::size_t vector_size() const { return vector_size_; }
  std::size_t dimension() const { return basis_.rows(); }
  std::size_t size() const { return size_; }

  /// Element `i` of the `2^dimension` elements in Gray-code order
  /// (element 0 is the zero vector).
  BitVec element(std::size_t i) const;

  /// True iff `v` lies in the span (via RREF reduction, not enumeration).
  bool contains(const BitVec& v) const;

  /// Canonical representative of the coset `v + span` (RREF reduction);
  /// equal for two vectors iff they are in the same coset.
  BitVec coset_canonical(const BitVec& v) const;

  /// Minimum Hamming weight over the coset `v + span`.
  std::size_t coset_min_weight(const BitVec& v) const;

  /// The first element of the coset `v + span`, in Gray-code order of the
  /// span, attaining the minimum weight.
  BitVec coset_min_representative(const BitVec& v) const;

  const BitMatrix& basis_rref() const { return basis_; }
  const std::vector<std::size_t>& pivots() const { return pivots_; }

 private:
  std::size_t vector_size_ = 0;
  std::size_t words_ = 0;            // Packed words per element.
  std::size_t size_ = 0;             // 2^dimension once built.
  BitMatrix basis_;                  // RREF basis rows.
  std::vector<std::size_t> pivots_;  // Pivot columns of the basis rows.
  std::vector<std::uint64_t> elements_;  // size_ x words_, Gray-code order.

  /// Index of the first element `s` minimizing `wt(v + s)`, and that
  /// weight.
  std::pair<std::size_t, std::size_t> closest_element(const BitVec& v) const;
};

}  // namespace ftsp::f2
