#pragma once

#include <cstddef>

#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "f2/span.hpp"
#include "qec/css_code.hpp"
#include "qec/pauli.hpp"

namespace ftsp::qec {

/// Which logical basis state is being prepared.
enum class LogicalBasis {
  Zero,  ///< |0...0>_L, the +1 eigenstate of all logical Zs.
  Plus,  ///< |+...+>_L, the +1 eigenstate of all logical Xs.
};

constexpr const char* name(LogicalBasis b) {
  return b == LogicalBasis::Zero ? "|0>_L" : "|+>_L";
}

/// Of a value kept per logical flip kind (a flag or a count), the one
/// for the flip that spoils the prepared state `b`: an X flip spoils
/// |0>_L and a Z flip spoils |+>_L; the other kind acts trivially on it.
template <typename T>
constexpr T basis_failure(LogicalBasis b, T x_flip, T z_flip) {
  return b == LogicalBasis::Plus ? z_flip : x_flip;
}

/// Error semantics for a *prepared logical basis state* of a CSS code.
///
/// The prepared state is stabilized by a larger group than the code: for
/// `|0>_L` the Z-side state stabilizers are `<Hz, Z_L1..Z_Lk>` while the
/// X side stays `<Hx>` (and mirrored for `|+>_L`). All weight reduction,
/// error equivalence and detectability questions during state preparation
/// must use this *state* group:
///
///  * Two errors of type T are equivalent iff they differ by an element of
///    the type-T state stabilizer span.
///  * A type-T error is *dangerous* iff its state-reduced weight is >= 2
///    (Definition 1 of the paper with t = 1, which covers all d < 5).
///  * A type-T error is detected by measuring elements of the
///    opposite-type state stabilizer span (they anticommute). E.g. the
///    weight-3 measurement Z1Z2Z3 = Z_L that verifies the Steane |0>_L is
///    only available because Z_L is a state stabilizer.
class StateContext {
 public:
  StateContext(const CssCode& code, LogicalBasis basis);

  const CssCode& code() const { return *code_; }
  LogicalBasis basis() const { return basis_; }
  std::size_t num_qubits() const { return code_->num_qubits(); }

  /// Generators of the type-t part of the state stabilizer group.
  const f2::BitMatrix& stabilizer_generators(PauliType t) const {
    return t == PauliType::X ? x_generators_ : z_generators_;
  }

  /// Full span of the type-t state stabilizers.
  const f2::RowSpan& stabilizer_span(PauliType t) const {
    return t == PauliType::X ? x_span_ : z_span_;
  }

  /// Candidate measurement operators for detecting type-t errors: the
  /// opposite-type state stabilizer generators.
  const f2::BitMatrix& detector_generators(PauliType t) const {
    return stabilizer_generators(other(t));
  }

  /// Minimum weight of `error` (a type-t support vector) over its
  /// equivalence class modulo the type-t state stabilizers.
  std::size_t reduced_weight(PauliType t, const f2::BitVec& error) const {
    return stabilizer_span(t).coset_min_weight(error);
  }

  /// Minimum-weight representative of the equivalence class of `error`.
  f2::BitVec reduced_representative(PauliType t,
                                    const f2::BitVec& error) const {
    return stabilizer_span(t).coset_min_representative(error);
  }

  /// Canonical coset label (equal iff two errors are equivalent).
  f2::BitVec coset_key(PauliType t, const f2::BitVec& error) const {
    return stabilizer_span(t).coset_canonical(error);
  }

  /// True iff a single occurrence of `error` violates strict fault
  /// tolerance for t = 1: reduced weight at least 2.
  bool is_dangerous(PauliType t, const f2::BitVec& error) const {
    return reduced_weight(t, error) >= 2;
  }

 private:
  const CssCode* code_;
  LogicalBasis basis_;
  f2::BitMatrix x_generators_;
  f2::BitMatrix z_generators_;
  f2::RowSpan x_span_;
  f2::RowSpan z_span_;
};

}  // namespace ftsp::qec
