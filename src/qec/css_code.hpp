#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "qec/pauli.hpp"

namespace ftsp::qec {

/// An [[n, k, d]] Calderbank-Shor-Steane stabilizer code.
///
/// Defined by two check matrices: rows of `hx` are X-type stabilizer
/// generators (as qubit-support vectors), rows of `hz` are Z-type
/// generators. CSS validity (`Hx * Hz^T = 0`) is checked on construction.
/// Logical operator representatives and the exact distance are computed
/// eagerly. The type-t distance walks the type-t normalizer (the r_t
/// stabilizer rows and the k logicals) in Gray-code order, 2^(r_t + k)
/// XOR steps: at most 2^11 for a library code, microseconds. Above
/// `f2::kMaxSpanDimension` it falls back to a search over error weights.
class CssCode {
 public:
  CssCode(std::string name, f2::BitMatrix hx, f2::BitMatrix hz);

  const std::string& name() const { return name_; }
  std::size_t num_qubits() const { return n_; }
  std::size_t num_logical() const { return k_; }

  const f2::BitMatrix& hx() const { return hx_; }
  const f2::BitMatrix& hz() const { return hz_; }
  const f2::BitMatrix& check_matrix(PauliType t) const {
    return t == PauliType::X ? hx_ : hz_;
  }

  /// Logical X (Z) representatives: k rows, each a support vector. The
  /// i-th X and Z logicals anticommute pairwise (symplectic pairing).
  const f2::BitMatrix& logical_x() const { return lx_; }
  const f2::BitMatrix& logical_z() const { return lz_; }
  const f2::BitMatrix& logicals(PauliType t) const {
    return t == PauliType::X ? lx_ : lz_;
  }

  /// Minimum weight of a logical operator of the given type
  /// (X-distance / Z-distance); `distance()` is their minimum.
  std::size_t distance_x() const { return dx_; }
  std::size_t distance_z() const { return dz_; }
  std::size_t distance() const { return dx_ < dz_ ? dx_ : dz_; }

  /// Syndrome of an error of type `t`: measured by the opposite-type check
  /// matrix (X errors flip Z-stabilizer measurements and vice versa).
  f2::BitVec syndrome(PauliType t, const f2::BitVec& error) const {
    return check_matrix(other(t)).multiply(error);
  }

  /// Short summary like "[[7,1,3]] Steane".
  std::string description() const;

 private:
  std::string name_;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  f2::BitMatrix hx_;
  f2::BitMatrix hz_;
  f2::BitMatrix lx_;
  f2::BitMatrix lz_;
  std::size_t dx_ = 0;
  std::size_t dz_ = 0;

  void compute_logicals();
  void pair_logicals();
  std::size_t compute_distance(PauliType t) const;
};

/// Invokes `fn` for every support vector of length `n` and weight exactly
/// `w`, in lexicographic order of the index sets. Returning `false` from
/// `fn` stops the enumeration early; the function then returns false.
bool for_each_weight(std::size_t n, std::size_t w,
                     const std::function<bool(const f2::BitVec&)>& fn);

}  // namespace ftsp::qec
