#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "sat/cnf_builder.hpp"

namespace ftsp::core {

/// Shared SAT encoding for "choose u stabilizers from the span of given
/// generators": the backbone of both verification- and correction-circuit
/// synthesis (Section IV of the paper).
///
/// Row i of the selection is s_i = sum_r alpha[i][r] * G_r over F2. Because
/// the generators are constants, both the support bits s_i[q] and the
/// syndrome bit <e, s_i> of a constant error e are plain parities of the
/// alpha variables, encoded with Tseitin XOR chains.
class StabilizerSelection {
 public:
  StabilizerSelection(sat::CnfBuilder& cnf, const f2::BitMatrix& generators,
                      std::size_t num_stabilizers);

  std::size_t count() const { return u_; }
  std::size_t num_qubits() const { return generators_->cols(); }

  /// Support bit s_i[q] as a literal.
  sat::Lit support_bit(std::size_t i, std::size_t q);

  /// Syndrome literal <error, s_i> (1 iff the error anticommutes with the
  /// selected stabilizer i). Cached per (i, anticommute-pattern).
  sat::Lit syndrome_bit(std::size_t i, const f2::BitVec& error);

  /// Requires every selected stabilizer to be nonzero.
  void require_nonzero();

  /// Bounds the summed support weight of all selections by v
  /// (the total CNOT count of the measurements).
  void bound_total_weight(std::size_t v);

  /// Assumption-based alternative to `bound_total_weight`: encodes the
  /// weight counter once; each bound v < max_bound is then enforced per
  /// solve by assuming `ladder.at_most(v)`. The backbone of incremental
  /// (u, v)-optimum sweeps.
  sat::CardinalityLadder make_total_weight_ladder(std::size_t max_bound);

  /// Orders selections strictly by their alpha words to break the row
  /// permutation symmetry (valid because equal rows are never useful).
  void break_symmetry();

  /// Restricts every selection to supports accepted by `allowed` — the
  /// coupling-map hook: only measurements realizable on the device stay
  /// in the search space. Since a support is determined by its alpha
  /// combination, the 2^r - 1 nonzero combinations are enumerated and
  /// each rejected one is blocked with one clause per selection row.
  /// Throws std::runtime_error when generators.rows() exceeds
  /// `kMaxRestrictRows` (the enumeration would be impractical).
  void restrict_supports(
      const std::function<bool(const f2::BitVec&)>& allowed);

  static constexpr std::size_t kMaxRestrictRows = 16;

  /// After a satisfying solve: the support of stabilizer i in the model.
  f2::BitVec extract(const sat::Solver& solver, std::size_t i) const;

  /// Blocks the current model's selection (for all-solution enumeration).
  void block_model(sat::Solver& solver);

 private:
  sat::CnfBuilder* cnf_;
  const f2::BitMatrix* generators_;
  std::size_t u_;
  std::vector<std::vector<sat::Lit>> alpha_;  // [i][r]
  std::vector<std::vector<sat::Lit>> support_;  // [i][q], lazily defined
  std::vector<std::unordered_map<std::string, sat::Lit>> syndrome_cache_;

  sat::Lit parity_over(std::size_t i, const f2::BitVec& row_mask);
};

}  // namespace ftsp::core
