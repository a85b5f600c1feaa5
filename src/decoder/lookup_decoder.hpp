#pragma once

#include <cstddef>
#include <vector>

#include "f2/bit_vec.hpp"
#include "qec/css_code.hpp"
#include "qec/pauli.hpp"
#include "qec/state_context.hpp"

namespace ftsp::decoder {

/// Minimum-weight lookup-table decoder for one error type of a CSS code.
///
/// The table maps every possible syndrome (there are 2^r for an r-row
/// opposite-type check matrix; all syndromes are reachable because check
/// matrices have full row rank) to a minimum-weight error producing it,
/// found by breadth-first enumeration over error weights. This implements
/// the paper's "perfect round of error correction using lookup table
/// decoding" exactly.
class LookupDecoder {
 public:
  LookupDecoder(const qec::CssCode& code, qec::PauliType error_type);

  /// Rehydrates a decoder from a previously computed table (the artifact
  /// load path: the weight-BFS enumeration above is skipped entirely).
  /// Validates dimensions and every entry's syndrome, so a corrupted table
  /// throws `std::invalid_argument` instead of silently mis-decoding. The
  /// check packs each syndrome word-wise (one AND and parity per check
  /// row) and allocates nothing per entry.
  LookupDecoder(const qec::CssCode& code, qec::PauliType error_type,
                std::vector<f2::BitVec> table);

  qec::PauliType error_type() const { return type_; }
  std::size_t syndrome_bits() const { return syndrome_bits_; }

  /// The full syndrome-indexed correction table (artifact serialization).
  const std::vector<f2::BitVec>& table() const { return table_; }

  /// Minimum-weight error consistent with `syndrome` (length = rows of the
  /// opposite-type check matrix).
  const f2::BitVec& decode(const f2::BitVec& syndrome) const;

  /// Table access by packed syndrome (bit i = check row i) — used by the
  /// batched sampler to precompute per-syndrome logical parities.
  const f2::BitVec& decode_packed(std::size_t packed) const {
    return table_[packed];
  }

  /// Decodes the syndrome of `error` and returns the residual
  /// `error + correction` (a stabilizer or logical of the code).
  f2::BitVec residual(const f2::BitVec& error) const;

 private:
  const qec::CssCode* code_;
  qec::PauliType type_;
  std::size_t syndrome_bits_ = 0;
  std::vector<f2::BitVec> table_;  // Indexed by packed syndrome.
};

/// Outcome of a perfect error-correction round followed by a logical
/// measurement, as in the paper's Fig. 4 simulation.
struct LogicalOutcome {
  bool x_flip = false;  ///< Residual X error anticommutes with some Z_L.
  bool z_flip = false;  ///< Residual Z error anticommutes with some X_L.

  /// Whether the prepared basis state failed (`qec::basis_failure`).
  bool fails(qec::LogicalBasis basis) const {
    return qec::basis_failure(basis, x_flip, z_flip);
  }
};

/// Decodes both error types of `error` with lookup tables and reports
/// which logical operators the residuals flip. For a |0>_L preparation the
/// destructive Z-basis readout of the paper registers exactly `x_flip`.
class PerfectDecoder {
 public:
  explicit PerfectDecoder(const qec::CssCode& code)
      : code_(&code),
        x_decoder_(code, qec::PauliType::X),
        z_decoder_(code, qec::PauliType::Z) {}

  /// Rehydrates both decoders from stored tables (artifact load path).
  PerfectDecoder(const qec::CssCode& code, std::vector<f2::BitVec> x_table,
                 std::vector<f2::BitVec> z_table)
      : code_(&code),
        x_decoder_(code, qec::PauliType::X, std::move(x_table)),
        z_decoder_(code, qec::PauliType::Z, std::move(z_table)) {}

  LogicalOutcome decode(const qec::Pauli& error) const;

  const qec::CssCode& code() const { return *code_; }
  const LookupDecoder& x_decoder() const { return x_decoder_; }
  const LookupDecoder& z_decoder() const { return z_decoder_; }

 private:
  const qec::CssCode* code_;
  LookupDecoder x_decoder_;
  LookupDecoder z_decoder_;
};

}  // namespace ftsp::decoder
