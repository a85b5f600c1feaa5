#include "decoder/lookup_decoder.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace ftsp::decoder {

using f2::BitVec;
using qec::PauliType;

namespace {

/// The syndrome of `error` under `checks`, packed straight into a table
/// index: bit r is the parity of (check row r AND error), computed
/// word-wise without allocating.
std::size_t packed_syndrome(const f2::BitMatrix& checks, const BitVec& error) {
  const std::span<const std::uint64_t> words = error.words();
  std::size_t packed = 0;
  for (std::size_t r = 0; r < checks.rows(); ++r) {
    const std::span<const std::uint64_t> row = checks.row(r).words();
    std::uint64_t overlap = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      overlap ^= row[w] & words[w];
    }
    packed |= static_cast<std::size_t>(std::popcount(overlap) & 1) << r;
  }
  return packed;
}

}  // namespace

LookupDecoder::LookupDecoder(const qec::CssCode& code, PauliType error_type)
    : code_(&code), type_(error_type) {
  const auto& checks = code.check_matrix(other(error_type));
  syndrome_bits_ = checks.rows();
  if (syndrome_bits_ > 20) {
    throw std::length_error("LookupDecoder: syndrome space too large");
  }
  const std::size_t n = code.num_qubits();
  const std::size_t count = std::size_t{1} << syndrome_bits_;
  table_.assign(count, BitVec());
  std::size_t filled = 0;
  for (std::size_t w = 0; w <= n && filled < count; ++w) {
    qec::for_each_weight(n, w, [&](const BitVec& e) {
      const std::size_t s = packed_syndrome(checks, e);
      if (table_[s].empty()) {
        table_[s] = e;
        ++filled;
      }
      return filled < count;
    });
  }
  assert(filled == count);
}

LookupDecoder::LookupDecoder(const qec::CssCode& code, PauliType error_type,
                             std::vector<BitVec> table)
    : code_(&code), type_(error_type), table_(std::move(table)) {
  const auto& checks = code.check_matrix(other(error_type));
  syndrome_bits_ = checks.rows();
  if (table_.size() != (std::size_t{1} << syndrome_bits_)) {
    throw std::invalid_argument("LookupDecoder: table size mismatch");
  }
  const std::size_t n = code.num_qubits();
  for (std::size_t s = 0; s < table_.size(); ++s) {
    if (table_[s].size() != n ||
        packed_syndrome(checks, table_[s]) != s) {
      throw std::invalid_argument(
          "LookupDecoder: table entry inconsistent with code");
    }
  }
}

const BitVec& LookupDecoder::decode(const BitVec& syndrome) const {
  if (syndrome.size() != syndrome_bits_) {
    throw std::invalid_argument("LookupDecoder::decode: syndrome size");
  }
  // At most 20 syndrome bits: the first word is the packed index.
  return table_[syndrome_bits_ == 0 ? 0 : syndrome.words()[0]];
}

BitVec LookupDecoder::residual(const BitVec& error) const {
  const auto syndrome = code_->syndrome(type_, error);
  return error ^ decode(syndrome);
}

LogicalOutcome PerfectDecoder::decode(const qec::Pauli& error) const {
  LogicalOutcome outcome;
  const BitVec rx = x_decoder_.residual(error.x);
  const BitVec rz = z_decoder_.residual(error.z);
  for (std::size_t i = 0; i < code_->num_logical(); ++i) {
    outcome.x_flip = outcome.x_flip || rx.dot(code_->logical_z().row(i));
    outcome.z_flip = outcome.z_flip || rz.dot(code_->logical_x().row(i));
  }
  return outcome;
}

}  // namespace ftsp::decoder
