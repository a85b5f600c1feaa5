#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/faults.hpp"
#include "sim/pauli_frame.hpp"
#include "util/mt64.hpp"

namespace ftsp::sim {

/// Bit `lane` of a row of u64 words (lane `l` is bit `l % 64` of word
/// `l / 64`).
inline bool get_lane(const std::uint64_t* row, std::size_t lane) {
  return (row[lane / 64] >> (lane % 64)) & 1;
}
inline void flip_lane(std::uint64_t* row, std::size_t lane) {
  row[lane / 64] ^= std::uint64_t{1} << (lane % 64);
}
inline void set_lane(std::uint64_t* row, std::size_t lane) {
  row[lane / 64] |= std::uint64_t{1} << (lane % 64);
}

/// Bit-packed batch of Pauli frames, Stim-style: 64 shots share one u64
/// word, and each qubit (resp. classical bit) owns a contiguous row of
/// words. Lane `l` of word `w` is shot `w * 64 + l`.
///
/// Gate kernels are straight word-wise XOR/swap loops over the affected
/// rows, so one `apply_gate` advances all shots of the batch at once —
/// the same exact frame propagation as the scalar `PauliFrame`, just 64
/// frames per instruction (and the compiler vectorizes the row loops).
/// Fault injection is per-lane (faults are sparse) via `apply_fault`;
/// batched samplers draw the lanes to fault with `bernoulli_word` one
/// word at a time.
class FrameBatch {
 public:
  static constexpr std::size_t kLanesPerWord = 64;

  FrameBatch(std::size_t num_qubits, std::size_t num_cbits,
             std::size_t num_shots);
  explicit FrameBatch(const circuit::Circuit& c, std::size_t num_shots)
      : FrameBatch(c.num_qubits(), c.num_cbits(), num_shots) {}

  std::size_t num_qubits() const { return num_qubits_; }
  std::size_t num_cbits() const { return num_cbits_; }
  std::size_t num_shots() const { return num_shots_; }

  /// Row pointers (one word array per qubit / classical bit).
  std::uint64_t* x_row(std::size_t q) { return x_.data() + q * words_; }
  std::uint64_t* z_row(std::size_t q) { return z_.data() + q * words_; }
  std::uint64_t* outcome_row(std::size_t c) {
    return outcomes_.data() + c * words_;
  }
  const std::uint64_t* x_row(std::size_t q) const {
    return x_.data() + q * words_;
  }
  const std::uint64_t* z_row(std::size_t q) const {
    return z_.data() + q * words_;
  }
  const std::uint64_t* outcome_row(std::size_t c) const {
    return outcomes_.data() + c * words_;
  }

  /// Single-lane accessors (tests, sparse fault handling).
  bool x_bit(std::size_t q, std::size_t shot) const {
    return get_lane(x_row(q), shot);
  }
  bool z_bit(std::size_t q, std::size_t shot) const {
    return get_lane(z_row(q), shot);
  }
  bool outcome_bit(std::size_t c, std::size_t shot) const {
    return get_lane(outcome_row(c), shot);
  }
  void flip_x_bit(std::size_t q, std::size_t shot) {
    flip_lane(x_row(q), shot);
  }
  void flip_z_bit(std::size_t q, std::size_t shot) {
    flip_lane(z_row(q), shot);
  }
  void flip_outcome_bit(std::size_t c, std::size_t shot) {
    flip_lane(outcome_row(c), shot);
  }

  /// Advances every lane across one gate (same semantics as the scalar
  /// `sim::apply_gate`, word-parallel).
  void apply_gate(const circuit::Gate& gate) { apply_gate(gate, 0, words_); }
  /// Restricts the kernel to words [word_begin, word_end) — samplers use
  /// this to run sparse lane groups without touching the whole batch.
  void apply_gate(const circuit::Gate& gate, std::size_t word_begin,
                  std::size_t word_end);
  void apply_circuit(const circuit::Circuit& c);

  /// Injects fault operator `op` into lane `shot` only (mirrors the
  /// scalar `sim::apply_fault`).
  void apply_fault(const FaultOp& op, const circuit::Gate& gate,
                   std::size_t shot);

  /// Pre-grows the row storage so later `reset` calls up to these
  /// dimensions never reallocate — the artifact-driven samplers size one
  /// batch at the protocol's peak segment dimensions up front.
  void reserve(std::size_t num_qubits, std::size_t num_cbits,
               std::size_t num_shots);

  /// Re-dimensions in place (reusing vector capacity) and zeroes the
  /// words [word_begin, word_end) of every row — the allocation-free way
  /// to recycle one batch across many circuit segments. Words outside
  /// the range hold stale bits; callers restricting themselves to a lane
  /// span (see the batched sampler) never read them.
  void reset(std::size_t num_qubits, std::size_t num_cbits,
             std::size_t num_shots, std::size_t word_begin,
             std::size_t word_end);
  void reset(std::size_t num_qubits, std::size_t num_cbits,
             std::size_t num_shots) {
    reset(num_qubits, num_cbits, num_shots, 0,
          (num_shots + kLanesPerWord - 1) / kLanesPerWord);
  }
  void reset(const circuit::Circuit& c, std::size_t num_shots) {
    reset(c.num_qubits(), c.num_cbits(), num_shots);
  }

  /// Copies one lane out as a scalar frame (cross-checking, debugging).
  PauliFrame extract_frame(std::size_t shot) const;
  /// Overwrites one lane with the bits of a scalar frame.
  void deposit_frame(const PauliFrame& frame, std::size_t shot);

  void clear();

 private:
  std::size_t num_qubits_;
  std::size_t num_cbits_;
  std::size_t num_shots_;
  std::size_t words_;
  std::vector<std::uint64_t> x_;
  std::vector<std::uint64_t> z_;
  std::vector<std::uint64_t> outcomes_;
};

/// One word of 64 independent Bernoulli(p) draws (bit l set with
/// probability p). Uses geometric gap sampling, so the cost is
/// O(1 + 64 p) RNG draws instead of 64 — the bulk fault-mask generator
/// for batched sampling at realistic (small) fault rates.
std::uint64_t bernoulli_word(util::Mt64& rng, double p);

/// As `bernoulli_word` but takes the precomputed log1p(-p); hot loops
/// hoist that transcendental out of the per-word call. Requires
/// p in (0,1), i.e. log1mp finite and negative.
std::uint64_t bernoulli_word_from_log1mp(util::Mt64& rng,
                                         double log1mp);

/// Fastest mask generator: draws the word's popcount from a precomputed
/// inverse-CDF Binomial(64, p) table (one RNG draw, a short scan), then
/// places the set bits uniformly — no transcendentals anywhere in the
/// per-word path. Exactly the 64-fold Bernoulli(p) product distribution.
/// Draws one 64-lane word, i.e. one batch word of the frame batch.
class BernoulliWordTable {
 public:
  static constexpr std::size_t kLanes = 64;

  explicit BernoulliWordTable(double p);

  std::uint64_t draw(util::Mt64& rng) const {
    if (always_zero_) {
      return 0;
    }
    // (rng() >> 11) * 2^-53 is uniform on [0, 1) — and, unlike scaling
    // the full 64-bit draw, can never round up to exactly 1.0 (which
    // would fault all 64 lanes at once).
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    std::size_t count = 0;
    while (count < kLanes && u >= cdf_[count]) {
      ++count;
    }
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < count; ++i) {
      for (;;) {
        // Top 6 bits of the draw: uniform lane index.
        const std::uint64_t bit = std::uint64_t{1} << (rng() >> 58);
        if ((mask & bit) == 0) {
          mask |= bit;
          break;
        }
      }
    }
    return mask;
  }

 private:
  // cdf_[k] = P(popcount <= k); the scan returns the smallest k with
  // u < cdf_[k].
  std::array<double, kLanes> cdf_{};
  bool always_zero_ = false;
};

}  // namespace ftsp::sim
