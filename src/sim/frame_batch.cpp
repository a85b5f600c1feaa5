#include "sim/frame_batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ftsp::sim {

using circuit::Gate;
using circuit::GateKind;

FrameBatch::FrameBatch(std::size_t num_qubits, std::size_t num_cbits,
                       std::size_t num_shots)
    : num_qubits_(num_qubits),
      num_cbits_(num_cbits),
      num_shots_(num_shots),
      words_((num_shots + kLanesPerWord - 1) / kLanesPerWord),
      x_(num_qubits * words_),
      z_(num_qubits * words_),
      outcomes_(num_cbits * words_) {}

void FrameBatch::apply_gate(const Gate& gate, std::size_t word_begin,
                            std::size_t word_end) {
  switch (gate.kind) {
    case GateKind::Cnot: {
      // X on the control copies to the target; Z on the target copies to
      // the control — for all lanes of each word at once.
      const std::uint64_t* xc = x_row(gate.q0);
      std::uint64_t* xt = x_row(gate.q1);
      std::uint64_t* zc = z_row(gate.q0);
      const std::uint64_t* zt = z_row(gate.q1);
      for (std::size_t w = word_begin; w < word_end; ++w) {
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
      }
      break;
    }
    case GateKind::H: {
      // H exchanges X and Z: swap the two rows wordwise.
      std::uint64_t* x = x_row(gate.q0);
      std::uint64_t* z = z_row(gate.q0);
      for (std::size_t w = word_begin; w < word_end; ++w) {
        std::swap(x[w], z[w]);
      }
      break;
    }
    case GateKind::PrepZ:
    case GateKind::PrepX: {
      std::uint64_t* x = x_row(gate.q0);
      std::uint64_t* z = z_row(gate.q0);
      std::fill(x + word_begin, x + word_end, 0);
      std::fill(z + word_begin, z + word_end, 0);
      break;
    }
    case GateKind::MeasZ: {
      assert(gate.cbit >= 0);
      const std::uint64_t* x = x_row(gate.q0);
      std::uint64_t* out = outcome_row(static_cast<std::size_t>(gate.cbit));
      for (std::size_t w = word_begin; w < word_end; ++w) {
        out[w] ^= x[w];
      }
      break;
    }
    case GateKind::MeasX: {
      assert(gate.cbit >= 0);
      const std::uint64_t* z = z_row(gate.q0);
      std::uint64_t* out = outcome_row(static_cast<std::size_t>(gate.cbit));
      for (std::size_t w = word_begin; w < word_end; ++w) {
        out[w] ^= z[w];
      }
      break;
    }
  }
}

void FrameBatch::apply_circuit(const circuit::Circuit& c) {
  for (const Gate& g : c.gates()) {
    apply_gate(g);
  }
}

void FrameBatch::apply_fault(const FaultOp& op, const Gate& gate,
                             std::size_t shot) {
  for (int t = 0; t < op.num_terms; ++t) {
    const auto& term = op.terms[static_cast<std::size_t>(t)];
    if (term.x) {
      flip_x_bit(term.qubit, shot);
    }
    if (term.z) {
      flip_z_bit(term.qubit, shot);
    }
  }
  if (op.flip_outcome) {
    assert(gate.is_measurement() && gate.cbit >= 0);
    flip_outcome_bit(static_cast<std::size_t>(gate.cbit), shot);
  }
}

PauliFrame FrameBatch::extract_frame(std::size_t shot) const {
  PauliFrame frame(num_qubits_, num_cbits_);
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    frame.error.x.set(q, x_bit(q, shot));
    frame.error.z.set(q, z_bit(q, shot));
  }
  for (std::size_t c = 0; c < num_cbits_; ++c) {
    frame.outcomes[c] = outcome_bit(c, shot);
  }
  return frame;
}

void FrameBatch::deposit_frame(const PauliFrame& frame, std::size_t shot) {
  for (std::size_t q = 0; q < num_qubits_; ++q) {
    if (frame.error.x.get(q) != x_bit(q, shot)) {
      flip_x_bit(q, shot);
    }
    if (frame.error.z.get(q) != z_bit(q, shot)) {
      flip_z_bit(q, shot);
    }
  }
  for (std::size_t c = 0; c < num_cbits_; ++c) {
    if (frame.outcomes[c] != outcome_bit(c, shot)) {
      flip_outcome_bit(c, shot);
    }
  }
}

void FrameBatch::reset(std::size_t num_qubits, std::size_t num_cbits,
                       std::size_t num_shots, std::size_t word_begin,
                       std::size_t word_end) {
  num_qubits_ = num_qubits;
  num_cbits_ = num_cbits;
  num_shots_ = num_shots;
  words_ = (num_shots + kLanesPerWord - 1) / kLanesPerWord;
  x_.resize(num_qubits * words_);
  z_.resize(num_qubits * words_);
  outcomes_.resize(num_cbits * words_);
  for (std::size_t q = 0; q < num_qubits; ++q) {
    std::fill(x_row(q) + word_begin, x_row(q) + word_end, 0);
    std::fill(z_row(q) + word_begin, z_row(q) + word_end, 0);
  }
  for (std::size_t c = 0; c < num_cbits; ++c) {
    std::fill(outcome_row(c) + word_begin, outcome_row(c) + word_end, 0);
  }
}

void FrameBatch::reserve(std::size_t num_qubits, std::size_t num_cbits,
                         std::size_t num_shots) {
  const std::size_t words = (num_shots + kLanesPerWord - 1) / kLanesPerWord;
  x_.reserve(num_qubits * words);
  z_.reserve(num_qubits * words);
  outcomes_.reserve(num_cbits * words);
}

void FrameBatch::clear() {
  std::fill(x_.begin(), x_.end(), 0);
  std::fill(z_.begin(), z_.end(), 0);
  std::fill(outcomes_.begin(), outcomes_.end(), 0);
}

std::uint64_t bernoulli_word(std::mt19937_64& rng, double p) {
  if (p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return ~std::uint64_t{0};
  }
  return bernoulli_word_from_log1mp(rng, std::log1p(-p));
}

std::uint64_t bernoulli_word_from_log1mp(std::mt19937_64& rng,
                                         double log1mp) {
  // Geometric gap sampling: the distance to the next success under
  // independent Bernoulli(p) trials is floor(log(u) / log(1 - p)).
  std::uint64_t mask = 0;
  std::size_t lane = 0;
  while (true) {
    // (rng() >> 11) * 2^-53 is uniform on [0, 1); nudge 0 up to keep
    // log() finite.
    double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    const double gap = std::floor(std::log(u) / log1mp);
    if (gap >= static_cast<double>(BernoulliWordTable::kLanes)) {
      break;  // Next success falls beyond this word regardless of `lane`.
    }
    lane += static_cast<std::size_t>(gap);
    if (lane >= BernoulliWordTable::kLanes) {
      break;
    }
    mask |= std::uint64_t{1} << lane;
    ++lane;
  }
  return mask;
}

BernoulliWordTable::BernoulliWordTable(double p) {
  if (p <= 0.0) {
    always_zero_ = true;
    return;
  }
  if (p >= 1.0) {
    cdf_.fill(0.0);  // u >= 0 always: scan runs to count == 64.
    return;
  }
  // pmf(k) of Binomial(64, p) by the stable ratio recurrence.
  double pmf = std::pow(1.0 - p, static_cast<double>(kLanes));
  const double odds = p / (1.0 - p);
  double cumulative = pmf;
  cdf_[0] = cumulative;
  for (std::size_t k = 1; k < kLanes; ++k) {
    pmf *= odds * static_cast<double>(kLanes - k + 1) /
           static_cast<double>(k);
    cumulative += pmf;
    cdf_[k] = cumulative;
  }
}

}  // namespace ftsp::sim
