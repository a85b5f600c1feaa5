#include "sim/tableau.hpp"

#include <cassert>
#include <stdexcept>

#include "f2/bit_matrix.hpp"
#include "f2/gauss.hpp"

namespace ftsp::sim {

using circuit::Gate;
using circuit::GateKind;

Tableau::Tableau(std::size_t n) : n_(n) {
  x_.assign(2 * n, f2::BitVec(n));
  z_.assign(2 * n, f2::BitVec(n));
  sign_.assign(2 * n, false);
  for (std::size_t i = 0; i < n; ++i) {
    x_[i].set(i);       // Destabilizer i = X_i.
    z_[n + i].set(i);   // Stabilizer i = Z_i.
  }
}

int Tableau::phase_exponent(bool x1, bool z1, bool x2, bool z2) {
  // Exponent of i in the product of single-qubit Paulis (x1 z1) * (x2 z2),
  // as in Aaronson & Gottesman's g function.
  if (!x1 && !z1) {
    return 0;
  }
  if (x1 && z1) {  // Y
    return (z2 ? 1 : 0) - (x2 ? 1 : 0);
  }
  if (x1) {  // X
    return z2 ? (x2 ? 1 : -1) : 0;
  }
  // Z
  return x2 ? (z2 ? -1 : 1) : 0;
}

void Tableau::rowsum(std::size_t h, std::size_t i) {
  int phase = 0;
  for (std::size_t j = 0; j < n_; ++j) {
    phase += phase_exponent(x_[i].get(j), z_[i].get(j), x_[h].get(j),
                            z_[h].get(j));
  }
  phase += 2 * (sign_[h] ? 1 : 0) + 2 * (sign_[i] ? 1 : 0);
  phase &= 3;
  assert(phase == 0 || phase == 2);
  sign_[h] = (phase == 2);
  x_[h] ^= x_[i];
  z_[h] ^= z_[i];
}

void Tableau::apply_h(std::size_t q) {
  for (std::size_t i = 0; i < 2 * n_; ++i) {
    if (x_[i].get(q) && z_[i].get(q)) {
      sign_[i] = !sign_[i];
    }
    const bool had_x = x_[i].get(q);
    x_[i].set(q, z_[i].get(q));
    z_[i].set(q, had_x);
  }
}

void Tableau::apply_s(std::size_t q) {
  for (std::size_t i = 0; i < 2 * n_; ++i) {
    if (x_[i].get(q) && z_[i].get(q)) {
      sign_[i] = !sign_[i];
    }
    z_[i].set(q, z_[i].get(q) != x_[i].get(q));
  }
}

void Tableau::apply_cnot(std::size_t control, std::size_t target) {
  for (std::size_t i = 0; i < 2 * n_; ++i) {
    const bool xc = x_[i].get(control);
    const bool zc = z_[i].get(control);
    const bool xt = x_[i].get(target);
    const bool zt = z_[i].get(target);
    if (xc && zt && (xt == zc)) {
      sign_[i] = !sign_[i];
    }
    x_[i].set(target, xt != xc);
    z_[i].set(control, zc != zt);
  }
}

void Tableau::apply_x(std::size_t q) {
  for (std::size_t i = 0; i < 2 * n_; ++i) {
    if (z_[i].get(q)) {
      sign_[i] = !sign_[i];
    }
  }
}

void Tableau::apply_z(std::size_t q) {
  for (std::size_t i = 0; i < 2 * n_; ++i) {
    if (x_[i].get(q)) {
      sign_[i] = !sign_[i];
    }
  }
}

bool Tableau::z_is_deterministic(std::size_t q) const {
  for (std::size_t p = n_; p < 2 * n_; ++p) {
    if (x_[p].get(q)) {
      return false;
    }
  }
  return true;
}

bool Tableau::measure_z(std::size_t q, util::Mt64& rng) {
  std::size_t p = 2 * n_;
  for (std::size_t i = n_; i < 2 * n_; ++i) {
    if (x_[i].get(q)) {
      p = i;
      break;
    }
  }
  if (p < 2 * n_) {
    // Random outcome: Z_q anticommutes with stabilizer p.
    for (std::size_t i = 0; i < 2 * n_; ++i) {
      if (i != p && x_[i].get(q)) {
        rowsum(i, p);
      }
    }
    x_[p - n_] = x_[p];
    z_[p - n_] = z_[p];
    sign_[p - n_] = sign_[p];
    x_[p].clear();
    z_[p].clear();
    z_[p].set(q);
    const bool outcome = (rng() & 1) != 0;
    sign_[p] = outcome;
    return outcome;
  }
  // Deterministic outcome: accumulate the product of stabilizers whose
  // destabilizer partner anticommutes with Z_q into a scratch row.
  f2::BitVec scratch_x(n_);
  f2::BitVec scratch_z(n_);
  int phase = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!x_[i].get(q)) {
      continue;
    }
    const std::size_t s = i + n_;
    for (std::size_t j = 0; j < n_; ++j) {
      phase += phase_exponent(x_[s].get(j), z_[s].get(j), scratch_x.get(j),
                              scratch_z.get(j));
    }
    phase += 2 * (sign_[s] ? 1 : 0);
    scratch_x ^= x_[s];
    scratch_z ^= z_[s];
  }
  phase &= 3;
  assert(phase == 0 || phase == 2);
  return phase == 2;
}

bool Tableau::measure_x(std::size_t q, util::Mt64& rng) {
  apply_h(q);
  const bool outcome = measure_z(q, rng);
  apply_h(q);
  return outcome;
}

void Tableau::prep_z(std::size_t q, util::Mt64& rng) {
  if (measure_z(q, rng)) {
    apply_x(q);
  }
}

void Tableau::prep_x(std::size_t q, util::Mt64& rng) {
  prep_z(q, rng);
  apply_h(q);
}

void Tableau::apply_gate(const Gate& gate, util::Mt64& rng,
                         std::vector<bool>& outcomes) {
  switch (gate.kind) {
    case GateKind::Cnot:
      apply_cnot(gate.q0, gate.q1);
      break;
    case GateKind::H:
      apply_h(gate.q0);
      break;
    case GateKind::PrepZ:
      prep_z(gate.q0, rng);
      break;
    case GateKind::PrepX:
      prep_x(gate.q0, rng);
      break;
    case GateKind::MeasZ:
    case GateKind::MeasX: {
      const bool outcome = gate.kind == GateKind::MeasZ
                               ? measure_z(gate.q0, rng)
                               : measure_x(gate.q0, rng);
      const auto bit = static_cast<std::size_t>(gate.cbit);
      if (outcomes.size() <= bit) {
        outcomes.resize(bit + 1, false);
      }
      outcomes[bit] = outcome;
      break;
    }
  }
}

std::vector<bool> Tableau::run(const circuit::Circuit& c,
                               util::Mt64& rng) {
  if (c.num_qubits() != n_) {
    throw std::invalid_argument("Tableau::run: qubit count mismatch");
  }
  std::vector<bool> outcomes(c.num_cbits(), false);
  for (const Gate& g : c.gates()) {
    apply_gate(g, rng, outcomes);
  }
  return outcomes;
}

bool Tableau::stabilizes(const qec::Pauli& p) const {
  assert(p.num_qubits() == n_);
  // Express p as a combination of the stabilizer rows over F2.
  f2::BitMatrix rows(n_, 2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      rows.set(i, j, x_[n_ + i].get(j));
      rows.set(i, n_ + j, z_[n_ + i].get(j));
    }
  }
  f2::BitVec target(2 * n_);
  for (std::size_t j = 0; j < n_; ++j) {
    target.set(j, p.x.get(j));
    target.set(n_ + j, p.z.get(j));
  }
  const auto combo = f2::express_in_rows(rows, target);
  if (!combo.has_value()) {
    return false;
  }
  // Multiply the selected stabilizers and compare the sign.
  f2::BitVec acc_x(n_);
  f2::BitVec acc_z(n_);
  int phase = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!combo->get(i)) {
      continue;
    }
    const std::size_t s = i + n_;
    for (std::size_t j = 0; j < n_; ++j) {
      phase += phase_exponent(x_[s].get(j), z_[s].get(j), acc_x.get(j),
                              acc_z.get(j));
    }
    phase += 2 * (sign_[s] ? 1 : 0);
    acc_x ^= x_[s];
    acc_z ^= z_[s];
  }
  assert(acc_x == p.x && acc_z == p.z);
  return (phase & 3) == 0;
}

}  // namespace ftsp::sim
