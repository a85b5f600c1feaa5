#include "core/stabilizer_select.hpp"

#include <cassert>
#include <stdexcept>

namespace ftsp::core {

using f2::BitVec;
using sat::Lit;

StabilizerSelection::StabilizerSelection(sat::CnfBuilder& cnf,
                                         const f2::BitMatrix& generators,
                                         std::size_t num_stabilizers)
    : cnf_(&cnf), generators_(&generators), u_(num_stabilizers) {
  alpha_.resize(u_);
  support_.assign(u_, std::vector<Lit>(generators.cols(), Lit::undef));
  syndrome_cache_.resize(u_);
  for (std::size_t i = 0; i < u_; ++i) {
    alpha_[i].resize(generators.rows());
    for (std::size_t r = 0; r < generators.rows(); ++r) {
      alpha_[i][r] = cnf.fresh();
    }
  }
}

Lit StabilizerSelection::parity_over(std::size_t i, const BitVec& row_mask) {
  std::vector<Lit> terms;
  for (std::size_t r : row_mask.ones()) {
    terms.push_back(alpha_[i][r]);
  }
  return cnf_->xor_of(terms);
}

Lit StabilizerSelection::support_bit(std::size_t i, std::size_t q) {
  if (support_[i][q] == Lit::undef) {
    support_[i][q] = parity_over(i, generators_->column(q));
  }
  return support_[i][q];
}

Lit StabilizerSelection::syndrome_bit(std::size_t i, const BitVec& error) {
  // Which generators anticommute with the error determines the parity mask.
  BitVec mask(generators_->rows());
  for (std::size_t r = 0; r < generators_->rows(); ++r) {
    if (generators_->row(r).dot(error)) {
      mask.set(r);
    }
  }
  const std::string key = mask.to_string();
  auto& cache = syndrome_cache_[i];
  if (auto it = cache.find(key); it != cache.end()) {
    return it->second;
  }
  const Lit lit = parity_over(i, mask);
  cache.emplace(key, lit);
  return lit;
}

void StabilizerSelection::require_nonzero() {
  for (std::size_t i = 0; i < u_; ++i) {
    std::vector<Lit> bits;
    bits.reserve(num_qubits());
    for (std::size_t q = 0; q < num_qubits(); ++q) {
      bits.push_back(support_bit(i, q));
    }
    cnf_->add_at_least_one(bits);
  }
}

void StabilizerSelection::bound_total_weight(std::size_t v) {
  std::vector<Lit> bits;
  bits.reserve(u_ * num_qubits());
  for (std::size_t i = 0; i < u_; ++i) {
    for (std::size_t q = 0; q < num_qubits(); ++q) {
      bits.push_back(support_bit(i, q));
    }
  }
  cnf_->add_at_most_k(bits, v);
}

sat::CardinalityLadder StabilizerSelection::make_total_weight_ladder(
    std::size_t max_bound) {
  std::vector<Lit> bits;
  bits.reserve(u_ * num_qubits());
  for (std::size_t i = 0; i < u_; ++i) {
    for (std::size_t q = 0; q < num_qubits(); ++q) {
      bits.push_back(support_bit(i, q));
    }
  }
  return cnf_->make_cardinality_ladder(bits, max_bound);
}

void StabilizerSelection::break_symmetry() {
  // Enforce alpha_i < alpha_{i+1} as binary words (MSB at row 0): for each
  // adjacent pair there must be a position where i has 0 and i+1 has 1
  // while all earlier positions are equal. Encoded with prefix-equality
  // chains.
  const std::size_t rows = generators_->rows();
  for (std::size_t i = 0; i + 1 < u_; ++i) {
    // eq[r]: alpha rows agree on positions 0..r-1.
    Lit eq = cnf_->constant(true);
    std::vector<Lit> less_at(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const Lit a = alpha_[i][r];
      const Lit b = alpha_[i + 1][r];
      less_at[r] = cnf_->and_of({eq, ~a, b});
      const Lit agree = ~cnf_->xor_of({a, b});
      eq = cnf_->and_of({eq, agree});
    }
    cnf_->add_at_least_one(less_at);
  }
}

void StabilizerSelection::restrict_supports(
    const std::function<bool(const f2::BitVec&)>& allowed) {
  const std::size_t rows = generators_->rows();
  if (rows > kMaxRestrictRows) {
    throw std::runtime_error(
        "StabilizerSelection::restrict_supports: " + std::to_string(rows) +
        " candidate generators exceed the enumeration cap of " +
        std::to_string(kMaxRestrictRows));
  }
  for (std::size_t combo = 1; combo < (std::size_t{1} << rows); ++combo) {
    BitVec support(num_qubits());
    for (std::size_t r = 0; r < rows; ++r) {
      if ((combo >> r) & 1U) {
        support ^= generators_->row(r);
      }
    }
    if (allowed(support)) {
      continue;
    }
    // Block alpha_i == combo for every selection row.
    for (std::size_t i = 0; i < u_; ++i) {
      std::vector<Lit> clause;
      clause.reserve(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        const bool bit = ((combo >> r) & 1U) != 0;
        clause.push_back(bit ? ~alpha_[i][r] : alpha_[i][r]);
      }
      cnf_->solver().add_clause(clause);
    }
  }
}

BitVec StabilizerSelection::extract(const sat::Solver& solver,
                                    std::size_t i) const {
  BitVec support(num_qubits());
  BitVec combo(generators_->rows());
  for (std::size_t r = 0; r < generators_->rows(); ++r) {
    if (solver.model_value(alpha_[i][r])) {
      combo.set(r);
    }
  }
  for (std::size_t r : combo.ones()) {
    support ^= generators_->row(r);
  }
  return support;
}

void StabilizerSelection::block_model(sat::Solver& solver) {
  std::vector<Lit> clause;
  for (std::size_t i = 0; i < u_; ++i) {
    for (std::size_t r = 0; r < generators_->rows(); ++r) {
      const Lit a = alpha_[i][r];
      clause.push_back(solver.model_value(a) ? ~a : a);
    }
  }
  solver.add_clause(clause);
}

}  // namespace ftsp::core
