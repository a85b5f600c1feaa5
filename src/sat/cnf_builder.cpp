#include "sat/cnf_builder.hpp"

#include <algorithm>
#include <cassert>

namespace ftsp::sat {

Lit CnfBuilder::fresh() { return pos(solver_->new_var()); }

Lit CnfBuilder::constant(bool value) {
  if (true_lit_ == Lit::undef) {
    true_lit_ = fresh();
    solver_->add_unit(true_lit_);
  }
  return value ? true_lit_ : ~true_lit_;
}

void CnfBuilder::define_xor2(Lit out, Lit a, Lit b) {
  solver_->add_ternary(~out, a, b);
  solver_->add_ternary(~out, ~a, ~b);
  solver_->add_ternary(out, ~a, b);
  solver_->add_ternary(out, a, ~b);
}

Lit CnfBuilder::xor_of(std::initializer_list<Lit> inputs) {
  return xor_of(std::span<const Lit>(inputs.begin(), inputs.size()));
}

Lit CnfBuilder::xor_of(std::span<const Lit> inputs) {
  if (inputs.empty()) {
    return constant(false);
  }
  Lit acc = inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const Lit out = fresh();
    define_xor2(out, acc, inputs[i]);
    acc = out;
  }
  return acc;
}

Lit CnfBuilder::and_of(std::initializer_list<Lit> inputs) {
  return and_of(std::span<const Lit>(inputs.begin(), inputs.size()));
}

Lit CnfBuilder::and_of(std::span<const Lit> inputs) {
  if (inputs.empty()) {
    return constant(true);
  }
  if (inputs.size() == 1) {
    return inputs[0];
  }
  const Lit out = fresh();
  std::vector<Lit> clause;
  clause.reserve(inputs.size() + 1);
  clause.push_back(out);
  for (Lit in : inputs) {
    solver_->add_binary(~out, in);
    clause.push_back(~in);
  }
  solver_->add_clause(clause);
  return out;
}

Lit CnfBuilder::or_of(std::initializer_list<Lit> inputs) {
  return or_of(std::span<const Lit>(inputs.begin(), inputs.size()));
}

Lit CnfBuilder::or_of(std::span<const Lit> inputs) {
  if (inputs.empty()) {
    return constant(false);
  }
  if (inputs.size() == 1) {
    return inputs[0];
  }
  const Lit out = fresh();
  std::vector<Lit> clause;
  clause.reserve(inputs.size() + 1);
  clause.push_back(~out);
  for (Lit in : inputs) {
    solver_->add_binary(out, ~in);
    clause.push_back(in);
  }
  solver_->add_clause(clause);
  return out;
}

void CnfBuilder::add_equal(Lit a, Lit b) {
  solver_->add_binary(~a, b);
  solver_->add_binary(a, ~b);
}

void CnfBuilder::add_at_most_k(std::span<const Lit> lits, std::size_t k) {
  const std::size_t n = lits.size();
  if (k >= n) {
    return;  // Trivially satisfied.
  }
  if (k == 0) {
    for (Lit l : lits) {
      solver_->add_unit(~l);
    }
    return;
  }

  // Sinz sequential counter: s[i][j] = "at least j+1 of lits[0..i] are true".
  std::vector<std::vector<Lit>> s(n, std::vector<Lit>(k));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      s[i][j] = fresh();
    }
  }
  // lits[0] -> s[0][0]
  solver_->add_binary(~lits[0], s[0][0]);
  // !s[0][j] for j >= 1
  for (std::size_t j = 1; j < k; ++j) {
    solver_->add_unit(~s[0][j]);
  }
  for (std::size_t i = 1; i < n; ++i) {
    // lits[i] -> s[i][0]
    solver_->add_binary(~lits[i], s[i][0]);
    // s[i-1][j] -> s[i][j]
    for (std::size_t j = 0; j < k; ++j) {
      solver_->add_binary(~s[i - 1][j], s[i][j]);
    }
    // lits[i] & s[i-1][j-1] -> s[i][j]
    for (std::size_t j = 1; j < k; ++j) {
      solver_->add_ternary(~lits[i], ~s[i - 1][j - 1], s[i][j]);
    }
    // Overflow: lits[i] & s[i-1][k-1] -> false
    solver_->add_binary(~lits[i], ~s[i - 1][k - 1]);
  }
}

CardinalityLadder CnfBuilder::make_cardinality_ladder(
    std::span<const Lit> lits, std::size_t max_bound) {
  CardinalityLadder ladder;
  const std::size_t n = lits.size();
  const std::size_t k = std::min(max_bound, n);
  if (n == 0 || k == 0) {
    return ladder;
  }
  // Sinz counter, one direction only: s[i][j] is implied true when at
  // least j+1 of lits[0..i] are true. Unlike `add_at_most_k` there are no
  // overflow clauses — the bound is chosen per solve via `at_most()`.
  std::vector<std::vector<Lit>> s(n, std::vector<Lit>(k));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k && j <= i; ++j) {
      s[i][j] = fresh();
    }
  }
  solver_->add_binary(~lits[0], s[0][0]);
  for (std::size_t i = 1; i < n; ++i) {
    solver_->add_binary(~lits[i], s[i][0]);
    for (std::size_t j = 0; j < k && j <= i - 1; ++j) {
      solver_->add_binary(~s[i - 1][j], s[i][j]);
    }
    for (std::size_t j = 1; j < k && j <= i; ++j) {
      solver_->add_ternary(~lits[i], ~s[i - 1][j - 1], s[i][j]);
    }
  }
  ladder.count_ge.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    // For j > i the prefix cannot hold j+1 true literals; those slots were
    // never created. The full-row literal is s[n-1][j], defined for all j.
    ladder.count_ge[j] = s[n - 1][j];
  }
  return ladder;
}

void CnfBuilder::add_at_least_one(std::span<const Lit> lits) {
  solver_->add_clause(lits);
}

void CnfBuilder::add_exactly_one(std::span<const Lit> lits) {
  assert(!lits.empty());
  add_at_least_one(lits);
  for (std::size_t i = 0; i < lits.size(); ++i) {
    for (std::size_t j = i + 1; j < lits.size(); ++j) {
      solver_->add_binary(~lits[i], ~lits[j]);
    }
  }
}

}  // namespace ftsp::sat
