#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace ftsp::sat {

class Solver;
struct ProofLog;

/// A CNF formula in portable form, parsed from DIMACS text. Used for
/// solver regression tests and for re-checking persisted proof premises.
struct CnfFormula {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;

  /// Loads all clauses into `solver`, creating variables as needed.
  /// Returns false if the solver became trivially unsatisfiable.
  bool load_into(Solver& solver) const;
};

/// Parses DIMACS CNF ("p cnf <vars> <clauses>" header, clauses terminated
/// by 0, 'c' comment lines). Throws `std::invalid_argument` on malformed
/// input.
CnfFormula parse_dimacs(std::istream& in);
CnfFormula parse_dimacs_string(const std::string& text);

/// Renders `clauses` followed by one unit clause per literal of `units`
/// as DIMACS text under the header "p cnf <num_vars> <clause count>".
std::string to_dimacs(int num_vars,
                      std::span<const std::vector<Lit>> clauses,
                      std::span<const Lit> units = {});

/// Renders the first `lines` lines of `log` as DRAT text, one clause per
/// line like `to_dimacs` (deletions prefixed "d "), then the empty clause
/// "0" that ends the refutation.
std::string to_drat(const ProofLog& log, std::size_t lines);
/// Characters `to_drat` writes for one line, newline included.
std::size_t drat_line_size(std::span<const Lit> lits, bool deletion);

}  // namespace ftsp::sat
