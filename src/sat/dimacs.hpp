#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace ftsp::sat {

class Solver;

/// A CNF formula in portable form, convertible to/from DIMACS text.
/// Used for solver regression tests and for exporting synthesis queries.
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

/// Renders a formula as DIMACS text.
std::string to_dimacs(const CnfFormula& formula);

}  // namespace ftsp::sat
