#include "sat/dimacs.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sat/solver.hpp"

namespace ftsp::sat {

namespace {
bool fits_int32(long long count) {
  return count >= 0 && count <= std::numeric_limits<std::int32_t>::max();
}
}  // namespace

bool CnfFormula::load_into(Solver& solver) const {
  while (solver.num_vars() < num_vars) {
    solver.new_var();
  }
  bool ok = true;
  for (const auto& clause : clauses) {
    ok = solver.add_clause(clause) && ok;
  }
  return ok;
}

CnfFormula parse_dimacs(std::istream& in) {
  CnfFormula formula;
  std::string line;
  bool header_seen = false;
  std::vector<Lit> current;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') {
      continue;
    }
    if (line[0] == 'p') {
      std::istringstream header(line);
      std::string p, cnf;
      long long num_vars = -1;
      long long clause_count = -1;
      header >> p >> cnf >> num_vars >> clause_count;
      if (!header || p != "p" || cnf != "cnf" || !fits_int32(num_vars) ||
          !fits_int32(clause_count)) {
        throw std::invalid_argument("parse_dimacs: malformed header");
      }
      formula.num_vars = static_cast<int>(num_vars);
      header_seen = true;
      continue;
    }
    if (!header_seen) {
      throw std::invalid_argument("parse_dimacs: clause before header");
    }
    std::istringstream tokens(line);
    long long value = 0;
    while (tokens >> value) {
      if (value == 0) {
        formula.clauses.push_back(current);
        current.clear();
        continue;
      }
      // Range-check the untrusted magnitude before narrowing it to Var.
      if (value < -formula.num_vars || value > formula.num_vars) {
        throw std::invalid_argument("parse_dimacs: variable out of range");
      }
      const auto v = static_cast<Var>((value < 0 ? -value : value) - 1);
      current.push_back(Lit(v, value < 0));
    }
    if (!tokens.eof()) {
      throw std::invalid_argument("parse_dimacs: malformed literal");
    }
  }
  if (!current.empty()) {
    throw std::invalid_argument("parse_dimacs: unterminated clause");
  }
  return formula;
}

CnfFormula parse_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return parse_dimacs(in);
}

std::string to_dimacs(const CnfFormula& formula) {
  std::ostringstream out;
  out << "p cnf " << formula.num_vars << ' ' << formula.clauses.size()
      << '\n';
  for (const auto& clause : formula.clauses) {
    for (Lit l : clause) {
      out << (l.sign() ? -(l.var() + 1) : (l.var() + 1)) << ' ';
    }
    out << "0\n";
  }
  return out.str();
}

}  // namespace ftsp::sat
