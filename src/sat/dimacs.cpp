#include "sat/dimacs.hpp"

#include <charconv>
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

/// Characters `lits` takes as a DIMACS clause line, "0\n" included.
std::size_t clause_line_size(std::span<const Lit> lits) {
  std::size_t size = 2;
  for (const Lit l : lits) {
    size += l.sign() ? 3 : 2;  // Sign, first digit and the space.
    for (int v = l.var() + 1; v >= 10; v /= 10) {
      ++size;
    }
  }
  return size;
}

/// Appends `lits` as a DIMACS clause line.
void put_clause(std::string& out, std::span<const Lit> lits) {
  char buf[16];
  for (const Lit l : lits) {
    const int value = l.sign() ? -(l.var() + 1) : (l.var() + 1);
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    out += ' ';
  }
  out += "0\n";
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

std::string to_dimacs(int num_vars,
                      std::span<const std::vector<Lit>> clauses,
                      std::span<const Lit> units) {
  const std::string header = "p cnf " + std::to_string(num_vars) + ' ' +
                             std::to_string(clauses.size() + units.size()) +
                             '\n';
  // Sized exactly up front: proof premises run to megabytes and live as
  // long as their artifact, so growth slack would stay allocated.
  std::size_t size = header.size();
  for (const auto& clause : clauses) {
    size += clause_line_size(clause);
  }
  for (const Lit& l : units) {
    size += clause_line_size({&l, 1});
  }
  std::string out;
  out.reserve(size);
  out += header;
  for (const auto& clause : clauses) {
    put_clause(out, clause);
  }
  for (const Lit& l : units) {
    put_clause(out, {&l, 1});
  }
  return out;
}

std::size_t drat_line_size(std::span<const Lit> lits, bool deletion) {
  return (deletion ? 2 : 0) + clause_line_size(lits);  // "d ".
}

std::string to_drat(const ProofLog& log, std::size_t lines) {
  std::size_t size = 2;  // The empty clause.
  for (std::size_t i = 0; i < lines; ++i) {
    size += drat_line_size(log.line(i), log.deletions[i]);
  }
  std::string out;
  out.reserve(size);
  for (std::size_t i = 0; i < lines; ++i) {
    out += log.deletions[i] ? "d " : "";
    put_clause(out, log.line(i));
  }
  out += "0\n";
  return out;
}

}  // namespace ftsp::sat
