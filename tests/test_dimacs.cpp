#include "sat/dimacs.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sat/solver.hpp"

namespace ftsp::sat {
namespace {

TEST(Dimacs, ParsesSimpleFormula) {
  const auto f = parse_dimacs_string(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n");
  EXPECT_EQ(f.num_vars, 3);
  ASSERT_EQ(f.clauses.size(), 2u);
  EXPECT_EQ(f.clauses[0][0], pos(0));
  EXPECT_EQ(f.clauses[0][1], neg(1));
  EXPECT_EQ(f.clauses[1][1], pos(2));
}

TEST(Dimacs, MultipleClausesPerLine) {
  const auto f = parse_dimacs_string("p cnf 2 2\n1 0 -2 0\n");
  EXPECT_EQ(f.clauses.size(), 2u);
}

TEST(Dimacs, RejectsClauseBeforeHeader) {
  EXPECT_THROW(parse_dimacs_string("1 0\n"), std::invalid_argument);
}

TEST(Dimacs, RejectsUnterminatedClause) {
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n1 -2\n"),
               std::invalid_argument);
}

TEST(Dimacs, RejectsVariableOutOfRange) {
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n3 0\n"),
               std::invalid_argument);
}

/// Literals whose magnitude exceeds the header must be rejected before
/// they are narrowed to a 32-bit variable index: once wrapped they would
/// alias x1, ~x2 or a negative variable.
TEST(Dimacs, RejectsLiteralsThatWrapWhenNarrowed) {
  for (const char* literal :
       {"4294967297", "-4294967298", "2147483649", "-9223372036854775808"}) {
    EXPECT_THROW(
        parse_dimacs_string(std::string("p cnf 2 1\n") + literal + " 0\n"),
        std::invalid_argument)
        << literal;
  }
}

TEST(Dimacs, RejectsMalformedLiteral) {
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n1 0 x\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_dimacs_string("p cnf 2 1\n99999999999999999999 0\n"),
               std::invalid_argument);
}

TEST(Dimacs, RejectsBadHeader) {
  EXPECT_THROW(parse_dimacs_string("p sat 2 1\n1 0\n"),
               std::invalid_argument);
}

TEST(Dimacs, RejectsHeaderCountsOutsideInt32) {
  for (const char* header :
       {"p cnf -1 1\n", "p cnf 2 -1\n", "p cnf 4294967297 1\n",
        "p cnf 2 2147483648\n", "p cnf 2\n", "p cnf x 1\n"}) {
    EXPECT_THROW(parse_dimacs_string(header), std::invalid_argument)
        << header;
  }
  EXPECT_EQ(parse_dimacs_string("p cnf 2147483647 0\n").num_vars,
            2147483647);
}

TEST(Dimacs, RoundTrip) {
  const auto f = parse_dimacs_string("p cnf 4 3\n1 -2 0\n3 0\n-1 -3 4 0\n");
  const auto again = parse_dimacs_string(to_dimacs(f.num_vars, f.clauses));
  EXPECT_EQ(again.num_vars, f.num_vars);
  ASSERT_EQ(again.clauses.size(), f.clauses.size());
  for (std::size_t i = 0; i < f.clauses.size(); ++i) {
    EXPECT_EQ(again.clauses[i], f.clauses[i]);
  }
  // Extra units render as trailing unit clauses and count in the header.
  const std::vector<Lit> units = {Lit(3, false), Lit(1, true)};
  EXPECT_EQ(to_dimacs(f.num_vars, f.clauses, units),
            "p cnf 4 5\n1 -2 0\n3 0\n-1 -3 4 0\n4 0\n-2 0\n");
}

TEST(Dimacs, LoadIntoSolverAndSolve) {
  // (x1 | x2) & (!x1) & (!x2 | x3) forces x2, x3.
  const auto f = parse_dimacs_string("p cnf 3 3\n1 2 0\n-1 0\n-2 3 0\n");
  Solver s;
  EXPECT_TRUE(f.load_into(s));
  ASSERT_TRUE(s.solve());
  EXPECT_FALSE(s.model_value(Var{0}));
  EXPECT_TRUE(s.model_value(Var{1}));
  EXPECT_TRUE(s.model_value(Var{2}));
}

TEST(Dimacs, LoadUnsatFormula) {
  const auto f = parse_dimacs_string("p cnf 1 2\n1 0\n-1 0\n");
  Solver s;
  EXPECT_FALSE(f.load_into(s));
  EXPECT_FALSE(s.solve());
}

}  // namespace
}  // namespace ftsp::sat
