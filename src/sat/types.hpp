#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace ftsp::sat {

/// A Boolean variable, numbered from 0.
using Var = std::int32_t;

constexpr Var kUndefVar = -1;

/// A literal: a variable or its negation, packed as `2*var + sign`.
/// `sign() == true` means the negated literal.
class Lit {
 public:
  constexpr Lit() = default;
  constexpr Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

  constexpr Var var() const { return code_ >> 1; }
  constexpr bool sign() const { return (code_ & 1) != 0; }
  constexpr std::int32_t code() const { return code_; }

  constexpr Lit operator~() const { return from_code(code_ ^ 1); }
  constexpr auto operator<=>(const Lit&) const = default;  // By code.

  static constexpr Lit from_code(std::int32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  static const Lit undef;

 private:
  std::int32_t code_ = -2;
};

inline constexpr Lit Lit::undef = {};

/// Positive literal of `v`.
constexpr Lit pos(Var v) { return Lit(v, false); }
/// Negative literal of `v`.
constexpr Lit neg(Var v) { return Lit(v, true); }

/// Three-valued logic for partial assignments.
enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

constexpr LBool lbool_from(bool b) { return b ? LBool::True : LBool::False; }

constexpr LBool operator^(LBool v, bool flip) {
  if (v == LBool::Undef) {
    return v;
  }
  return lbool_from((v == LBool::True) != flip);
}

}  // namespace ftsp::sat

template <>
struct std::hash<ftsp::sat::Lit> {
  std::size_t operator()(const ftsp::sat::Lit& l) const noexcept {
    return std::hash<std::int32_t>{}(l.code());
  }
};
