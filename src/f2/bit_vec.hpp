#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace ftsp::f2 {

/// A fixed-length vector over F2, packed into 64-bit words.
///
/// `BitVec` is the workhorse value type of the library: Pauli supports,
/// stabilizer rows, syndromes and error patterns are all `BitVec`s. It is a
/// regular type (copyable, movable, equality-comparable, hashable) with
/// value semantics.
class BitVec {
 public:
  BitVec() = default;

  /// Creates an all-zero vector of `size` bits.
  explicit BitVec(std::size_t size);

  /// Creates a vector of `size` bits with the listed positions set.
  BitVec(std::size_t size, std::initializer_list<std::size_t> ones);

  /// Parses a string of '0'/'1' characters (most significant index last,
  /// i.e. `s[i]` is bit `i`). Characters '_', ' ' and '.' are skipped so
  /// check-matrix literals can be grouped for readability.
  static BitVec from_string(const std::string& s);

  /// A vector of `size` bits read from packed words laid out as `words()`
  /// (exactly `(size + 63) / 64` of them); bits at and above `size` are
  /// dropped.
  static BitVec from_words(std::size_t size,
                           std::span<const std::uint64_t> words);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value = true);
  void flip(std::size_t i);
  void clear();

  /// Number of set bits.
  std::size_t popcount() const;

  /// True iff any bit is set.
  bool any() const;
  bool none() const { return !any(); }

  /// In-place XOR with `other`. Both vectors must have equal size.
  BitVec& operator^=(const BitVec& other);
  /// In-place AND with `other`. Both vectors must have equal size.
  BitVec& operator&=(const BitVec& other);
  /// In-place OR with `other`. Both vectors must have equal size.
  BitVec& operator|=(const BitVec& other);

  friend BitVec operator^(BitVec lhs, const BitVec& rhs) { return lhs ^= rhs; }
  friend BitVec operator&(BitVec lhs, const BitVec& rhs) { return lhs &= rhs; }
  friend BitVec operator|(BitVec lhs, const BitVec& rhs) { return lhs |= rhs; }

  bool operator==(const BitVec& other) const = default;

  /// Standard inner product over F2: parity of the AND of both vectors.
  /// For CSS codes this is the symplectic form between an X-type and a
  /// Z-type Pauli, i.e. `dot() == 1` iff the operators anticommute.
  bool dot(const BitVec& other) const;

  /// Index of the lowest set bit, or `size()` if none.
  std::size_t lowest_set() const;

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> ones() const;

  /// Lexicographic comparison as an integer with bit 0 least significant.
  /// Gives a total order used for canonicalization and as map keys.
  bool lex_less(const BitVec& other) const;

  /// Renders as a '0'/'1' string, bit 0 first.
  std::string to_string() const;

  /// FNV-1a style hash over the packed words.
  std::size_t hash() const;

  /// The packed words: bit i is bit `i % 64` of word `i / 64`, and the
  /// bits at and above `size()` are zero. Word loops (span walks, table
  /// checks) read these instead of building `BitVec` temporaries.
  std::span<const std::uint64_t> words() const { return words_; }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;

  static std::size_t word_count(std::size_t size) { return (size + 63) / 64; }
  void check_same_size(const BitVec& other) const;
};

struct BitVecHash {
  std::size_t operator()(const BitVec& v) const { return v.hash(); }
};

struct BitVecLexLess {
  bool operator()(const BitVec& a, const BitVec& b) const {
    return a.lex_less(b);
  }
};

}  // namespace ftsp::f2
