#include "f2/bit_vec.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "util/hash.hpp"

namespace ftsp::f2 {

BitVec::BitVec(std::size_t size) : size_(size), words_(word_count(size), 0) {}

BitVec::BitVec(std::size_t size, std::initializer_list<std::size_t> ones)
    : BitVec(size) {
  for (std::size_t i : ones) {
    set(i);
  }
}

BitVec BitVec::from_string(const std::string& s) {
  std::string bits;
  bits.reserve(s.size());
  for (char c : s) {
    if (c == '0' || c == '1') {
      bits.push_back(c);
    } else if (c == '_' || c == ' ' || c == '.') {
      continue;
    } else {
      throw std::invalid_argument("BitVec::from_string: invalid character");
    }
  }
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      v.set(i);
    }
  }
  return v;
}

BitVec BitVec::from_words(std::size_t size,
                          std::span<const std::uint64_t> words) {
  if (words.size() != word_count(size)) {
    throw std::invalid_argument("BitVec::from_words: word count");
  }
  BitVec v(size);
  for (std::size_t i = 0; i < words.size(); ++i) {
    v.words_[i] = words[i];
  }
  if (size % 64 != 0) {
    v.words_.back() &= (std::uint64_t{1} << (size % 64)) - 1;
  }
  return v;
}

bool BitVec::get(std::size_t i) const {
  assert(i < size_);
  return (words_[i / 64] >> (i % 64)) & 1U;
}

void BitVec::set(std::size_t i, bool value) {
  assert(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (value) {
    words_[i / 64] |= mask;
  } else {
    words_[i / 64] &= ~mask;
  }
}

void BitVec::flip(std::size_t i) {
  assert(i < size_);
  words_[i / 64] ^= std::uint64_t{1} << (i % 64);
}

void BitVec::clear() {
  for (auto& w : words_) {
    w = 0;
  }
}

std::size_t BitVec::popcount() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

bool BitVec::any() const {
  for (std::uint64_t w : words_) {
    if (w != 0) {
      return true;
    }
  }
  return false;
}

void BitVec::check_same_size(const BitVec& other) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVec: size mismatch");
  }
}

BitVec& BitVec::operator^=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= other.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= other.words_[i];
  }
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  check_same_size(other);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
  return *this;
}

bool BitVec::dot(const BitVec& other) const {
  check_same_size(other);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    acc ^= words_[i] & other.words_[i];
  }
  return (std::popcount(acc) & 1) != 0;
}

std::size_t BitVec::lowest_set() const {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] != 0) {
      return i * 64 + static_cast<std::size_t>(std::countr_zero(words_[i]));
    }
  }
  return size_;
}

std::vector<std::size_t> BitVec::ones() const {
  std::vector<std::size_t> result;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t bits = words_[w];
    while (bits != 0) {
      result.push_back(w * 64 +
                       static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return result;
}

bool BitVec::lex_less(const BitVec& other) const {
  check_same_size(other);
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != other.words_[i]) {
      return words_[i] < other.words_[i];
    }
  }
  return false;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) {
      s[i] = '1';
    }
  }
  return s;
}

std::size_t BitVec::hash() const {
  // Whole-word folds plus a final size fold. This sequence seeds
  // deterministic synthesis downstream, so it is frozen: word-wise,
  // canonical offset, size folded last.
  util::Fnv1a64 h;
  for (std::uint64_t w : words_) {
    h.word(w);
  }
  h.word(size_);
  return static_cast<std::size_t>(h.value());
}

}  // namespace ftsp::f2
