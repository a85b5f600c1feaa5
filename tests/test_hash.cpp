// Cross-checks for the tree's shared non-cryptographic hashes:
// util::crc32 (the .ftsa container checksum) against known vectors and
// an independent table-free implementation, and util::Fnv1a64 against
// reference vectors plus golden pins for every persisted fold sequence
// (coupling fingerprints, satcache file names, BitVec seeds).
//
// ftsp-lint: allow-file(hyg-local-crc) this test IS the cross-check: it
// spells the reference constants and an independent bitwise CRC on
// purpose.
#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "f2/bit_vec.hpp"
#include "qec/coupling.hpp"
#include "util/binio.hpp"

namespace ftsp {
namespace {

/// Bitwise CRC-32 (reflected, poly 0xEDB88320) with no lookup table —
/// deliberately a different shape from the table-driven util::binio
/// implementation so a table-generation bug cannot hide.
std::uint32_t crc32_bitwise(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32 check value plus edge cases.
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0x00000000u);
  EXPECT_EQ(util::crc32(std::string_view("\0", 1)), 0xD202EF8Du);
  EXPECT_EQ(util::crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, MatchesIndependentBitwiseImplementation) {
  // Deterministic pseudo-random byte strings of assorted lengths.
  util::Fnv1a64 gen;
  for (std::size_t length : {0u, 1u, 7u, 64u, 255u, 1000u}) {
    std::string data;
    data.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      gen.le64(i);
      data.push_back(static_cast<char>(gen.value() & 0xffu));
    }
    EXPECT_EQ(util::crc32(data), crc32_bitwise(data))
        << "length " << length;
  }
}

/// The bytewise table-driven CRC-32 loop, one table lookup per byte.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string pseudo_random_bytes(std::size_t length, std::uint64_t seed) {
  std::string data(length, '\0');
  std::uint64_t state = seed;
  for (char& byte : data) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    byte = static_cast<char>(state >> 56);
  }
  return data;
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryShortLengthAndOffset) {
  // Every tail length of the eight-byte loop, at every start offset.
  const std::string buffer = pseudo_random_bytes(64 + 8, 29);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      EXPECT_EQ(util::crc32(data), crc32_bytewise(data))
          << "offset " << offset << " length " << length;
    }
  }
  const std::string mebibyte = pseudo_random_bytes(std::size_t{1} << 20, 8);
  EXPECT_EQ(util::crc32(mebibyte), crc32_bytewise(mebibyte));
  EXPECT_EQ(crc32_bytewise("123456789"), 0xCBF43926u);
}

TEST(Fnv1a64, ReferenceVectors) {
  // Published FNV-1a/64 test vectors.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, SeedsAndFoldsAgree) {
  // The canonical offset is the default seed.
  EXPECT_EQ(util::kFnv1a64Offset, 0xcbf29ce484222325ull);
  // The legacy seed is frozen forever: it differs from the canonical
  // offset (dropped final digit) and is baked into persisted coupling
  // fingerprints and reload stamps.
  EXPECT_EQ(util::kFnv1a64LegacyOffset, 1469598103934665603ull);
  EXPECT_NE(util::kFnv1a64LegacyOffset, util::kFnv1a64Offset);

  // text() and bytes() are the same fold.
  const std::string sample = "ftsp hash sample";
  EXPECT_EQ(util::Fnv1a64().text(sample).value(),
            util::Fnv1a64().bytes(sample.data(), sample.size()).value());

  // le64() is exactly eight byte() folds, little-endian.
  util::Fnv1a64 by_bytes;
  for (int i = 0; i < 8; ++i) {
    by_bytes.byte(static_cast<std::uint8_t>((0x0123456789abcdefull >>
                                             (8 * i)) &
                                            0xffu));
  }
  EXPECT_EQ(util::Fnv1a64().le64(0x0123456789abcdefull).value(),
            by_bytes.value());

  // word() is a single whole-word fold, distinct from le64().
  EXPECT_NE(util::Fnv1a64().word(0x0123456789abcdefull).value(),
            util::Fnv1a64().le64(0x0123456789abcdefull).value());
}

// Golden pins for the persisted fold sequences. These values are baked
// into artifact-store keys, satcache file names, and synthesis seeds:
// if one of these expectations fails, the hash refactor changed a
// persisted contract.
TEST(Fnv1a64, PersistedFoldsPinned) {
  // qec::CouplingMap::fingerprint — legacy seed, le64 folds.
  EXPECT_EQ(qec::CouplingMap::builtin("linear", 7).fingerprint(),
            "k7-b06941fda89a9ba2");
  EXPECT_EQ(qec::CouplingMap::builtin("ring", 7).fingerprint(),
            "k7-51e9a0f64927afa4");
  EXPECT_EQ(qec::CouplingMap::builtin("heavy-hex", 7).fingerprint(),
            "k7-4a0fc5b1a8187023");

  // f2::BitVec::hash — canonical seed, word folds, size last.
  f2::BitVec v(130);
  v.set(0);
  v.set(64);
  v.set(129);
  EXPECT_EQ(static_cast<std::uint64_t>(v.hash()), 0xb5ccf7774c79b2d7ull);

  // core::cache_key_hash delegates to fnv1a64(); pin the value that
  // names satcache files on disk.
  EXPECT_EQ(util::fnv1a64("Steane|zero|prep"), 0x73f60222b2bf6c50ull);
}

}  // namespace
}  // namespace ftsp
