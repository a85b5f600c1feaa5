// Robustness of the artifact container format: truncation, CRC damage,
// version bumps and unknown sections must fail loud (or skip cleanly),
// never produce garbage objects.
#include "compile/format.hpp"

#include <gtest/gtest.h>

#include "compile/artifact.hpp"
#include "core/protocol.hpp"
#include "core/serialize.hpp"
#include "qec/code_library.hpp"
#include "util/binio.hpp"

namespace ftsp::compile {
namespace {

std::vector<Section> demo_sections() {
  return {{1, "hello"}, {2, std::string("\x00\x01\x02", 3)}, {7, ""}};
}

TEST(Container, RoundTrips) {
  const auto packed = pack_container(demo_sections());
  const auto sections = unpack_container(packed);
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].id, 1u);
  EXPECT_EQ(sections[0].bytes, "hello");
  EXPECT_EQ(sections[1].bytes.size(), 3u);
  EXPECT_EQ(sections[2].bytes, "");
  EXPECT_EQ(find_section(sections, SectionId::Meta), "hello");
}

TEST(Container, EveryTruncationFailsLoud) {
  const auto packed = pack_container(demo_sections());
  // Chop at every length short of the full file: header cuts, table
  // cuts, payload cuts — all must throw, none may crash or succeed.
  for (std::size_t length = 0; length < packed.size(); ++length) {
    EXPECT_THROW(unpack_container(std::string_view(packed).substr(0, length)),
                 ArtifactFormatError)
        << "accepted a file truncated to " << length << " bytes";
  }
}

TEST(Container, BadMagicRejected) {
  auto packed = pack_container(demo_sections());
  packed[0] = 'X';
  EXPECT_THROW(unpack_container(packed), ArtifactFormatError);
}

TEST(Container, FutureVersionRejectedWithMessage) {
  auto packed = pack_container(demo_sections());
  packed[8] = 99;  // Container version low byte.
  try {
    unpack_container(packed);
    FAIL() << "future version accepted";
  } catch (const ArtifactFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
  }
}

TEST(Container, EveryPayloadByteIsCrcProtected) {
  const auto reference = pack_container(demo_sections());
  // Flip every bit of the payload region (past header + table); each
  // flip must be caught by some section's CRC.
  const std::size_t payload_start = reference.size() - 8;  // "hello" + 3.
  for (std::size_t i = payload_start; i < reference.size(); ++i) {
    auto damaged = reference;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    EXPECT_THROW(unpack_container(damaged), ArtifactFormatError)
        << "undetected corruption at byte " << i;
  }
}

TEST(Container, OutOfBoundsSectionRejected) {
  auto packed = pack_container(demo_sections());
  // Section 0's offset field lives at header(16) + 8; point it past EOF.
  packed[16 + 8] = static_cast<char>(0xFF);
  packed[16 + 9] = static_cast<char>(0xFF);
  EXPECT_THROW(unpack_container(packed), ArtifactFormatError);
}

TEST(Container, MissingSectionReported) {
  const auto sections = unpack_container(pack_container(demo_sections()));
  EXPECT_THROW(find_section(sections, SectionId::Provenance),
               ArtifactFormatError);
}

// Full-artifact robustness: the same guarantees must hold through
// `decode_artifact`, which layers the section decoders on top.
class ArtifactBytes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ProtocolCompiler compiler;
    artifact_ = new ProtocolArtifact(compiler.compile(qec::steane()));
    bytes_ = new std::string(encode_artifact(*artifact_));
  }
  static void TearDownTestSuite() {
    delete artifact_;
    delete bytes_;
    artifact_ = nullptr;
    bytes_ = nullptr;
  }

  static ProtocolArtifact* artifact_;
  static std::string* bytes_;
};

ProtocolArtifact* ArtifactBytes::artifact_ = nullptr;
std::string* ArtifactBytes::bytes_ = nullptr;

TEST_F(ArtifactBytes, LegacyProvenancePayloadStillDecodes) {
  // Pre-coupling writers ended the provenance payload at compiled_at;
  // the trailing prep_fallback byte is optional. Strip it and the
  // artifact must decode with prep_fallback == false.
  auto sections = unpack_container(*bytes_);
  bool stripped = false;
  for (auto& section : sections) {
    if (section.id == static_cast<std::uint32_t>(SectionId::Provenance)) {
      ASSERT_FALSE(section.bytes.empty());
      section.bytes.pop_back();
      stripped = true;
    }
  }
  ASSERT_TRUE(stripped);
  const auto artifact = decode_artifact(pack_container(sections));
  EXPECT_FALSE(artifact.provenance.prep_fallback);
  EXPECT_EQ(artifact.provenance.prep_cnots,
            artifact_->provenance.prep_cnots);
}

TEST_F(ArtifactBytes, LegacyArtifactWithoutCouplingSectionIsAllToAll) {
  // An all-to-all compile writes no Coupling section — exactly the
  // shape of every pre-coupling artifact — and decodes to a null map.
  const auto sections = unpack_container(*bytes_);
  for (const auto& section : sections) {
    EXPECT_NE(section.id, static_cast<std::uint32_t>(SectionId::Coupling));
  }
  const auto artifact = decode_artifact(*bytes_);
  EXPECT_EQ(artifact.coupling, nullptr);
  EXPECT_EQ(artifact.gadget_reach, 0u);
}

TEST_F(ArtifactBytes, CorruptCouplingSectionFailsLoud) {
  // A Coupling section whose edge list points out of range passes the
  // CRC (we recompute it) but must still be rejected semantically.
  auto sections = unpack_container(*bytes_);
  util::ByteWriter bogus;
  bogus.str("evil");
  bogus.u32(3);   // sites
  bogus.u32(0);   // gadget reach
  bogus.u32(1);   // edge count
  bogus.u32(0);
  bogus.u32(9);   // out of range for 3 sites
  sections.push_back(
      {static_cast<std::uint32_t>(SectionId::Coupling), bogus.take()});
  EXPECT_THROW(decode_artifact(pack_container(sections)),
               ArtifactFormatError);

  // An absurd site count must be rejected *before* the adjacency
  // allocation, not via bad_alloc.
  auto sections2 = unpack_container(*bytes_);
  util::ByteWriter huge;
  huge.str("evil");
  huge.u32(0xFFFFFFFFu);  // sites
  huge.u32(0);            // gadget reach
  huge.u32(0);            // edge count
  sections2.push_back(
      {static_cast<std::uint32_t>(SectionId::Coupling), huge.take()});
  EXPECT_THROW(decode_artifact(pack_container(sections2)),
               ArtifactFormatError);
}

TEST_F(ArtifactBytes, UnknownSectionsAreSkippedCleanly) {
  // A future writer appends a section this build has never heard of —
  // the file must still load, byte-identically to the known sections.
  auto sections = unpack_container(*bytes_);
  sections.push_back({0xBEEF, "future payload this build cannot parse"});
  const auto artifact = decode_artifact(pack_container(sections));
  EXPECT_EQ(artifact.key, artifact_->key);
  EXPECT_EQ(artifact.protocol.code->name(), "Steane");
  EXPECT_EQ(artifact.x_decoder_table, artifact_->x_decoder_table);
}

TEST_F(ArtifactBytes, TruncationNeverYieldsAnArtifact) {
  for (std::size_t length = 0; length < bytes_->size();
       length += 7) {  // Stride keeps the quadratic scan fast.
    EXPECT_THROW(
        decode_artifact(std::string_view(*bytes_).substr(0, length)),
        ArtifactFormatError)
        << "decoded an artifact truncated to " << length << " bytes";
  }
}

TEST_F(ArtifactBytes, CorruptedDecoderTableRejected) {
  // Damage a decoder-table entry *and* fix up the section CRC, so only
  // the semantic validation (table vs code consistency) can catch it.
  auto sections = unpack_container(*bytes_);
  for (auto& section : sections) {
    if (section.id == static_cast<std::uint32_t>(SectionId::DecoderX)) {
      // Flip the last payload bit of the last table entry.
      section.bytes.back() = static_cast<char>(section.bytes.back() ^ 0x01);
    }
  }
  const auto repacked = pack_container(sections);
  // Tables are stored raw, so the flip must surface at the semantic
  // validation layer: decoder rehydration checks every entry's syndrome.
  bool threw = false;
  try {
    const auto artifact = decode_artifact(repacked);
    make_artifact_decoder(artifact);
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT_TRUE(threw) << "corrupted decoder table silently accepted";
}

TEST_F(ArtifactBytes, HugeCountsRejectedBeforeAllocating) {
  // A tiny section claiming 2^32-1 elements must fail as a format error
  // up front, not attempt a multi-GB reserve first.
  for (const SectionId target : {SectionId::Layout, SectionId::DecoderX}) {
    auto sections = unpack_container(*bytes_);
    for (auto& section : sections) {
      if (section.id == static_cast<std::uint32_t>(target)) {
        section.bytes.assign(section.bytes.size(), '\xFF');
      }
    }
    EXPECT_THROW(decode_artifact(pack_container(sections)),
                 ArtifactFormatError);
  }
}

TEST_F(ArtifactBytes, GarbageNeverDecodes) {
  EXPECT_THROW(decode_artifact("not an artifact at all"),
               ArtifactFormatError);
  EXPECT_THROW(core::load_protocol_binary("garbage"), std::exception);
}

}  // namespace
}  // namespace ftsp::compile
