// The nine library artifacts served from a store, end to end: compile,
// `ArtifactStore::put`, then a fresh service loads the store the way a
// cold `query` or a starting server does. The `codes`, `info` (minus its
// wall time) and qasm `circuit` reply bytes are pinned, so whatever the
// load path rebuilds (codes and their distances, decoder tables) must
// rebuild exactly what the compile wrote.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "compile/service.hpp"
#include "compile/store.hpp"
#include "qec/code_library.hpp"
#include "util/hash.hpp"

namespace ftsp::compile {
namespace {

namespace fs = std::filesystem;

class LibraryReplies : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::temp_directory_path() /
                        ("ftsp-library-replies-" + std::to_string(::getpid())));
    fs::remove_all(*dir_);
    const ProtocolCompiler compiler;
    artifacts_ = new std::vector<ProtocolArtifact>();
    ArtifactStore store(dir_->string());
    for (const qec::CssCode& code : qec::all_library_codes()) {
      artifacts_->push_back(compiler.compile(code));
      store.put(artifacts_->back());
    }
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*dir_, ec);
    delete dir_;
    delete artifacts_;
    dir_ = nullptr;
    artifacts_ = nullptr;
  }

  static fs::path* dir_;
  static std::vector<ProtocolArtifact>* artifacts_;
};

fs::path* LibraryReplies::dir_ = nullptr;
std::vector<ProtocolArtifact>* LibraryReplies::artifacts_ = nullptr;

/// The reply without its `compile_wall_seconds` field, the one value a
/// recompile does not reproduce.
std::string without_wall_time(std::string reply) {
  const std::string field = R"(,"compile_wall_seconds":)";
  const auto start = reply.find(field);
  if (start == std::string::npos) {
    return reply;
  }
  const auto end = reply.find_first_of(",}", start + field.size());
  reply.erase(start, end - start);
  return reply;
}

struct PinnedCode {
  const char* code;
  std::uint64_t info;     ///< FNV-1a/64 of the `info` reply, wall time cut.
  std::uint64_t circuit;  ///< FNV-1a/64 of the qasm `circuit` reply.
};

constexpr std::uint64_t kCodesDigest = 0xdd106e299af07cafULL;
constexpr PinnedCode kPinnedCodes[] = {
    {"Steane", 0x8128da501b99d55dULL, 0xcd674d10bb0f2997ULL},
    {"Shor", 0x8b26aa70166e98fdULL, 0x91c9282f35d36e09ULL},
    {"Surface_3", 0x18e38157e9985a25ULL, 0xb3f403e322e26eaeULL},
    {"[[11,1,3]]", 0x5852214de164b948ULL, 0x05771eb17feeec74ULL},
    {"Tetrahedral", 0x4a371b71bc5b948aULL, 0xeaa7a61104a346d4ULL},
    {"Hamming", 0xbc69cc36524b515dULL, 0xb8123e9f1893ebdcULL},
    {"Carbon", 0x1eb8d28aa37cf9cfULL, 0xcf06fcb9ead23fd6ULL},
    {"[[16,2,4]]", 0x6448139586d51a9eULL, 0xb6e9daa52bac51fdULL},
    {"Tesseract", 0xecba88bc3a1b188aULL, 0x837281157ece2b18ULL},
};

TEST_F(LibraryReplies, StoreLoadedRepliesArePinned) {
  ArtifactStore store(dir_->string());
  ProtocolService service;
  ASSERT_EQ(service.load_store(store), 9u);

  const std::string codes = service.handle_request(R"({"op":"codes"})");
  EXPECT_EQ(util::fnv1a64(codes), kCodesDigest)
      << std::hex << "codes: got 0x" << util::fnv1a64(codes) << "\n"
      << codes;
  for (const PinnedCode& pin : kPinnedCodes) {
    const std::string name = pin.code;
    const std::string info = without_wall_time(service.handle_request(
        R"({"op":"info","code":")" + name + R"("})"));
    const std::string circuit = service.handle_request(
        R"({"op":"circuit","code":")" + name + R"(","format":"qasm"})");
    EXPECT_EQ(util::fnv1a64(info), pin.info)
        << name << std::hex << " info: got 0x" << util::fnv1a64(info) << "\n"
        << info;
    EXPECT_EQ(util::fnv1a64(circuit), pin.circuit)
        << name << std::hex << " circuit: got 0x" << util::fnv1a64(circuit);
  }
}

TEST_F(LibraryReplies, BadDecoderTableIsQuarantinedAndTheRestServes) {
  // Two damages to Steane's artifact, each leaving every section CRC
  // valid, so only the serving entry's load checks see them: two X
  // decoder-table entries swapped (the rehydration check), and one
  // segment's site count changed in the layout (the layout check).
  struct Damage {
    const char* dir;
    void (*apply)(ProtocolArtifact&);
  };
  const Damage damages[] = {
      {"bad-table",
       [](ProtocolArtifact& artifact) {
         std::swap(artifact.x_decoder_table[1], artifact.x_decoder_table[2]);
       }},
      {"bad-layout",
       [](ProtocolArtifact& artifact) {
         ++artifact.layout.segments.at(1).site_counts[1];
       }},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.dir);
    const fs::path dir = *dir_ / damage.dir;
    std::string victim;
    {
      ArtifactStore store(dir.string());
      for (ProtocolArtifact artifact : *artifacts_) {
        if (artifact.protocol.code->name() == "Steane") {
          damage.apply(artifact);
          victim = artifact.key;
        }
        store.put(artifact);
      }
    }
    ASSERT_FALSE(victim.empty());

    ArtifactStore store(dir.string());
    ProtocolService service;
    EXPECT_EQ(service.load_store(store), 8u);
    EXPECT_FALSE(store.contains(victim));
    EXPECT_EQ(service.store_recovery().quarantined, 1u);
    std::size_t quarantined = 0;
    for (const auto& entry : fs::directory_iterator(dir / "quarantine")) {
      quarantined += entry.path().extension() == ".ftsa" ? 1 : 0;
    }
    EXPECT_EQ(quarantined, 1u);

    EXPECT_EQ(service.handle_request(R"({"op":"codes"})"),
              R"({"ok":true,"codes":["Carbon","Hamming","Shor","Surface_3",)"
              R"("Tesseract","Tetrahedral","[[11,1,3]]","[[16,2,4]]"]})");
    const std::string health = service.handle_request(R"({"op":"health"})");
    EXPECT_NE(health.find(R"("quarantined":1)"), std::string::npos) << health;
    for (const PinnedCode& pin : kPinnedCodes) {
      const std::string name = pin.code;
      const std::string info = without_wall_time(service.handle_request(
          R"({"op":"info","code":")" + name + R"("})"));
      if (name == "Steane") {
        EXPECT_NE(info.find(R"("ok":false)"), std::string::npos) << info;
      } else {
        EXPECT_EQ(util::fnv1a64(info), pin.info) << name << "\n" << info;
      }
    }
    // The damaged artifact answers no sampler request; the rest sample.
    EXPECT_NE(service
                  .handle_request(
                      R"({"op":"sample","code":"Steane","p":0.01,"shots":64})")
                  .find(R"("ok":false)"),
              std::string::npos);
    EXPECT_NE(
        service
            .handle_request(
                R"({"op":"sample","code":"Shor","p":0.01,"shots":64})")
            .find(R"("ok":true)"),
        std::string::npos);
  }
}

}  // namespace
}  // namespace ftsp::compile
