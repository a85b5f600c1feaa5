#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ftsp::compile {

/// Any structural defect of an artifact file: bad magic, unsupported
/// version, truncated section table, out-of-bounds payload, CRC
/// mismatch. Corrupted input always fails loud with this type — it is
/// never silently repaired and never reaches the decoders.
class ArtifactFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// On-disk container version. Bumped only for incompatible *container*
/// changes; new section kinds do NOT bump it (old readers skip unknown
/// section ids, see `unpack_container`). Full byte-level spec in
/// `src/compile/format.md`.
inline constexpr std::uint16_t kContainerVersion = 1;

/// Well-known section ids of a protocol artifact. Ids are stable
/// append-only protocol constants; readers ignore ids they do not know.
enum class SectionId : std::uint32_t {
  Meta = 1,        ///< Store key, code name, basis (string metadata).
  Protocol = 2,    ///< `core::save_protocol_binary` payload.
  DecoderX = 3,    ///< X-error lookup-decoder table.
  DecoderZ = 4,    ///< Z-error lookup-decoder table.
  Layout = 5,      ///< Precomputed `core::FrameBatchLayout`.
  Provenance = 6,  ///< Synthesis provenance (engine, stats, wall time).
  Coupling = 7,    ///< Device coupling map the protocol was compiled for.
                   ///< Optional: absent means all-to-all (legacy files).
  Proof = 8,       ///< Optimality-proof metadata: per-stage DRAT proof
                   ///< fingerprints and checker verdicts (bytes live in a
                   ///< `.proof` sidecar). Optional: absent means the
                   ///< artifact was compiled without proof capture.
};

struct Section {
  std::uint32_t id = 0;
  std::string bytes;
};

/// Serializes sections into the container byte layout: 8-byte magic,
/// version, section table (id/flags/offset/size/CRC32 per entry), then
/// the payloads.
std::string pack_container(const std::vector<Section>& sections);

/// Parses and integrity-checks a container. Every section's CRC is
/// verified; any structural defect throws `ArtifactFormatError`. Unknown
/// section ids are returned as-is — skipping them is the *caller's*
/// (cheap) job, which is what makes the format forward-compatible:
/// files written by a newer library with extra sections load cleanly.
std::vector<Section> unpack_container(std::string_view bytes);

/// Returns the payload of the first section with the given id, or
/// throws `ArtifactFormatError` when the section is absent.
const std::string& find_section(const std::vector<Section>& sections,
                                SectionId id);

}  // namespace ftsp::compile
