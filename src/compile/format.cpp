#include "compile/format.hpp"

#include <sstream>

#include "util/binio.hpp"

namespace ftsp::compile {

namespace {

// "FTSPART\0" — 8 bytes, never a valid text-protocol prefix.
constexpr char kMagic[8] = {'F', 'T', 'S', 'P', 'A', 'R', 'T', '\0'};
constexpr std::size_t kHeaderSize = 8 + 2 + 2 + 4;
constexpr std::size_t kTableEntrySize = 4 + 4 + 8 + 8 + 4;

}  // namespace

std::string pack_container(const std::vector<Section>& sections) {
  util::ByteWriter out;
  out.raw(std::string_view(kMagic, sizeof(kMagic)));
  out.u16(kContainerVersion);
  out.u16(0);  // Reserved.
  out.u32(static_cast<std::uint32_t>(sections.size()));

  std::uint64_t offset = kHeaderSize + sections.size() * kTableEntrySize;
  for (const Section& s : sections) {
    out.u32(s.id);
    out.u32(0);  // Flags, reserved.
    out.u64(offset);
    out.u64(s.bytes.size());
    out.u32(util::crc32(s.bytes));
    offset += s.bytes.size();
  }
  for (const Section& s : sections) {
    out.raw(s.bytes);
  }
  return out.take();
}

std::vector<Section> unpack_container(std::string_view bytes) {
  if (bytes.size() < kHeaderSize) {
    throw ArtifactFormatError("artifact: truncated header");
  }
  if (bytes.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    throw ArtifactFormatError("artifact: bad magic");
  }
  util::ByteReader in(bytes.substr(sizeof(kMagic)));
  const std::uint16_t version = in.u16();
  if (version != kContainerVersion) {
    std::ostringstream msg;
    msg << "artifact: unsupported container version " << version
        << " (this build reads version " << kContainerVersion << ")";
    throw ArtifactFormatError(msg.str());
  }
  (void)in.u16();  // Reserved.
  const std::uint32_t count = in.u32();
  if (bytes.size() < kHeaderSize + std::uint64_t{count} * kTableEntrySize) {
    throw ArtifactFormatError("artifact: truncated section table");
  }

  std::vector<Section> sections;
  sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    s.id = in.u32();
    (void)in.u32();  // Flags.
    const std::uint64_t offset = in.u64();
    const std::uint64_t size = in.u64();
    const std::uint32_t crc = in.u32();
    if (offset > bytes.size() || size > bytes.size() - offset) {
      throw ArtifactFormatError("artifact: section payload out of bounds");
    }
    s.bytes = std::string(bytes.substr(offset, size));
    if (util::crc32(s.bytes) != crc) {
      std::ostringstream msg;
      msg << "artifact: CRC mismatch in section " << s.id;
      throw ArtifactFormatError(msg.str());
    }
    sections.push_back(std::move(s));
  }
  return sections;
}

const std::string& find_section(const std::vector<Section>& sections,
                                SectionId id) {
  for (const Section& s : sections) {
    if (s.id == static_cast<std::uint32_t>(id)) {
      return s.bytes;
    }
  }
  std::ostringstream msg;
  msg << "artifact: missing required section "
      << static_cast<std::uint32_t>(id);
  throw ArtifactFormatError(msg.str());
}

}  // namespace ftsp::compile
