#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ftsp::util {

/// Append-only little-endian byte buffer: the encoder half of the binary
/// codecs (protocol sections, artifact container). All integers are
/// written fixed-width little-endian regardless of host order, so the
/// produced bytes are portable across machines.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);

  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix.
  void raw(std::string_view s) { bytes_.append(s); }

  std::size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian reader over a byte span. Every read past
/// the end throws `std::out_of_range` — truncated input fails loud, it
/// never yields garbage values.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  /// Length-prefixed (u32) byte string.
  std::string str();
  /// Raw byte span of the given length.
  std::string_view raw(std::size_t length);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }
  std::size_t pos() const { return pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;

  void need(std::size_t count) const;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte span —
/// the per-section integrity check of the artifact container and the
/// fingerprint of every stored proof payload. Slicing-by-8: eight bytes
/// per step through eight 256-entry tables.
std::uint32_t crc32(std::string_view bytes);

}  // namespace ftsp::util
