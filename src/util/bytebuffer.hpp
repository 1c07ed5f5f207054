#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/bitstring.hpp"

namespace agentloc::util {

/// Encoded width of `write_varint(value)` in bytes, without writing it —
/// lets size-based decisions (delta vs. snapshot) run before any encoding.
constexpr std::size_t varint_size(std::uint64_t value) noexcept {
  std::size_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

/// Append-only binary writer with varint encoding.
///
/// The platform charges migration and messaging latency per serialized byte,
/// and the HAgent ships hash-tree snapshots to LHAgents; both use this pair
/// of classes so the "bytes on the wire" the latency model sees are the bytes
/// an actual implementation would send.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopt `storage` and append after its existing content. This is the
  /// zero-copy hook of the frame codec (DESIGN.md §15): a pooled buffer is
  /// moved in, payload bytes are encoded straight into it, and `take()`
  /// moves it back out for the wire — no intermediate vector, no memcpy.
  explicit ByteWriter(std::vector<std::uint8_t> storage)
      : bytes_(std::move(storage)) {}

  void write_u8(std::uint8_t value);
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);

  /// LEB128 variable-length unsigned integer.
  void write_varint(std::uint64_t value);

  /// Append a 4-byte *padded* varint: LEB128 with forced continuation bits,
  /// always exactly 4 bytes, decoding to the same value as the canonical
  /// form. Frame headers reserve one of these as a length slot before the
  /// payload is encoded and patch it afterwards (`patch_varint4`) — a
  /// single-pass, zero-copy alternative to encode-then-prepend. Values must
  /// fit in 28 bits.
  void write_varint4(std::uint32_t value);

  /// Overwrite the padded varint previously written at `offset` (bounds-
  /// and width-checked). Throws `std::out_of_range` / `std::length_error`
  /// on misuse.
  void patch_varint4(std::size_t offset, std::uint32_t value);

  void write_bool(bool value) { write_u8(value ? 1 : 0); }
  void write_double(double value);
  void write_string(std::string_view text);
  void write_bits(const BitString& bits);
  void write_bytes(const std::uint8_t* data, std::size_t size);

  /// Pre-grow the underlying buffer for a payload of known rough size.
  void reserve(std::size_t bytes) { bytes_.reserve(bytes_.size() + bytes); }

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return bytes_.size(); }

  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over bytes produced by `ByteWriter`.
/// All methods throw `std::out_of_range` on truncated input and
/// `std::invalid_argument` on malformed varints, so corrupt snapshots fail
/// loudly instead of yielding a garbled hash tree.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::uint64_t read_varint();
  bool read_bool() { return read_u8() != 0; }
  double read_double();
  std::string read_string();
  BitString read_bits();

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool exhausted() const noexcept { return pos_ == size_; }

 private:
  void require(std::size_t count) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace agentloc::util
