#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/buffer_pool.hpp"
#include "util/bytebuffer.hpp"

namespace agentloc::net {

/// --- Wire frame layout (DESIGN.md §15, docs/PROTOCOL.md §11) ---------------
///
///   offset 0  magic        0xA6 (1 byte)
///          1  type         FrameType (1 byte)
///          2  flags        reserved, 0 for now (1 byte)
///          3  correlation  LEB128 varint (1..10 bytes)
///          .  length       padded 4-byte varint (see ByteWriter::
///                          write_varint4) — payload byte count
///          .  payload      `length` bytes, ByteWriter/ByteReader encoded
///
/// The length slot is a *padded* varint so a frame can be encoded in one
/// forward pass straight into a pooled buffer: the header goes down with a
/// zeroed slot, the payload is appended in place, and the slot is patched —
/// no second buffer, no memmove. Any standard LEB128 decoder reads the
/// padded form; `FrameDecoder` additionally accepts canonical encodings.
///
/// Framing carries the existing `util::ByteWriter` serialization (varints,
/// BitStrings) unchanged — the payload format is the one the simulator's
/// wire-size accounting already pins down (`core/protocol.hpp`).

/// Message types of the agentloc wire protocol (the daemon's RPC surface;
/// DESIGN.md §15). Values are wire-stable: append, never renumber.
enum class FrameType : std::uint8_t {
  kHello = 1,      ///< client → server: protocol version handshake
  kHelloAck = 2,   ///< server → client: version + partition/tree info
  kUpdate = 3,     ///< register/move: LocationEntry (agent, node, seq)
  kUpdateAck = 4,  ///< ack when the update carried a correlation
  kLocate = 5,     ///< locate request: agent id
  kLocateReply = 6,  ///< status, node, seq, version
  kDeregister = 7,   ///< agent leaving: agent id, seq
  kPing = 8,
  kPong = 9,
  kError = 10,  ///< string diagnostic; the peer should close
  /// Worker-shard advertisement (DESIGN.md §15). Client → server with an
  /// empty payload asks for the map; server → client carries worker count,
  /// partition count, tree version, per-worker addresses, and the
  /// leaf → worker ownership table.
  kPartitionMap = 11,
};

inline constexpr std::uint8_t kFrameMagic = 0xA6;

/// Header bytes before the payload, at the widest correlation varint.
inline constexpr std::size_t kFrameHeaderMax = 3 + 10 + 4;

/// Default per-frame payload cap. Anything larger is a protocol error — it
/// bounds decoder buffering against corrupt or hostile length fields.
inline constexpr std::size_t kDefaultMaxFramePayload = 1u << 20;

/// A decoded frame. `payload` points into the decoder's buffer and stays
/// valid until the next `FrameDecoder` call (`next`, `feed`, `writable`,
/// `commit`) — consume it before pulling the next frame.
struct FrameView {
  FrameType type = FrameType::kError;
  std::uint8_t flags = 0;
  std::uint64_t correlation = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;

  util::ByteReader payload_reader() const noexcept {
    return {payload, payload_size};
  }
};

/// An in-progress frame inside a `ByteWriter` (which typically adopted a
/// pooled buffer and may already hold earlier frames of the same batch).
struct OpenFrame {
  std::size_t frame_start = 0;    ///< offset of the magic byte
  std::size_t length_slot = 0;    ///< offset of the padded length varint
  std::size_t payload_start = 0;  ///< offset where the payload begins
};

/// Append a frame header with a zeroed length slot; the caller then encodes
/// the payload through the same writer and closes with `end_frame`.
OpenFrame begin_frame(util::ByteWriter& writer, FrameType type,
                      std::uint64_t correlation, std::uint8_t flags = 0);

/// Patch the frame's length slot to cover everything appended since
/// `begin_frame`. Returns the total encoded frame size in bytes.
std::size_t end_frame(util::ByteWriter& writer, const OpenFrame& open);

/// Incremental frame parser over a byte stream (one per peer connection).
///
/// Bytes arrive either zero-copy — `recv` straight into `writable()` /
/// `commit()` — or by copy via `feed()` (tests, codec benches). `next()`
/// yields complete frames as views into the internal (pooled) buffer.
/// Malformed input — wrong magic, malformed varints, a length above the
/// cap — is a clean, sticky `kError` with a diagnostic; nothing throws and
/// nothing is read out of bounds, so corrupt peers cost a connection, not
/// the process.
class FrameDecoder {
 public:
  struct Config {
    std::size_t max_payload = kDefaultMaxFramePayload;
  };

  enum class Status : std::uint8_t {
    kFrame,     ///< `out` holds the next frame
    kNeedMore,  ///< the buffered bytes end mid-frame; feed more
    kError,     ///< protocol violation; `error()` describes it
  };

  explicit FrameDecoder(util::BufferPool& pool);
  FrameDecoder(util::BufferPool& pool, Config config);
  ~FrameDecoder();
  FrameDecoder(FrameDecoder&& other) noexcept;
  FrameDecoder& operator=(FrameDecoder&& other) noexcept;
  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;

  /// Space for at least `min_bytes` more input; write into the returned
  /// pointer, then `commit` what actually arrived.
  std::uint8_t* writable(std::size_t min_bytes);
  void commit(std::size_t bytes) noexcept;

  /// Copying convenience over writable/commit.
  void feed(const std::uint8_t* data, std::size_t size);

  Status next(FrameView& out);

  bool failed() const noexcept { return failed_; }
  const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed by `next` (0 between frames).
  std::size_t buffered() const noexcept { return len_ - pos_; }

 private:
  Status fail(const char* message);
  void compact() noexcept;
  void release_buffer() noexcept;

  util::BufferPool* pool_;
  Config config_;
  std::vector<std::uint8_t> buffer_;
  std::size_t len_ = 0;  ///< committed input bytes in `buffer_`
  std::size_t pos_ = 0;  ///< parse cursor: [pos_, len_) is unparsed
  bool failed_ = false;
  std::string error_;
};

}  // namespace agentloc::net
