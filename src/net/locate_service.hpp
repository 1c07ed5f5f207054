#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "hashtree/tree.hpp"
#include "net/socket_transport.hpp"
#include "util/flat_map.hpp"

namespace agentloc::net {

/// Worker-shard advertisement (the kPartitionMap frame, DESIGN.md §15):
/// how many workers serve a directory, which address each one listens on,
/// and which worker owns each hash-tree leaf. Single-worker servers answer
/// a degenerate map (workers=1, empty address = "the connection you
/// already hold"), so clients can probe unconditionally.
struct PartitionMap {
  std::uint64_t workers = 1;
  std::uint64_t partitions = 1;
  std::uint64_t tree_version = 0;
  /// One address string per worker ("unix:…"/"tcp:…"). addresses[0] may be
  /// empty: the advertising connection itself is worker 0.
  std::vector<std::string> addresses;
  /// Leaf index (iagent-1 in the pre-split tree) → owning worker.
  std::vector<std::uint32_t> owner;

  void encode(util::ByteWriter& writer) const;
  /// Throws std::runtime_error on malformed payloads (like the ByteReader
  /// primitives it is built from); validates owner indices < workers.
  static PartitionMap decode(util::ByteReader& reader);
};

}  // namespace agentloc::net

namespace agentloc::net {

/// Version carried in kHello/kHelloAck; bumped on incompatible changes.
inline constexpr std::uint64_t kLocateProtocolVersion = 1;

/// The authoritative location directory one `agentlocd` process serves: the
/// paper's hash scheme answering real RPCs. Agent ids route through a
/// `hashtree::HashTree` pre-split into `partitions` leaves (each leaf is an
/// in-process IAgent shard with its own table), and bindings apply under the
/// same newest-seq-wins rule as the simulated IAgents — a reordered older
/// update or deregister can never clobber a newer binding.
class LocateDirectory {
 public:
  explicit LocateDirectory(std::size_t partitions);

  /// The deterministic pre-split tree every directory of `partitions`
  /// leaves uses (breadth-first simple splits, IAgent ids 1..P). Exposed so
  /// routing clients and worker shards reconstruct the identical id → leaf
  /// map from the partition count alone.
  static hashtree::HashTree make_tree(std::size_t partitions);

  std::size_t partition_count() const noexcept { return tables_.size(); }
  std::size_t partition_of(platform::AgentId agent) const;

  /// Returns true when the entry was applied (no newer seq already held).
  bool apply_update(platform::AgentId agent, NodeId node, std::uint64_t seq);

  /// Remove the binding unless a strictly newer update already landed.
  bool deregister_agent(platform::AgentId agent, std::uint64_t seq);

  core::LocateReply locate(platform::AgentId agent) const;

  std::size_t size() const noexcept;  ///< bindings across all partitions
  std::uint64_t tree_version() const noexcept { return tree_.version(); }
  const hashtree::HashTree& tree() const noexcept { return tree_; }

 private:
  struct Binding {
    NodeId node = kNoNode;
    std::uint64_t seq = 0;
    bool present = false;  ///< false after deregister (seq tombstone)
  };

  hashtree::HashTree tree_;
  std::vector<util::FlatMap<platform::AgentId, Binding, platform::kNoAgent>>
      tables_;
};

/// Frame flag on kUpdate/kDeregister: the sender wants a kUpdateAck.
inline constexpr std::uint8_t kFlagWantAck = 0x01;

/// Server side of the locate protocol: plugs a `LocateDirectory` into a
/// `SocketTransport`'s frame handler. One instance per `agentlocd` process.
///
/// Payload encodings (all varint unless noted; framing per frame.hpp):
///   kHello       → protocol version
///   kHelloAck    → protocol version, partition count, tree version
///   kUpdate      → agent, node, seq            (flags bit0: want ack)
///   kUpdateAck   → applied (bool), tree version
///   kLocate      → agent
///   kLocateReply → status (u8), node, seq, tree version
///   kDeregister  → agent, seq                  (flags bit0: want ack)
///   kPing/kPong  → empty (correlation echoed)
///   kPartitionMap→ request: empty; reply: PartitionMap::encode
///   kError       → string diagnostic
class LocateService {
 public:
  struct Counters {
    std::uint64_t hellos = 0;
    std::uint64_t updates = 0;
    std::uint64_t updates_applied = 0;
    std::uint64_t locates = 0;
    std::uint64_t locates_found = 0;
    std::uint64_t deregisters = 0;
    std::uint64_t pings = 0;
    std::uint64_t partition_map_requests = 0;
    std::uint64_t protocol_errors = 0;
  };

  /// Installs itself as `transport`'s frame handler. The transport must
  /// outlive the service. `map` (optional, non-owning) is the worker-shard
  /// advertisement answered to kPartitionMap requests; without one the
  /// service advertises itself as a single worker.
  LocateService(SocketTransport& transport, std::size_t partitions,
                const PartitionMap* map = nullptr);

  LocateDirectory& directory() noexcept { return directory_; }
  const LocateDirectory& directory() const noexcept { return directory_; }
  const Counters& counters() const noexcept { return counters_; }

  void handle_frame(SocketTransport::PeerId peer, const FrameView& frame);

 private:
  void send_error(SocketTransport::PeerId peer, std::uint64_t correlation,
                  const std::string& message);

  SocketTransport& transport_;
  LocateDirectory directory_;
  const PartitionMap* map_ = nullptr;  ///< non-owning; nullptr = standalone
  Counters counters_;
};

/// Client side: owns its transport, speaks the handshake, and offers both
/// synchronous round-trips (connect-and-verify paths) and a pipelined
/// fire-many/collect-many mode (the loadgen's throughput path).
///
/// Two connection modes:
///  - `connect` — one connection, every op on it (the PR-9 behaviour, and
///    still fully consistent against a sharded server: each worker's
///    directory covers all leaves, so a single-connection client is its
///    own single writer).
///  - `connect_cluster` — fetch the server's kPartitionMap, dial every
///    worker, and route each op to the worker owning the agent's hash-tree
///    leaf (the client rebuilds the identical pre-split tree from the
///    partition count). All connections share one transport/event loop, so
///    pipelining stays per-connection and `drain` collects across workers.
class LocateClient {
 public:
  LocateClient();

  /// Connect + kHello/kHelloAck handshake. False + `error` on failure or
  /// version mismatch.
  bool connect(const SocketAddress& address, std::string* error,
               int timeout_ms = 5000);

  /// `connect`, then fetch the partition map and dial every advertised
  /// worker. Against a single-worker server this degrades to `connect`.
  bool connect_cluster(const SocketAddress& address, std::string* error,
                       int timeout_ms = 5000);

  /// True while every dialed worker connection is open.
  bool connected() const noexcept;
  /// Partition count the server announced in its kHelloAck.
  std::uint64_t server_partitions() const noexcept { return partitions_; }

  /// Worker connections held (1 unless connect_cluster found more).
  std::size_t worker_count() const noexcept {
    return workers_.empty() ? 1 : workers_.size();
  }
  /// The map fetched by connect_cluster (nullptr before/without one).
  const PartitionMap* partition_map() const noexcept {
    return has_map_ ? &map_ : nullptr;
  }
  /// Ops routed per worker connection (updates + locates + deregisters);
  /// index-aligned with the partition map's worker list. The bench's
  /// balance evidence.
  const std::vector<std::uint64_t>& per_worker_ops() const noexcept {
    return per_worker_ops_;
  }
  /// Sticky diagnostic: set on handshake failure or when any worker
  /// connection drops; cleared by the next successful connect.
  const std::string& last_error() const noexcept { return last_error_; }

  /// One-way update (no ack requested); pipelined, flushed by `flush` or a
  /// later sync call.
  bool send_update(platform::AgentId agent, NodeId node, std::uint64_t seq);

  /// Synchronous update: requests an ack and waits for it. Returns the
  /// applied flag, or nullopt on timeout/disconnect.
  std::optional<bool> update(platform::AgentId agent, NodeId node,
                             std::uint64_t seq, int timeout_ms = 5000);

  std::optional<core::LocateReply> locate(platform::AgentId agent,
                                          int timeout_ms = 5000);

  bool send_deregister(platform::AgentId agent, std::uint64_t seq);

  bool ping(int timeout_ms = 5000);

  /// Pipelined locate: send without waiting. Replies are collected by
  /// `drain` in arrival order.
  void send_locate(platform::AgentId agent, std::uint64_t correlation);

  struct PipelinedReply {
    std::uint64_t correlation = 0;
    core::LocateReply reply;
  };

  /// Flush pending frames and run the event loop until `count` pipelined
  /// locate replies arrived or `timeout_ms` elapsed. Returns the replies.
  std::vector<PipelinedReply> drain(std::size_t count, int timeout_ms);

  void flush();
  SocketTransport& transport() noexcept { return transport_; }

 private:
  struct Waiter {
    bool done = false;
    FrameType type = FrameType::kError;
    bool ack_applied = false;
    core::LocateReply reply;
  };

  void handle_frame(SocketTransport::PeerId peer, const FrameView& frame);
  /// Run the loop until the sync waiter for `correlation` completes.
  bool wait_for(std::uint64_t correlation, int timeout_ms);
  /// Handshake an already-connected peer (kHello round-trip).
  bool handshake(SocketTransport::PeerId peer, std::string* error,
                 int timeout_ms);
  /// The worker connection owning `agent`'s leaf (server_ without a map);
  /// bumps the per-worker op counter.
  SocketTransport::PeerId peer_for(platform::AgentId agent);

  SocketTransport transport_;
  SocketTransport::PeerId server_ = SocketTransport::kInvalidPeer;
  std::vector<SocketTransport::PeerId> workers_;  ///< [0] == server_
  std::vector<std::uint64_t> per_worker_ops_;
  bool has_map_ = false;
  PartitionMap map_;
  /// Client-side rebuild of the server's pre-split tree — the routing
  /// function. Engaged only when the map advertises >1 worker.
  std::optional<hashtree::HashTree> route_tree_;
  std::string last_error_;
  bool disconnected_ = false;
  std::uint64_t next_correlation_ = 1;
  std::uint64_t partitions_ = 0;

  std::uint64_t sync_correlation_ = 0;  ///< 0: no sync wait in flight
  Waiter sync_waiter_;
  std::vector<PipelinedReply> pipelined_;
};

}  // namespace agentloc::net
