#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/transport.hpp"
#include "platform/agent.hpp"
#include "platform/message.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"
#include "util/inline_function.hpp"
#include "util/ring_buffer.hpp"

namespace agentloc::platform {

/// Outcome of a `request` RPC.
struct RpcResult {
  enum class Status {
    kOk,               ///< `reply` holds the response.
    kTimeout,          ///< no response within the deadline
    kDeliveryFailure,  ///< destination node did not host the target agent
  };

  Status status = Status::kTimeout;
  Message reply;

  bool ok() const noexcept { return status == Status::kOk; }
};

/// RPC completion callback. Location-protocol callbacks capture a handful of
/// ids plus a continuation (~56 bytes), so 64 inline bytes keeps the request
/// path allocation-free where `std::function` spilled every capture.
using RpcCallback = util::InlineFunction<void(RpcResult), 64>;

/// Itemized estimate of the platform's resident heap bytes, by subsystem.
/// Feeds `PlatformStats::bytes_per_agent` and the `bench_scale` memory
/// curves; each component counts *capacity* (what is allocated), not
/// momentary occupancy, because pooled capacity is what the process holds at
/// steady state.
struct MemoryBreakdown {
  /// Agent record storage: hot slot array, cold agent-pointer array, the
  /// free-slot list, and the id → slot index table.
  std::size_t agent_records = 0;
  /// Live and pooled inbox ring slabs.
  std::size_t inboxes = 0;
  /// Pending-RPC table slots.
  std::size_t rpc_table = 0;
  /// In-flight message slot pool.
  std::size_t in_flight = 0;
  /// Per-node service registry vectors.
  std::size_t services = 0;

  std::size_t total() const noexcept {
    return agent_records + inboxes + rpc_table + in_flight + services;
  }
};

/// Counters the benches report alongside location times.
struct PlatformStats {
  std::uint64_t agents_created = 0;
  std::uint64_t agents_disposed = 0;
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_processed = 0;
  std::uint64_t messages_bounced = 0;
  std::uint64_t rpc_timeouts = 0;
  /// RPCs completed with `kDeliveryFailure` (bounced request, or the caller
  /// was disposed with the RPC still pending).
  std::uint64_t rpc_delivery_failures = 0;
  /// `BatchedUpdate` flushes performed by the core layer's update batchers.
  std::uint64_t batch_flushes = 0;
  /// Location updates that rode an existing batch instead of paying for a
  /// wire message of their own (`enqueued - flushed batches`).
  std::uint64_t messages_coalesced = 0;
  /// High-water mark of any single agent inbox (including the message in
  /// service) — the queueing-pressure analogue of the paper's saturation
  /// curves, and the platform's dominant per-agent memory term.
  std::size_t peak_inbox_depth = 0;
  /// Estimated resident platform bytes per live agent at collection time
  /// (`AgentSystem::estimated_resident_bytes / live_agent_count`), filled by
  /// the experiment harness; 0 while a run is in flight.
  double bytes_per_agent = 0.0;
  /// High-water mark of `AgentSystem::estimated_resident_bytes`, sampled at
  /// every allocation growth point (agent install, inbox growth, in-flight
  /// pool growth). Deterministic for a fixed seed, so it gates in CI the way
  /// throughput does (lower is better).
  std::size_t peak_resident_bytes = 0;
  /// Per-subsystem byte attribution behind `bytes_per_agent`, filled by the
  /// experiment harness at collection time.
  MemoryBreakdown memory;
};

/// The mobile-agent platform: hosts agents on simulated nodes, migrates them,
/// and delivers inter-agent messages.
///
/// This is the repository's stand-in for Aglets (see DESIGN.md §2). Three
/// properties matter to the reproduction:
///
/// 1. **Messaging is location-addressed.** A message goes to a (node, id)
///    address; if the agent is no longer there the platform bounces a
///    `DeliveryFailure` to the sender. Nothing in the platform tracks agents
///    globally — that is precisely the job of the location mechanism built
///    on top.
/// 2. **Processing costs CPU.** Each agent serves its inbox FIFO, one message
///    per `service_time`. An agent flooded with requests (the centralized
///    tracker at scale) accumulates queueing delay — the effect behind the
///    paper's Figure 7/8 curves.
/// 3. **Migration costs bandwidth and time.** Moving an agent ships its
///    serialized image through the same network, and the agent processes no
///    messages while in transit.
///
/// The message plane is allocation-free in steady state (DESIGN.md §10):
/// payloads live inline in `util::PayloadBox`, inboxes are pooled
/// `util::RingBuffer`s recycled across agent lifetimes, and in-flight
/// messages wait in a slot pool so delivery events capture 16 trivially-
/// copyable bytes.
///
/// Agent records live in generation-tagged slab storage (DESIGN.md §14): a
/// dense array of hot `Slot`s (id, node mirror, generation, lifecycle flags,
/// inbox ring header) parallel to a cold array of owning agent pointers,
/// indexed by an open-addressing id → slot `util::FlatMap`. Scheduled events
/// capture `{slot, generation}` — validity is one array probe, slots are
/// recycled through a free list, and erasing an agent never moves another
/// agent's record.
class AgentSystem {
 public:
  struct Config {
    /// CPU time an agent spends handling one message.
    sim::SimTime service_time = sim::SimTime::micros(400);

    /// Assign uniformly-mixed agent ids (see `AgentId` docs). Tests may
    /// disable this to get small sequential ids.
    bool mixed_ids = true;

    /// Bounce undeliverable messages back to their sender.
    bool bounce_undeliverable = true;

    /// Default RPC deadline when the caller does not pass one.
    sim::SimTime default_rpc_timeout = sim::SimTime::millis(250);

    /// Delay before re-sending a migration the fault plan swallowed
    /// (migration is modelled as reliable transport, e.g. TCP retries).
    sim::SimTime migration_retry = sim::SimTime::millis(5);

    /// Pre-size the record slab and id index for this many agents (0 = grow
    /// on demand). Million-agent runs set this so the install storm never
    /// rehashes the index or reallocates the slab mid-run.
    std::size_t reserve_agents = 0;
  };

  AgentSystem(sim::Simulator& simulator, net::Network& network);
  AgentSystem(sim::Simulator& simulator, net::Network& network,
              Config config);
  ~AgentSystem();
  AgentSystem(const AgentSystem&) = delete;
  AgentSystem& operator=(const AgentSystem&) = delete;

  sim::Simulator& simulator() noexcept { return simulator_; }
  net::Network& network() noexcept { return network_; }

  /// --- Message-plane transport seam (DESIGN.md §15) ---------------------
  /// Every transmission the platform makes — messages, bounces, migrations —
  /// samples faults/latency and counts deliveries through this seam. The
  /// default backend is a `net::SimTransport` over `network()`, which is
  /// bit-identical to calling the network directly (fixed-seed
  /// test-enforced). Tests and tracing shims may install a decorator; the
  /// replacement must report the same `node_count()` and must be swapped in
  /// before any traffic flows.
  net::Transport& transport() noexcept { return *transport_; }
  void set_transport(net::Transport& transport) noexcept {
    transport_ = &transport;
  }
  sim::SimTime now() const noexcept { return simulator_.now(); }
  std::size_t node_count() const noexcept { return network_.node_count(); }
  const Config& config() const noexcept { return config_; }
  const PlatformStats& stats() const noexcept { return stats_; }

  /// Create an agent of type `T` at `node`; `on_start` runs asynchronously
  /// (next simulator event). Returns a reference owned by the system; the
  /// reference stays valid until `dispose`.
  template <typename T, typename... Args>
  T& create(net::NodeId node, Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T& agent = *owned;
    install(std::move(owned), node);
    return agent;
  }

  /// Destroy an agent. Its queued messages bounce; pending RPCs it issued
  /// are dropped.
  void dispose(AgentId id);

  /// Start migrating an agent to `destination`. The agent disappears from
  /// its node immediately and reappears (triggering `on_arrival`) after the
  /// transfer latency. Throws when the agent is unknown or already in
  /// transit.
  void migrate(AgentId id, net::NodeId destination);

  /// Fire-and-forget message.
  void send(AgentId from, const AgentAddress& to, util::PayloadBox body,
            std::size_t wire_bytes);

  /// Request/response. `callback` fires exactly once: with the reply, a
  /// bounce, or a timeout. Replies route to the callback, not to
  /// `on_message`.
  void request(AgentId from, const AgentAddress& to, util::PayloadBox body,
               std::size_t wire_bytes, RpcCallback callback,
               std::optional<sim::SimTime> timeout = std::nullopt);

  /// Respond to a request received in `on_message`.
  void reply(const Message& request, AgentId from, util::PayloadBox body,
             std::size_t wire_bytes);

  /// --- Node-local service registry -------------------------------------
  /// Stationary per-node infrastructure (the paper's LHAgents) registers
  /// here so that newly created or arriving agents can find it without any
  /// remote communication. Names are interned to small integer keys; each
  /// node holds a sorted vector of (key, agent) so the arrival-path lookup
  /// is a name-table probe plus a binary search, not a `std::map` walk.
  using ServiceKey = std::uint32_t;

  void register_service(net::NodeId node, const std::string& name,
                        AgentId agent);
  void unregister_service(net::NodeId node, const std::string& name);
  std::optional<AgentId> lookup_service(net::NodeId node,
                                        const std::string& name) const;

  /// Intern `name`, returning the key accepted by the key-based overload —
  /// hot callers resolve the key once and skip the string compare forever.
  ServiceKey service_key(std::string_view name);
  std::optional<AgentId> lookup_service(net::NodeId node,
                                        ServiceKey key) const;

  /// --- Core-layer stats hooks -------------------------------------------
  /// Called by the update-batching layer when it flushes a batch that
  /// absorbed `coalesced` updates which would otherwise have been messages.
  void note_batch_flush(std::uint64_t coalesced) noexcept {
    ++stats_.batch_flushes;
    stats_.messages_coalesced += coalesced;
  }

  /// Node-local residency check: is `agent` currently hosted *at `node`*?
  /// Unlike the global oracles below, this is information the node itself
  /// holds (the runtime knows its residents), so per-node infrastructure —
  /// an LHAgent answering a location probe (DESIGN.md §12) — may consult it
  /// for its own node without any communication. An agent in transit is
  /// resident nowhere.
  bool hosts(net::NodeId node, AgentId agent) const noexcept;

  /// --- Introspection (test oracle / benches; not used by protocols) -----
  bool exists(AgentId id) const noexcept;
  bool in_transit(AgentId id) const noexcept;

  /// Ground-truth node of an agent (nullopt while in transit or unknown).
  std::optional<net::NodeId> node_of(AgentId id) const noexcept;

  /// Agent pointer for white-box assertions; nullptr if disposed.
  Agent* find(AgentId id) noexcept;

  std::size_t live_agent_count() const noexcept { return index_.size(); }

  /// Number of messages waiting in an agent's inbox (including the one in
  /// service).
  std::size_t inbox_depth(AgentId id) const noexcept;

  /// Inbox ring buffers parked in the recycling pool (white-box tests).
  std::size_t pooled_inbox_count() const noexcept {
    return inbox_pool_.size();
  }

  /// Estimate of the platform's resident heap footprint: record slab and
  /// RPC table slots, live and pooled inbox rings, the in-flight message
  /// pool, and the service registry. Counts capacities (what is allocated),
  /// not sizes (what is momentarily occupied), because pooled capacity is
  /// what the process actually holds at steady state. O(1): the inbox and
  /// service byte totals are tracked incrementally.
  std::size_t estimated_resident_bytes() const noexcept;

  /// The same estimate, itemized by subsystem.
  MemoryBreakdown memory_breakdown() const noexcept;

  /// Pre-size the record slab and id index for `agents` installs (also
  /// reachable via `Config::reserve_agents`). Purely an allocation hint:
  /// trajectories are identical with or without it.
  void reserve(std::size_t agents);

 private:
  enum class State : std::uint8_t { kActive, kInTransit };

  /// Hot per-agent record: everything the delivery and serve paths touch,
  /// packed into one cache line, separate from the cold owning pointer in
  /// `agents_`. A vacant slot has `id == kNoAgent` and waits on
  /// `free_slots_`.
  struct Slot {
    AgentId id = kNoAgent;
    /// Mirror of `Agent::node_` (the system is the only writer of both), so
    /// residency checks never touch the cold agent object. `kNoNode` while
    /// in transit.
    net::NodeId node = net::kNoNode;
    /// Bumped on migrate, dispose, and slot release so stale scheduled
    /// events (which capture `{slot, generation}`) become no-ops — the slab
    /// analogue of the event pool's generation tags.
    std::uint32_t generation = 0;
    State state = State::kActive;
    bool serving = false;
    /// Teardown in progress: reentrant dispose of the same id is a no-op.
    bool disposing = false;
    util::RingBuffer<Message> inbox;
  };

  struct PendingRpc {
    AgentId from = kNoAgent;
    RpcCallback callback;
    sim::EventId timeout_event = sim::kInvalidEvent;
  };

  /// A message between transmit and delivery. Slots are pooled so the
  /// simulator event only carries {system, slot, node} — small enough for
  /// the engine's inline handler storage, so the hot path never allocates.
  /// `next` doubles as the free-list link and, while in flight, the chain
  /// link of a coalesced delivery burst.
  struct InFlight {
    Message message;
    std::uint32_t next = 0;
    std::uint8_t remaining = 0;
  };

  /// Scheduled delivery of one pooled in-flight message (the duplicated-
  /// copy path): 16 trivially-copyable bytes, so the simulator stores and
  /// replays it without touching the heap.
  struct DeliveryEvent {
    AgentSystem* system;
    std::uint32_t slot;
    net::NodeId node;

    void operator()() const { system->on_delivery(slot, node); }
  };

  /// Scheduled delivery of a chain of coalesced messages bound for the same
  /// node at the same instant. A burst of k messages costs one simulator
  /// event instead of k; `transmit` only appends when that merge is provably
  /// order-preserving (see the checks there).
  struct BurstEvent {
    AgentSystem* system;
    std::uint32_t head;
    net::NodeId node;

    void operator()() const { system->on_burst(head, node); }
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffff;
  static constexpr std::uint32_t kNoRecord = 0xffffffff;
  static constexpr std::size_t kMaxPooledInboxes = 256;

  void install(std::unique_ptr<Agent> owned, net::NodeId node);
  AgentId allocate_id();

  /// id → slot index, `kNoRecord` when the id is not installed.
  std::uint32_t record_index(AgentId id) const noexcept;
  Slot* find_record(AgentId id) noexcept;
  const Slot* find_record(AgentId id) const noexcept;

  std::uint32_t acquire_record_slot();
  void release_record_slot(std::uint32_t slot) noexcept;

  void ship_migration(std::uint32_t slot, std::uint32_t generation,
                      net::NodeId source, net::NodeId destination,
                      std::size_t bytes);
  void transmit(Message message, net::NodeId to_node);
  void on_delivery(std::uint32_t slot, net::NodeId node);
  void on_burst(std::uint32_t head, net::NodeId node);
  void deliver(net::NodeId node, Message message);
  void enqueue(std::uint32_t slot, Message&& message);
  void serve_next(std::uint32_t slot, std::uint32_t generation);
  void dispatch(Agent& agent, Message& message);
  void bounce(const Message& message);
  void complete_rpc(std::uint64_t correlation, RpcResult result);
  void drop_rpcs_from(AgentId id);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  util::RingBuffer<Message> acquire_inbox();
  void recycle_inbox(util::RingBuffer<Message>&& inbox);
  void drain_inbox_bouncing(Slot& record);

  void unregister_agent_services(net::NodeId node, AgentId id);

  /// Record a new resident-bytes high-water mark. Called at allocation
  /// growth points only, which is where the (capacity-counting) estimate can
  /// actually move up.
  void note_memory_high_water() noexcept;

  sim::Simulator& simulator_;
  net::Network& network_;
  /// Default message-plane backend (wraps `network_`) and the seam pointer
  /// every transmission goes through. `set_transport` repoints the latter.
  net::SimTransport sim_transport_;
  net::Transport* transport_;
  Config config_;
  PlatformStats stats_;

  std::uint64_t id_counter_ = 0;
  std::uint64_t correlation_counter_ = 0;

  /// Agent records, slab style: `index_` maps the (uniformly mixed, public)
  /// id to a dense slot; `slots_` holds the hot fields; `agents_` the cold
  /// owning pointers, parallel to `slots_`. Vacant slots are recycled via
  /// `free_slots_`. `slots_` only ever grows (push_back may reallocate, so
  /// never hold a `Slot&` across agent callbacks — re-index instead; erasure
  /// never moves records).
  util::FlatMap<AgentId, std::uint32_t, kNoAgent> index_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<std::uint32_t> free_slots_;

  util::FlatMap<std::uint64_t, PendingRpc, 0> pending_rpcs_;

  /// Incrementally tracked byte totals, so `estimated_resident_bytes` is
  /// O(1) and cheap enough to sample at every growth point.
  std::size_t live_inbox_bytes_ = 0;
  std::size_t pooled_inbox_bytes_ = 0;
  std::size_t service_bytes_ = 0;

  /// Interned service names; index in this vector IS the `ServiceKey`.
  std::vector<std::string> service_names_;
  /// Per node: (key, agent), sorted by key.
  std::vector<std::vector<std::pair<ServiceKey, AgentId>>> services_;

  std::vector<InFlight> in_flight_;
  std::uint32_t in_flight_free_ = kNoSlot;

  /// The open delivery burst: tail slot of the chain scheduled by
  /// `open_event_` to land on `open_node_` at `open_when_`. `open_stamp_`
  /// snapshots the simulator's schedule stamp right after that event was
  /// scheduled; any later schedule invalidates the merge (order would no
  /// longer be provably identical), as does the event firing.
  std::uint32_t open_tail_ = kNoSlot;
  net::NodeId open_node_ = 0;
  sim::SimTime open_when_ = sim::SimTime::zero();
  sim::EventId open_event_ = sim::kInvalidEvent;
  std::uint64_t open_stamp_ = 0;

  std::vector<util::RingBuffer<Message>> inbox_pool_;

  /// Agents disposed from inside their own callbacks wait here until the
  /// current event finishes.
  std::vector<std::unique_ptr<Agent>> graveyard_;
  bool graveyard_sweep_scheduled_ = false;
};

}  // namespace agentloc::platform
