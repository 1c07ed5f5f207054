#pragma once

#include <functional>
#include <string>

#include "platform/agent_system.hpp"

namespace agentloc::core {

/// Result handed to a locate caller.
struct LocateOutcome {
  bool found = false;
  net::NodeId node = net::kNoNode;
  /// Request/response cycles spent (1 = first try succeeded).
  int attempts = 0;
};

/// Client-side counters, common to every scheme. The cache_* block and the
/// coalescing counters are only ever non-zero for `HashLocationScheme` with
/// the matching extension enabled (DESIGN.md §12).
struct SchemeStats {
  std::uint64_t registers = 0;
  std::uint64_t updates = 0;
  std::uint64_t deregisters = 0;
  std::uint64_t locates = 0;
  std::uint64_t locates_found = 0;
  std::uint64_t locates_failed = 0;
  std::uint64_t stale_retries = 0;      ///< wrong-IAgent bounces (§4.3)
  std::uint64_t transient_retries = 0;  ///< handoff-in-flight retries
  std::uint64_t delivery_retries = 0;   ///< unreachable tracker (it moved)
  std::uint64_t timeout_retries = 0;    ///< lost message / missed deadline
  std::uint64_t refreshes_triggered = 0;
  /// Registrations that exhausted their retries; the agent stays untracked
  /// until its first move reports it.
  std::uint64_t registration_giveups = 0;

  /// LocateRequest RPCs actually put on the wire toward an IAgent —
  /// locates() minus what the cache and singleflight absorbed, plus retries.
  std::uint64_t locate_rpcs = 0;
  /// Locates answered by a verified optimistic jump (no IAgent involved).
  std::uint64_t optimistic_locates = 0;
  /// Locates that joined another in-flight IAgent RPC instead of paying for
  /// their own (singleflight coalescing).
  std::uint64_t locates_coalesced = 0;

  /// Location-cache counters, aggregated across every node's cache.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;
};

/// A mobile-agent location mechanism, as seen by the agents that use it.
///
/// The workload layer drives each scheme identically — register on creation,
/// update after each migration, locate on demand — so the paper's
/// experiments compare schemes by swapping this object only. Implementations:
/// `HashLocationScheme` (the paper's mechanism), `CentralizedLocationScheme`
/// (the paper's §5 baseline), `HomeRegistryLocationScheme` (Ajanta-style,
/// §6) and `ForwardingLocationScheme` (Voyager-style, §6).
///
/// All calls are made *by* the agent in question (`self` must be hosted and
/// active); completions are asynchronous simulator callbacks.
class LocationScheme {
 public:
  virtual ~LocationScheme() = default;

  virtual std::string name() const = 0;

  /// Announce a newly created agent. `done(true)` once the scheme accepted
  /// the registration (false after retries were exhausted).
  virtual void register_agent(platform::Agent& self,
                              std::function<void(bool)> done) = 0;

  /// Report `self`'s new location after a migration. One-way in the common
  /// case (the paper's §2.3 semantics): `done(true)` means the report was
  /// sent, not that it was applied — error paths self-correct through
  /// `handle_agent_message` / `handle_delivery_failure`.
  virtual void update_location(platform::Agent& self,
                               std::function<void(bool)> done) = 0;

  /// Tracked agents forward messages they don't recognize here (e.g. a
  /// wrong-IAgent notice). Returns true when the scheme consumed it.
  virtual bool handle_agent_message(platform::Agent& self,
                                    const platform::Message& message) {
    (void)self;
    (void)message;
    return false;
  }

  /// Tracked agents forward platform bounce notices here (e.g. a one-way
  /// update that chased a migrated IAgent).
  virtual void handle_delivery_failure(platform::Agent& self,
                                       const platform::DeliveryFailure& failure) {
    (void)self;
    (void)failure;
  }

  /// Remove `self` from the mechanism (call before disposing).
  virtual void deregister_agent(platform::Agent& self) = 0;

  /// Find the current location of `target` on behalf of `requester`.
  virtual void locate(platform::Agent& requester, platform::AgentId target,
                      std::function<void(const LocateOutcome&)> done) = 0;

  /// Number of tracking agents currently deployed (IAgents for the hash
  /// scheme, 1 for the centralized baseline, #nodes for per-node schemes).
  virtual std::size_t tracker_count() const = 0;

  /// Virtual so schemes carrying distributed counters (the hash scheme's
  /// per-node caches) can fold them in at read time.
  virtual const SchemeStats& stats() const noexcept { return stats_; }

  /// Allocated bytes of the scheme-side tracking state: location tables,
  /// per-client sequence counters, caches, batchers. Complements
  /// `AgentSystem::estimated_resident_bytes` (which counts platform records
  /// and inboxes but cannot see inside tracker agents) so bytes-per-agent
  /// reporting covers the whole mechanism.
  virtual std::size_t estimated_resident_bytes() const noexcept { return 0; }

  /// Pre-size scheme tables for an expected tracked population (mirrors
  /// `AgentSystem::reserve`) — bulk registration at million-agent scale
  /// would otherwise rehash every table repeatedly.
  virtual void reserve(std::size_t agents) { (void)agents; }

 protected:
  SchemeStats stats_;
};

}  // namespace agentloc::core
