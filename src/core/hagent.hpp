#pragma once

#include <optional>
#include <unordered_map>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "hashtree/delta.hpp"
#include "hashtree/tree.hpp"
#include "platform/agent.hpp"
#include "sim/timer.hpp"

namespace agentloc::core {

struct HAgentStats {
  std::uint64_t pulls_served = 0;
  std::uint64_t delta_pulls_served = 0;
  std::uint64_t ops_replicated = 0;
  std::uint64_t ops_applied_as_follower = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t promotions = 0;
  std::uint64_t simple_splits = 0;
  std::uint64_t complex_splits = 0;
  std::uint64_t simple_merges = 0;
  std::uint64_t complex_merges = 0;
  std::uint64_t rehashes_rejected = 0;  ///< busy, stale, or last-leaf guard
  std::uint64_t rehash_timeouts = 0;
  std::uint64_t iagent_moves = 0;
  std::uint64_t journal_bytes = 0;        ///< encoded size of the retained ops
  std::uint64_t journal_compactions = 0;  ///< bound-forced truncation events
};

/// Hash Agent (paper §2.2): the static agent holding the *primary copy* of
/// the hash function and coordinating rehashing — "the HAgent ensures that
/// only one such process is in progress at each time" (§4).
///
/// Split planning follows §4.1: complex-split candidates are tried first in
/// paper order (left-most multi-bit label, first padding bit after the valid
/// bit), accepting the first whose projected load division is even within
/// `even_tolerance`; otherwise a simple split scans m = 1, 2, … for an even
/// division and settles for the best m seen. Load projections use the
/// per-agent request counts the overloaded IAgent reported.
class HAgent : public platform::Agent {
 public:
  enum class Role { kPrimary, kFollower };

  explicit HAgent(const MechanismConfig& config);

  std::string kind() const override { return "hagent"; }

  /// The HAgent is stationary; its serialized size is irrelevant but kept
  /// honest: primary copy plus code.
  std::size_t serialized_size() const override {
    return 4096 + (tree_ ? tree_->serialized_bytes() : 0);
  }

  /// Create the first IAgent (at `first_node`) and initialize the primary
  /// copy. Called once by the scheme right after the HAgent is created.
  /// Returns the initial IAgent's id.
  platform::AgentId bootstrap(net::NodeId first_node);

  /// Turn this instance into a standby replica of `primary` with a copy of
  /// its current tree (setup-time shortcut, like the LHAgents' initial
  /// copies). A follower applies ReplicateOps, serves pulls, and refuses
  /// rehashes until promoted.
  void bootstrap_follower(platform::AgentAddress primary,
                          const hashtree::HashTree& snapshot);

  /// Register the standby that every mutation is streamed to.
  void set_backup(platform::AgentAddress backup);

  Role role() const noexcept { return role_; }

  void on_message(const platform::Message& message) override;

  /// Primary copy (bootstrap must have run).
  const hashtree::HashTree& tree() const { return *tree_; }

  /// How a split of `victim` would be performed: a complex split at
  /// `complex_point` when set, else a simple split on the m-th unused bit.
  struct SplitPlan {
    std::optional<hashtree::SplitPoint> complex_point;
    std::size_t simple_m = 1;
    /// Projected fraction of the victim's load the new IAgent takes.
    double moved_fraction = 0.0;
  };

  /// Pure split-planning logic (paper §4.1), exposed for tests: complex
  /// candidates in paper order first, accepting the first even division of
  /// the reported per-agent loads; otherwise the first (or failing that,
  /// the most even) simple-split depth m.
  static SplitPlan plan_split(const hashtree::HashTree& tree,
                              hashtree::IAgentId victim,
                              const std::vector<AgentLoad>& loads,
                              const MechanismConfig& config);

  const HAgentStats& stats() const noexcept { return stats_; }
  bool rehash_in_progress() const noexcept { return busy_; }

  /// Allocated bytes of the primary copy plus the retained replication
  /// journal.
  std::size_t resident_bytes() const noexcept {
    return (tree_ ? tree_->resident_bytes() : 0) +
           static_cast<std::size_t>(stats_.journal_bytes);
  }
  std::size_t iagent_count() const {
    return tree_ ? tree_->leaf_count() : 0;
  }

 private:
  void handle_pull(const platform::Message& message,
                   const HashPullRequest& request);
  void handle_split(const platform::Message& message,
                    const SplitRequest& request);
  void handle_merge(const platform::Message& message,
                    const MergeRequest& request);
  void handle_done(const RehashDone& done);
  void handle_moved(const IAgentMoved& moved);
  void handle_replicate(const ReplicateOp& replicate);
  void promote();

  /// Stream one journaled op to the backup, if any.
  void replicate(const hashtree::TreeOp& op);

  /// Journal the op that produced the current tree version, refresh the
  /// journal stats, and stream it to the backup — the one post-mutation path
  /// shared by splits, merges, and location changes.
  void record_op(const hashtree::TreeOp& op);

  /// Follower: pull a full snapshot from the primary (op gap detected).
  void resync_from_primary();

  /// Bit `position` of an agent id (missing bits read as 0, matching
  /// `HashTree::lookup`).
  static bool id_bit(platform::AgentId id, std::size_t position) {
    return position < 64 && ((id >> (63 - position)) & 1u) != 0;
  }

  net::NodeId place_new_iagent();

  /// Create a fresh IAgent at `node` and return its id.
  platform::AgentId spawn_iagent(net::NodeId node);

  /// Coordinator addresses handed to every IAgent this HAgent creates:
  /// itself first, then the backup when one is registered.
  std::vector<platform::AgentAddress> coordinator_list() const;

  void begin_rehash(std::size_t done_expected);
  void send_grant(hashtree::IAgentId leaf, const ResponsibilityUpdate& grant);

  std::unordered_map<hashtree::IAgentId, Predicate> predicate_snapshot() const;

  MechanismConfig config_;
  std::optional<hashtree::HashTree> tree_;

  bool busy_ = false;
  std::size_t done_outstanding_ = 0;
  std::unique_ptr<sim::Timeout> rehash_timeout_;

  net::NodeId next_placement_ = 0;
  hashtree::TreeJournal journal_;

  Role role_ = Role::kPrimary;
  std::optional<platform::AgentAddress> backup_;
  std::optional<platform::AgentAddress> primary_;
  bool resync_in_flight_ = false;

  HAgentStats stats_;
};

}  // namespace agentloc::core
