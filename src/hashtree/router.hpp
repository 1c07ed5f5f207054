#pragma once

#include <cstdint>
#include <vector>

#include "hashtree/tree.hpp"
#include "util/flat_map.hpp"

namespace agentloc::hashtree {

/// Compiled read path for the hash function (DESIGN.md §9), kept fresh across
/// mutations by in-place patching (DESIGN.md §11).
///
/// The pointer-based `HashTree` is the right shape for rehashing — splits and
/// merges are local splices — but a poor shape for the read path: every
/// location query chases `unique_ptr`s scattered across the heap and consults
/// heap-backed `BitString` labels. `CompiledRouter` flattens the tree into a
/// contiguous array of fixed-size entries laid out in preorder (so a
/// root→leaf walk moves forward through cache-resident memory):
///
///  * internal entries carry the *absolute id-bit position* their children
///    discriminate on (label skip widths are pre-summed into it at compile
///    time) and the two child entry indices;
///  * leaf entries carry the `{iagent, location}` payload.
///
/// `route_id` is the allocation-free fast path: a 64-bit id is routed with a
/// branch-light loop of word shifts — no `BitString` is ever materialized.
///
/// Staleness: the router is keyed on `HashTree::version()`. A full `rebuild`
/// is only the cold path (first lookup, deserialized/copied trees,
/// fragmentation-triggered compaction). While the router is fresh, every
/// tree mutation *patches* it in place and advances `compiled_version_` in
/// lockstep — `kSetLocation` rewrites one leaf payload, splits splice 1–2
/// entries into free slots, merges splice children up and push the freed
/// slots onto a free list — so rehash storms cost O(path) per mutation
/// instead of one O(tree) rebuild each (see DESIGN.md §11 for why
/// op-lockstep versioning is safe).
class CompiledRouter {
 public:
  /// Sentinel child index marking a leaf entry; doubles as the "no parent"
  /// marker on the root entry.
  static constexpr std::uint32_t kLeafSentinel = 0xffffffffu;

  struct Entry {
    std::uint32_t bit_pos = 0;  ///< id bit consulted here (internal entries)
    std::uint32_t child[2] = {kLeafSentinel, kLeafSentinel};
    std::uint32_t parent = kLeafSentinel;  ///< entry index; sentinel at root
    NodeLocation location = 0;      ///< leaf payload
    IAgentId iagent = kNoIAgent;    ///< leaf payload; kNoIAgent when internal
  };

  /// True when the router routes for this tree's current version. False once
  /// fragmentation crossed the compaction threshold: the entries still route
  /// correctly, but the next `HashTree::router()` call recompiles compactly
  /// instead of patching on.
  bool fresh(const HashTree& tree) const noexcept {
    return !entries_.empty() && !wants_compaction_ &&
           compiled_version_ == tree.version();
  }

  /// Recompile from the tree (preorder flattening; clears previous state,
  /// including free-list fragmentation).
  void rebuild(const HashTree& tree);

  /// Route a 64-bit id. Allocation-free. Precondition: compiled.
  HashTree::Target route_id(std::uint64_t id) const noexcept;

  /// Route an id given as bits (ids shorter than the consumed path read as
  /// zero-extended, matching the node-walking lookup). Precondition:
  /// compiled.
  HashTree::Target route(const util::BitString& id_bits) const noexcept;

  /// --- In-place patching (the mutation-side mirror of the read path) ------
  /// Each patch applies one `TreeOp`'s structural effect directly to the
  /// entry array and advances `compiled_version_` to `new_version` (the tree
  /// version right after the mutation). `HashTree`'s mutators call these
  /// when the router was fresh at the pre-mutation version; otherwise the
  /// router simply stays stale and the next lookup recompiles.

  /// kSetLocation: rewrite one leaf payload. O(1).
  void patch_set_location(IAgentId leaf, NodeLocation location,
                          std::uint64_t new_version);

  /// Simple split of `victim` consulting absolute id bit `split_bit_pos`:
  /// the victim's leaf entry turns internal and two leaves splice into free
  /// slots. O(1).
  void patch_simple_split(IAgentId victim, std::uint32_t split_bit_pos,
                          IAgentId new_iagent, NodeLocation new_location,
                          std::uint64_t new_version);

  /// Complex split reclaiming the padding bit at absolute position
  /// `reclaimed_pos` (recorded value `reclaimed`) on the edge `steps_up`
  /// parent hops above `victim`'s leaf: a new internal entry splices into
  /// that edge with the relocated subtree on the `reclaimed` side and the
  /// new leaf on the complement. O(path).
  void patch_complex_split(IAgentId victim, std::uint32_t steps_up,
                           bool reclaimed, std::uint32_t reclaimed_pos,
                           IAgentId new_iagent, NodeLocation new_location,
                           std::uint64_t new_version);

  /// Merge of leaf `victim`: the sibling (leaf) or the sibling's children
  /// (internal sibling) splice into the parent entry; the freed slots go to
  /// the free list. Mirrors `HashTree::merge`'s simple/complex distinction
  /// from the router's own structure. O(1).
  void patch_merge(IAgentId victim, std::uint64_t new_version);

  std::uint64_t compiled_version() const noexcept { return compiled_version_; }

  /// Array length including free slots (`live_entries` + free list).
  std::size_t entry_count() const noexcept { return entries_.size(); }
  /// Entries currently reachable from the root: 2·leaves − 1.
  std::size_t live_entries() const noexcept {
    return entries_.size() - free_.size();
  }
  std::size_t free_slots() const noexcept { return free_.size(); }

  /// Allocated bytes: the entry array, the leaf index and the free list.
  std::size_t resident_bytes() const noexcept;

  /// --- Introspection for tests and benches --------------------------------
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  std::uint64_t patches() const noexcept { return patches_; }
  std::uint64_t compactions() const noexcept { return compactions_; }
  bool wants_compaction() const noexcept { return wants_compaction_; }

 private:
  std::uint32_t alloc_entry();
  void free_entry(std::uint32_t idx);
  std::uint32_t leaf_entry(IAgentId leaf) const;

  std::vector<Entry> entries_;
  std::uint32_t root_ = 0;  ///< entry index of the root (patches can move it)
  /// Leaf id → entry index: the anchor every patch starts from (ops name
  /// leaves, never internal entries — those are reached via `parent`).
  util::FlatMap<IAgentId, std::uint32_t, kNoIAgent> leaf_index_;
  /// Slots freed by merges, reused by splits (LIFO keeps churn compact).
  std::vector<std::uint32_t> free_;
  std::uint64_t compiled_version_ = 0;  ///< 0 = never compiled
  /// Set when the free list outgrows the live entries: routing still works,
  /// but `fresh()` reports stale so the next `router()` call compacts.
  bool wants_compaction_ = false;

  std::uint64_t rebuilds_ = 0;
  std::uint64_t patches_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace agentloc::hashtree
