#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/bitstring.hpp"
#include "util/bytebuffer.hpp"
#include "util/flat_map.hpp"

namespace agentloc::hashtree {

/// Identifier of the IAgent an entry of the hash function points at.
/// The hash tree treats it as opaque; the location layer uses platform
/// agent ids.
using IAgentId = std::uint64_t;
inline constexpr IAgentId kNoIAgent = 0;

/// Node id (location) recorded next to each leaf so a secondary copy of the
/// hash function resolves an agent id to *both* the responsible IAgent and
/// where to reach it — exactly what the paper's LHAgent hands back.
using NodeLocation = std::uint32_t;

/// Where in a leaf's hyper-label a padding bit can be reclaimed by a complex
/// split. `segment` indexes the hyper-label segments as returned by
/// `HashTree::hyper_label_segments` (segment 0 is the root padding, possibly
/// empty; segment i>0 is the label of the i-th edge on the root→leaf path).
/// `bit` is the index within the segment: for the root padding any bit, for
/// edge labels a padding bit (index ≥ 1; index 0 is the valid bit).
struct SplitPoint {
  std::size_t segment = 0;
  std::size_t bit = 0;

  friend bool operator==(const SplitPoint&, const SplitPoint&) = default;
};

/// Outcome of `HashTree::merge`.
struct MergeResult {
  enum class Kind {
    kSimple,  ///< leaf sibling absorbed the merged IAgent's load
    kComplex  ///< load redistributes over the sibling subtree (re-lookup)
  };

  Kind kind = Kind::kSimple;

  /// For a simple merge: the surviving IAgent that absorbed the load.
  IAgentId into_iagent = kNoIAgent;
};

class CompiledRouter;

/// The extendible hash function of the paper, represented as a binary *hash
/// tree* (paper §3–§4).
///
/// * Each leaf corresponds to an IAgent; each edge carries a non-empty bit
///   *label* whose first bit (the *valid bit*) is the only one used by the
///   agent→IAgent mapping. The remaining bits are padding left behind by
///   merges (and by multi-bit simple splits), and may later be reclaimed by
///   complex splits.
/// * An agent id maps to a leaf by walking from the root: consume the next id
///   bit to pick the child whose valid bit matches, then skip one id bit for
///   every remaining label bit of that edge. Ids shorter than the consumed
///   path are extended with zero bits (64-bit ids make this an edge case
///   only tests reach).
/// * The *root padding* generalizes the same idea to the root: bits skipped
///   before the first discrimination (needed so merges at the root preserve
///   the bit positions of the surviving subtree — see DESIGN.md §6).
///
/// The class is a value type: the HAgent owns the primary instance, and
/// LHAgents read immutable copies of it through shared `Snapshot`s (see
/// `make_snapshot`; DESIGN.md §9). Every mutation bumps `version()`, which is
/// the staleness token the paper's update-propagation protocol compares. A
/// mutation whose tree holds a fresh compiled router additionally patches the
/// router in place (O(path), DESIGN.md §11), so the read path survives rehash
/// storms without going cold.
class HashTree {
 public:
  /// A tree with a single leaf: one IAgent responsible for every agent.
  HashTree(IAgentId initial, NodeLocation location);

  HashTree(const HashTree& other);
  HashTree& operator=(const HashTree& other);
  HashTree(HashTree&&) noexcept;
  HashTree& operator=(HashTree&&) noexcept;
  ~HashTree();

  /// --- Lookup ------------------------------------------------------------

  struct Target {
    IAgentId iagent = kNoIAgent;
    NodeLocation location = 0;
  };

  /// Map an agent id (given as bits, most significant first) to the
  /// responsible IAgent. Served by the compiled router (recompiled lazily
  /// after mutations — see `router()`).
  Target lookup(const util::BitString& id_bits) const;

  /// 64-bit ids, allocation-free: the id is routed directly by the compiled
  /// router without materializing a `BitString`.
  Target lookup_id(std::uint64_t id) const;

  /// Reference implementation of `lookup`: walk the node structure. Kept
  /// independent of the compiled router; property tests assert both agree
  /// bit-for-bit with `compatible`.
  Target lookup_walk(const util::BitString& id_bits) const;

  /// The compiled read path. While the router is fresh every mutation keeps
  /// it fresh by patching (see class comment); this call recompiles only
  /// when the router is cold (first lookup, copies, deserialized trees,
  /// fragmentation-triggered compaction). The recompile mutates internal
  /// state behind `const`, so a tree read by several owners must be compiled
  /// before it is shared: `make_snapshot` does that, and on a snapshot this
  /// call never writes.
  const CompiledRouter& router() const;

  /// True when the router is compiled for the current version, i.e.
  /// `router()` would return it without writing. Holds for every snapshot.
  bool router_fresh() const noexcept;

  /// Disable (or re-enable) in-place router patching. With patching off,
  /// every mutation leaves the router stale and the next lookup pays a full
  /// O(tree) recompile — the pre-incremental behaviour, kept reachable so
  /// benches and equivalence tests can compare the two write paths.
  void set_incremental_router(bool enabled) noexcept {
    incremental_router_ = enabled;
  }
  bool incremental_router() const noexcept { return incremental_router_; }

  /// The paper's compatibility predicate (§3, Figure 2): true when the valid
  /// bit of every label in the leaf's hyper-label equals the id bit at that
  /// label position. Implemented independently of `lookup`; property tests
  /// assert both agree.
  bool compatible(const util::BitString& id_bits, IAgentId leaf) const;

  /// --- Structure inspection ------------------------------------------------

  std::size_t leaf_count() const noexcept { return leaf_index_.size(); }
  std::uint64_t version() const noexcept { return version_; }

  bool contains(IAgentId leaf) const noexcept {
    return leaf_index_.contains(leaf);
  }

  /// Pre-size the leaf index for an expected population — delta replays
  /// know their net split count up front and would otherwise rehash the
  /// index repeatedly while growing.
  void reserve_leaves(std::size_t leaves) { leaf_index_.reserve(leaves); }

  /// Node currently hosting the given IAgent. Throws if unknown.
  NodeLocation location_of(IAgentId leaf) const;

  /// Record that an IAgent moved (bumps version).
  void set_location(IAgentId leaf, NodeLocation location);

  /// Hyper-label segments of a leaf: segment 0 is the root padding (may be
  /// empty), the rest are the edge labels down to the leaf. Throws if
  /// unknown.
  std::vector<util::BitString> hyper_label_segments(IAgentId leaf) const;

  /// The (position, value) pairs of the valid bits on a leaf's root→leaf
  /// path — the leaf's responsibility predicate, extracted without copying
  /// any label. Throws if unknown.
  std::vector<std::pair<std::uint32_t, bool>> valid_bits(IAgentId leaf) const;

  /// Bit `point.bit` of segment `point.segment` of the leaf's hyper-label
  /// (segment 0 = root padding), without materializing the segments.
  /// Throws `std::out_of_range` when the point does not exist.
  bool label_bit(IAgentId leaf, const SplitPoint& point) const;

  /// Dotted rendering, e.g. "1.0" or "0.011.0"; root padding, when present,
  /// is shown as a leading "(pad)" segment. Matches the paper's notation.
  std::string hyper_label(IAgentId leaf) const;

  /// Total id bits consumed to reach the leaf.
  std::size_t depth_bits(IAgentId leaf) const;

  /// Height in edges.
  std::size_t height() const;

  /// All IAgent ids at leaves, in left-to-right order.
  std::vector<IAgentId> leaves() const;

  /// Visit every leaf with its target info.
  void for_each_leaf(
      const std::function<void(IAgentId, NodeLocation)>& fn) const;

  /// --- Rehashing (paper §4) -----------------------------------------------

  /// Simple split (§4.1): split leaf `victim` on the m-th not-yet-used bit.
  /// The victim keeps the 0-side; `new_iagent` (hosted at `new_location`)
  /// takes the 1-side. Requires m >= 1. Only the victim's agents are
  /// remapped. Throws if `victim` is unknown or `new_iagent` already exists.
  void simple_split(IAgentId victim, std::size_t m, IAgentId new_iagent,
                    NodeLocation new_location);

  /// All positions where a complex split of `victim` could reclaim a padding
  /// bit, in the paper's preference order: left-most label first, and within
  /// a label the first bit after the valid bit first.
  std::vector<SplitPoint> complex_split_candidates(IAgentId victim) const;

  /// Global id-bit position a split at `point` would discriminate on.
  /// The caller projects per-agent load over this bit to judge evenness.
  std::size_t split_point_bit_position(IAgentId victim,
                                       const SplitPoint& point) const;

  /// Complex split (§4.1): reclaim the padding bit at `point` on `victim`'s
  /// path. The new IAgent takes the agents whose id bit at the reclaimed
  /// position is the complement of the recorded padding bit. When the
  /// reclaimed bit lies on an interior edge, those agents may come from every
  /// leaf of that subtree (see DESIGN.md §6.3).
  void complex_split(IAgentId victim, const SplitPoint& point,
                     IAgentId new_iagent, NodeLocation new_location);

  /// Merge (§4.2): remove leaf `victim`. Simple merge when its sibling is a
  /// leaf (the sibling absorbs the load; the tree shrinks); complex merge
  /// when the sibling is internal (the sibling's subtree is spliced into the
  /// parent position and the removed leaf's agents redistribute by
  /// re-lookup). Merging the last leaf is an error.
  MergeResult merge(IAgentId victim);

  /// Aggregate shape statistics — the balance story behind the benches.
  struct Stats {
    std::size_t leaves = 0;
    std::size_t internal_nodes = 0;
    std::size_t height = 0;            ///< edges on the longest path
    std::size_t min_depth_bits = 0;    ///< id bits consumed, shallowest leaf
    std::size_t max_depth_bits = 0;    ///< id bits consumed, deepest leaf
    double mean_depth_bits = 0.0;
    std::size_t padding_bits = 0;      ///< label bits that do not discriminate
    std::size_t total_label_bits = 0;  ///< all label bits incl. root padding
  };
  Stats stats() const;

  /// --- Integrity / serialization ------------------------------------------

  /// Verify every structural invariant (two children or leaf, complementary
  /// valid bits, non-empty labels, index consistency, unique IAgent ids).
  /// Throws `std::logic_error` describing the first violation.
  void validate() const;

  void serialize(util::ByteWriter& writer) const;
  static HashTree deserialize(util::ByteReader& reader);

  /// Serialized size in bytes — what the HAgent ships to a refreshing
  /// LHAgent. Computed analytically (one allocation-free node walk, no
  /// actual serialization), so callers can compare delta vs. snapshot cost
  /// before encoding either.
  std::size_t serialized_bytes() const;

  /// Allocated bytes of this instance: its pool nodes (2L−1 of them, labels
  /// up to `util::BitString::kInlineBits` bits inside each; a longer
  /// label's heap words are not counted), the leaf index and, once
  /// compiled, the router's entries, index and free list. What a snapshot
  /// costs in memory, where `serialized_bytes` is its wire size.
  std::size_t resident_bytes() const noexcept;

  /// Structural equality (labels, leaves, locations; version included).
  friend bool operator==(const HashTree& a, const HashTree& b);

  /// How a leaf is captioned in renderings; defaults to "IA<id>".
  using LeafNamer = std::function<std::string(IAgentId)>;

  /// Multi-line ASCII art of the tree (used by the figure benches).
  std::string render_ascii(const LeafNamer& namer = nullptr) const;

  /// GraphViz dot output.
  std::string render_dot(const LeafNamer& namer = nullptr) const;

 private:
  struct Node {
    /// Edge label from the parent; for the root this is the root padding
    /// (possibly empty, no valid bit).
    util::BitString label;
    Node* parent = nullptr;
    /// Children by valid bit; both set (internal) or both null (leaf).
    std::unique_ptr<Node> child[2];

    IAgentId iagent = kNoIAgent;
    NodeLocation location = 0;

    bool is_leaf() const noexcept { return child[0] == nullptr; }

    /// Nodes churn hard — every copy, deserialize, and split/merge cycle
    /// allocates and frees them in bulk — so they come from a thread-local
    /// free-list pool instead of the general-purpose heap. Disabled under
    /// the sanitizer build so ASan still sees every node individually.
    static void* operator new(std::size_t size);
    static void operator delete(void* ptr) noexcept;
  };

  /// Clone `node`'s subtree and register every cloned leaf in this tree's
  /// `leaf_index_` during the same walk (one traversal, not two).
  std::unique_ptr<Node> clone_subtree(const Node& node, Node* parent);
  Node* leaf_for(IAgentId id);
  const Node* leaf_for(IAgentId id) const;
  const Node* descend(const util::BitString& id_bits) const;
  std::vector<const Node*> path_to(const Node* leaf) const;
  void bump_version() noexcept { ++version_; }

  /// The router, iff it exists and is compiled for the *current* version —
  /// i.e. a mutation performed now may patch it and advance it in lockstep.
  /// Null when patching is disabled, the router is cold, stale, or flagged
  /// for compaction (then the mutation leaves it stale and the next lookup
  /// recompiles).
  CompiledRouter* patchable_router() noexcept;

  /// Id bits consumed to reach `leaf` (its depth), as a patch-time helper:
  /// sums label widths up the parent chain without materializing segments.
  static std::uint32_t consumed_bits(const Node* leaf) noexcept;

  void validate_node(const Node* node, const Node* parent,
                     std::size_t depth) const;

  friend class CompiledRouter;

  std::unique_ptr<Node> root_;
  /// Leaf id → node. Open-addressing map: clones and deserializes insert one
  /// entry per leaf, and `std::unordered_map`'s per-entry heap nodes made
  /// that bookkeeping the dominant cost of both paths.
  util::FlatMap<IAgentId, Node*, kNoIAgent> leaf_index_;
  std::uint64_t version_ = 1;
  /// Lazily compiled, then *patched* read path; never copied (copies start
  /// cold), moved along with the structure it was compiled from.
  mutable std::unique_ptr<CompiledRouter> router_;
  bool incremental_router_ = true;
};

/// An immutable hash tree that several readers hold at once — the LHAgents'
/// secondary copy (paper §2.2), one instance shared by every node that has
/// not refreshed since. Readers never mutate it; a refresh builds a new
/// snapshot and swaps its own pointer (copy-on-write).
using Snapshot = std::shared_ptr<const HashTree>;

/// Freeze `tree` into a snapshot. Compiles the router first, so
/// `router()`'s lazy recompile never runs on a shared tree. The only way
/// snapshots should be made.
Snapshot make_snapshot(HashTree tree);

}  // namespace agentloc::hashtree
