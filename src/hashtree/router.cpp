#include "hashtree/router.hpp"

#include <stdexcept>

namespace agentloc::hashtree {

void CompiledRouter::rebuild(const HashTree& tree) {
  entries_.clear();
  leaf_index_.clear();
  free_.clear();
  root_ = 0;
  // A tree with L leaves has exactly 2L - 1 nodes.
  entries_.reserve(2 * tree.leaf_count());
  leaf_index_.reserve(tree.leaf_count());

  struct Item {
    const HashTree::Node* node;
    std::uint32_t consumed;  ///< id bits consumed through this node's label
    std::uint32_t parent;    ///< entry index to patch, kLeafSentinel for root
    std::uint8_t slot;
  };
  std::vector<Item> stack;
  stack.push_back({tree.root_.get(),
                   static_cast<std::uint32_t>(tree.root_->label.size()),
                   kLeafSentinel, 0});
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    const auto idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
    if (item.parent != kLeafSentinel) {
      entries_[item.parent].child[item.slot] = idx;
    }
    Entry& entry = entries_.back();
    entry.parent = item.parent;
    if (item.node->is_leaf()) {
      entry.iagent = item.node->iagent;
      entry.location = item.node->location;
      leaf_index_.emplace(entry.iagent, idx);
    } else {
      entry.bit_pos = item.consumed;
      const HashTree::Node* c0 = item.node->child[0].get();
      const HashTree::Node* c1 = item.node->child[1].get();
      // Push child 1 first so child 0 (and with it the whole left subtree)
      // lands immediately after its parent — preorder layout.
      stack.push_back({c1,
                       item.consumed +
                           static_cast<std::uint32_t>(c1->label.size()),
                       idx, 1});
      stack.push_back({c0,
                       item.consumed +
                           static_cast<std::uint32_t>(c0->label.size()),
                       idx, 0});
    }
  }
  if (wants_compaction_) ++compactions_;
  wants_compaction_ = false;
  compiled_version_ = tree.version();
  ++rebuilds_;
}

HashTree::Target CompiledRouter::route_id(std::uint64_t id) const noexcept {
  const Entry* entries = entries_.data();
  const Entry* e = entries + root_;
  while (e->child[0] != kLeafSentinel) {
    const std::uint32_t pos = e->bit_pos;
    // Bits past the id's 64 read as zero (ids shorter than the consumed
    // path are zero-extended).
    const std::uint64_t bit = pos < 64 ? (id >> (63 - pos)) & 1u : 0u;
    e = entries + e->child[bit];
  }
  return HashTree::Target{e->iagent, e->location};
}

HashTree::Target CompiledRouter::route(
    const util::BitString& id_bits) const noexcept {
  const Entry* entries = entries_.data();
  const Entry* e = entries + root_;
  const std::size_t n = id_bits.size();
  while (e->child[0] != kLeafSentinel) {
    const std::size_t pos = e->bit_pos;
    const std::size_t bit = pos < n && id_bits[pos] ? 1 : 0;
    e = entries + e->child[bit];
  }
  return HashTree::Target{e->iagent, e->location};
}

std::size_t CompiledRouter::resident_bytes() const noexcept {
  return sizeof(CompiledRouter) + entries_.capacity() * sizeof(Entry) +
         leaf_index_.capacity() * (sizeof(IAgentId) + sizeof(std::uint32_t)) +
         free_.capacity() * sizeof(std::uint32_t);
}

std::uint32_t CompiledRouter::alloc_entry() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    entries_[idx] = Entry{};
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back();
  return idx;
}

void CompiledRouter::free_entry(std::uint32_t idx) {
  // Leave the slot's contents benign (a detached leaf) so a stray read can
  // not walk into live structure; reachability is already gone.
  entries_[idx] = Entry{};
  free_.push_back(idx);
  // Compaction threshold: once dead slots outnumber live entries the array
  // has lost its cache density; flag it so the next router() call recompiles
  // compactly. Patching remains correct either way — this is purely about
  // locality, so the threshold only needs to bound the waste.
  if (entries_.size() >= 64 && free_.size() > live_entries()) {
    wants_compaction_ = true;
  }
}

std::uint32_t CompiledRouter::leaf_entry(IAgentId leaf) const {
  const std::uint32_t* idx = leaf_index_.find(leaf);
  if (idx == nullptr) {
    throw std::logic_error("CompiledRouter: patch names an unknown leaf");
  }
  return *idx;
}

void CompiledRouter::patch_set_location(IAgentId leaf, NodeLocation location,
                                        std::uint64_t new_version) {
  entries_[leaf_entry(leaf)].location = location;
  compiled_version_ = new_version;
  ++patches_;
}

void CompiledRouter::patch_simple_split(IAgentId victim,
                                        std::uint32_t split_bit_pos,
                                        IAgentId new_iagent,
                                        NodeLocation new_location,
                                        std::uint64_t new_version) {
  const std::uint32_t v = leaf_entry(victim);
  const std::uint32_t zero = alloc_entry();
  const std::uint32_t one = alloc_entry();

  Entry& z = entries_[zero];
  z.parent = v;
  z.iagent = victim;
  z.location = entries_[v].location;

  Entry& o = entries_[one];
  o.parent = v;
  o.iagent = new_iagent;
  o.location = new_location;

  Entry& split = entries_[v];
  split.bit_pos = split_bit_pos;
  split.child[0] = zero;
  split.child[1] = one;
  split.iagent = kNoIAgent;
  split.location = 0;

  leaf_index_[victim] = zero;
  leaf_index_.emplace(new_iagent, one);
  compiled_version_ = new_version;
  ++patches_;
}

void CompiledRouter::patch_complex_split(IAgentId victim,
                                         std::uint32_t steps_up,
                                         bool reclaimed,
                                         std::uint32_t reclaimed_pos,
                                         IAgentId new_iagent,
                                         NodeLocation new_location,
                                         std::uint64_t new_version) {
  // The edge being split sits `steps_up` parent hops above the victim's
  // leaf; everything below it keeps its absolute bit positions (the label
  // merely splits into an upper and a lower part of unchanged total width),
  // so only one new internal entry and one new leaf splice in.
  std::uint32_t v = leaf_entry(victim);
  for (std::uint32_t i = 0; i < steps_up; ++i) v = entries_[v].parent;

  const std::uint32_t w = alloc_entry();
  const std::uint32_t fresh = alloc_entry();

  Entry& leaf = entries_[fresh];
  leaf.parent = w;
  leaf.iagent = new_iagent;
  leaf.location = new_location;

  const std::uint32_t up = entries_[v].parent;
  Entry& mid = entries_[w];
  mid.bit_pos = reclaimed_pos;
  mid.parent = up;
  mid.child[reclaimed ? 1 : 0] = v;
  mid.child[reclaimed ? 0 : 1] = fresh;
  entries_[v].parent = w;

  if (up == kLeafSentinel) {
    root_ = w;
  } else {
    Entry& parent = entries_[up];
    parent.child[parent.child[1] == v ? 1 : 0] = w;
  }

  leaf_index_.emplace(new_iagent, fresh);
  compiled_version_ = new_version;
  ++patches_;
}

void CompiledRouter::patch_merge(IAgentId victim, std::uint64_t new_version) {
  const std::uint32_t v = leaf_entry(victim);
  const std::uint32_t p = entries_[v].parent;
  Entry& parent = entries_[p];
  const std::uint32_t s = parent.child[parent.child[1] == v ? 0 : 1];
  Entry& sibling = entries_[s];

  leaf_index_.erase(victim);
  if (sibling.child[0] == kLeafSentinel) {
    // Simple merge: the sibling leaf moves up into the parent slot.
    parent.child[0] = kLeafSentinel;
    parent.child[1] = kLeafSentinel;
    parent.iagent = sibling.iagent;
    parent.location = sibling.location;
    leaf_index_[parent.iagent] = p;
  } else {
    // Complex merge: the sibling's children splice into the parent. Their
    // absolute bit positions are unchanged — the tree concatenates the
    // parent and sibling labels, so the bits consumed to reach each child
    // stay identical — which makes this a pure pointer splice.
    parent.bit_pos = sibling.bit_pos;
    parent.child[0] = sibling.child[0];
    parent.child[1] = sibling.child[1];
    entries_[parent.child[0]].parent = p;
    entries_[parent.child[1]].parent = p;
  }
  free_entry(s);
  free_entry(v);
  compiled_version_ = new_version;
  ++patches_;
}

}  // namespace agentloc::hashtree
