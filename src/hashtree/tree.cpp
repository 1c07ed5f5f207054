#include "hashtree/tree.hpp"

#include <algorithm>
#include <tuple>
#include <stdexcept>

#include "hashtree/router.hpp"

// The node pool below recycles fixed-size blocks through free lists and never
// returns chunks to the OS; under sanitizers that would mask use-after-free
// on nodes, so the pool compiles down to plain new/delete there.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(AGENTLOC_SANITIZE) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || __has_feature(address_sanitizer) || \
    __has_feature(thread_sanitizer)
#define AGENTLOC_NODE_POOL 0
#else
#define AGENTLOC_NODE_POOL 1
#endif

#if AGENTLOC_NODE_POOL
#include <mutex>
#endif

namespace agentloc::hashtree {

#if AGENTLOC_NODE_POOL
namespace {

struct FreeBlock {
  FreeBlock* next;
};

/// Blocks from threads that exited; any thread may adopt them. Leaked on
/// purpose (never destroyed) so no destruction-order hazard exists between
/// this list and the thread-local pools that push into it.
struct OrphanList {
  std::mutex mu;
  FreeBlock* head = nullptr;
};

OrphanList& orphans() {
  static OrphanList* list = new OrphanList;
  return *list;
}

constexpr std::size_t kChunkBlocks = 256;

/// Per-thread free list plus a bump cursor over the current chunk. Chunks are
/// deliberately never freed, so a block may safely migrate between threads'
/// free lists (allocate on A, free on B). On thread exit the remaining blocks
/// are spliced into the orphan list for other threads to reuse.
struct NodePool {
  FreeBlock* free = nullptr;
  std::byte* cursor = nullptr;
  std::size_t left = 0;
  std::size_t block_size = 0;

  ~NodePool() {
    while (left > 0) {
      auto* block = reinterpret_cast<FreeBlock*>(cursor);
      cursor += block_size;
      --left;
      block->next = free;
      free = block;
    }
    if (free == nullptr) return;
    FreeBlock* tail = free;
    while (tail->next != nullptr) tail = tail->next;
    std::lock_guard<std::mutex> lock(orphans().mu);
    tail->next = orphans().head;
    orphans().head = free;
  }
};

NodePool& node_pool() {
  thread_local NodePool pool;
  return pool;
}

}  // namespace

void* HashTree::Node::operator new(std::size_t size) {
  NodePool& pool = node_pool();
  if (pool.free == nullptr && pool.left == 0) {
    {
      std::lock_guard<std::mutex> lock(orphans().mu);
      pool.free = orphans().head;
      orphans().head = nullptr;
    }
    if (pool.free == nullptr) {
      pool.cursor = static_cast<std::byte*>(::operator new(kChunkBlocks * size));
      pool.left = kChunkBlocks;
      pool.block_size = size;
    }
  }
  if (pool.free != nullptr) {
    FreeBlock* block = pool.free;
    pool.free = block->next;
    return block;
  }
  void* out = pool.cursor;
  pool.cursor += size;
  --pool.left;
  return out;
}

void HashTree::Node::operator delete(void* ptr) noexcept {
  if (ptr == nullptr) return;
  auto* block = static_cast<FreeBlock*>(ptr);
  NodePool& pool = node_pool();
  block->next = pool.free;
  pool.free = block;
}
#else
void* HashTree::Node::operator new(std::size_t size) {
  return ::operator new(size);
}

void HashTree::Node::operator delete(void* ptr) noexcept {
  ::operator delete(ptr);
}
#endif  // AGENTLOC_NODE_POOL

HashTree::HashTree(HashTree&&) noexcept = default;
HashTree& HashTree::operator=(HashTree&&) noexcept = default;
HashTree::~HashTree() = default;

HashTree::HashTree(IAgentId initial, NodeLocation location) {
  if (initial == kNoIAgent) {
    throw std::invalid_argument("HashTree: initial IAgent id must be nonzero");
  }
  root_ = std::make_unique<Node>();
  root_->iagent = initial;
  root_->location = location;
  leaf_index_.emplace(initial, root_.get());
}

HashTree::HashTree(const HashTree& other) : version_(other.version_) {
  leaf_index_.reserve(other.leaf_index_.size());
  root_ = clone_subtree(*other.root_, nullptr);
}

HashTree& HashTree::operator=(const HashTree& other) {
  if (this == &other) return *this;
  version_ = other.version_;
  leaf_index_.clear();
  leaf_index_.reserve(other.leaf_index_.size());
  root_ = clone_subtree(*other.root_, nullptr);
  // The structure changed wholesale; a router compiled for the previous
  // structure may share the new version number, so drop it outright.
  router_.reset();
  return *this;
}

std::unique_ptr<HashTree::Node> HashTree::clone_subtree(const Node& node,
                                                        Node* parent) {
  // Preorder with an explicit stack of (source, destination) pairs: the
  // destination node is allocated when its parent is visited, so each visit
  // only fills fields and links children. Cloned leaves are registered in
  // `leaf_index_` on the spot — one walk builds both tree and index.
  auto copy = std::make_unique<Node>();
  copy->parent = parent;
  std::vector<std::pair<const Node*, Node*>> stack{{&node, copy.get()}};
  while (!stack.empty()) {
    const auto [src, dst] = stack.back();
    stack.pop_back();
    dst->label = src->label;
    dst->iagent = src->iagent;
    dst->location = src->location;
    if (src->is_leaf()) {
      leaf_index_.emplace(dst->iagent, dst);
    } else {
      dst->child[0] = std::make_unique<Node>();
      dst->child[1] = std::make_unique<Node>();
      dst->child[0]->parent = dst;
      dst->child[1]->parent = dst;
      stack.emplace_back(src->child[1].get(), dst->child[1].get());
      stack.emplace_back(src->child[0].get(), dst->child[0].get());
    }
  }
  return copy;
}

HashTree::Node* HashTree::leaf_for(IAgentId id) {
  Node* const* found = leaf_index_.find(id);
  if (found == nullptr) {
    throw std::out_of_range("HashTree: unknown IAgent id");
  }
  return *found;
}

const HashTree::Node* HashTree::leaf_for(IAgentId id) const {
  Node* const* found = leaf_index_.find(id);
  if (found == nullptr) {
    throw std::out_of_range("HashTree: unknown IAgent id");
  }
  return *found;
}

const HashTree::Node* HashTree::descend(
    const util::BitString& id_bits) const {
  const Node* node = root_.get();
  // Bits consumed so far; the root padding is skipped outright.
  std::size_t pos = root_->label.size();
  while (!node->is_leaf()) {
    // Missing bits (id shorter than the path) read as zero.
    const bool bit = pos < id_bits.size() && id_bits[pos];
    const Node* next = node->child[bit ? 1 : 0].get();
    pos += next->label.size();  // valid bit + padding of the taken edge
    node = next;
  }
  return node;
}

const CompiledRouter& HashTree::router() const {
  if (router_ == nullptr) router_ = std::make_unique<CompiledRouter>();
  if (!router_->fresh(*this)) router_->rebuild(*this);
  return *router_;
}

std::size_t HashTree::resident_bytes() const noexcept {
  // A full binary tree with L leaves has 2L − 1 nodes.
  std::size_t bytes =
      sizeof(HashTree) + (2 * leaf_index_.size() - 1) * sizeof(Node) +
      leaf_index_.capacity() * (sizeof(IAgentId) + sizeof(Node*));
  if (router_ != nullptr) bytes += router_->resident_bytes();
  return bytes;
}

Snapshot make_snapshot(HashTree tree) {
  tree.router();
  return std::make_shared<const HashTree>(std::move(tree));
}

bool HashTree::router_fresh() const noexcept {
  return router_ != nullptr && router_->fresh(*this);
}

CompiledRouter* HashTree::patchable_router() noexcept {
  return incremental_router_ && router_fresh() ? router_.get() : nullptr;
}

std::uint32_t HashTree::consumed_bits(const Node* leaf) noexcept {
  std::uint32_t bits = 0;
  for (const Node* node = leaf; node != nullptr; node = node->parent) {
    bits += static_cast<std::uint32_t>(node->label.size());
  }
  return bits;
}

HashTree::Target HashTree::lookup(const util::BitString& id_bits) const {
  return router().route(id_bits);
}

HashTree::Target HashTree::lookup_id(std::uint64_t id) const {
  return router().route_id(id);
}

HashTree::Target HashTree::lookup_walk(const util::BitString& id_bits) const {
  const Node* leaf = descend(id_bits);
  return Target{leaf->iagent, leaf->location};
}

bool HashTree::compatible(const util::BitString& id_bits,
                          IAgentId leaf) const {
  // Paper §3: a prefix is compatible with a hyper-label iff the valid bit of
  // each label equals the id bit at the label's position within the
  // hyper-label. The root padding contributes no valid bit. Implemented over
  // the node path directly (no label copies) and independently of both
  // lookup paths; property tests assert all three agree.
  const auto path = path_to(leaf_for(leaf));
  std::size_t pos = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) {
      const bool id_bit = pos < id_bits.size() && id_bits[pos];
      if (path[i]->label[0] != id_bit) return false;
    }
    pos += path[i]->label.size();
  }
  return true;
}

NodeLocation HashTree::location_of(IAgentId leaf) const {
  return leaf_for(leaf)->location;
}

void HashTree::set_location(IAgentId leaf, NodeLocation location) {
  CompiledRouter* router = patchable_router();
  leaf_for(leaf)->location = location;
  bump_version();
  if (router != nullptr) router->patch_set_location(leaf, location, version_);
}

std::vector<const HashTree::Node*> HashTree::path_to(const Node* leaf) const {
  std::vector<const Node*> path;
  for (const Node* node = leaf; node != nullptr; node = node->parent) {
    path.push_back(node);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<util::BitString> HashTree::hyper_label_segments(
    IAgentId leaf) const {
  const auto path = path_to(leaf_for(leaf));
  std::vector<util::BitString> segments;
  segments.reserve(path.size());
  for (const Node* node : path) segments.push_back(node->label);
  return segments;
}

std::vector<std::pair<std::uint32_t, bool>> HashTree::valid_bits(
    IAgentId leaf) const {
  const auto path = path_to(leaf_for(leaf));
  std::vector<std::pair<std::uint32_t, bool>> out;
  out.reserve(path.size() - 1);
  std::uint32_t pos = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out.emplace_back(pos, path[i]->label[0]);
    pos += static_cast<std::uint32_t>(path[i]->label.size());
  }
  return out;
}

bool HashTree::label_bit(IAgentId leaf, const SplitPoint& point) const {
  const auto path = path_to(leaf_for(leaf));
  if (point.segment >= path.size()) {
    throw std::out_of_range("HashTree::label_bit: segment");
  }
  const util::BitString& label = path[point.segment]->label;
  if (point.bit >= label.size()) {
    throw std::out_of_range("HashTree::label_bit: bit");
  }
  return label[point.bit];
}

std::string HashTree::hyper_label(IAgentId leaf) const {
  const auto segments = hyper_label_segments(leaf);
  std::string out;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i == 0) {
      if (segments[0].empty()) continue;
      out += "(pad " + segments[0].to_string() + ")";
      continue;
    }
    if (!out.empty()) out += '.';
    out += segments[i].to_string();
  }
  return out;
}

std::size_t HashTree::depth_bits(IAgentId leaf) const {
  std::size_t bits = 0;
  for (const auto& segment : hyper_label_segments(leaf)) {
    bits += segment.size();
  }
  return bits;
}

std::size_t HashTree::height() const {
  std::size_t best = 0;
  std::vector<std::pair<const Node*, std::size_t>> stack{{root_.get(), 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      best = std::max(best, depth);
    } else {
      stack.emplace_back(node->child[0].get(), depth + 1);
      stack.emplace_back(node->child[1].get(), depth + 1);
    }
  }
  return best;
}

std::vector<IAgentId> HashTree::leaves() const {
  std::vector<IAgentId> out;
  out.reserve(leaf_index_.size());
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      out.push_back(node->iagent);
    } else {
      stack.push_back(node->child[1].get());
      stack.push_back(node->child[0].get());
    }
  }
  return out;
}

void HashTree::for_each_leaf(
    const std::function<void(IAgentId, NodeLocation)>& fn) const {
  for (IAgentId id : leaves()) {
    fn(id, leaf_index_.at(id)->location);
  }
}

HashTree::Stats HashTree::stats() const {
  Stats out;
  std::size_t depth_sum = 0;
  std::vector<std::tuple<const Node*, std::size_t, std::size_t>> stack{
      {root_.get(), 0, 0}};
  while (!stack.empty()) {
    const auto [node, depth_edges, depth_bits] = stack.back();
    stack.pop_back();
    const std::size_t bits_here = depth_bits + node->label.size();
    out.total_label_bits += node->label.size();
    // Only the valid (first) bit of a non-root edge label discriminates.
    out.padding_bits += node == root_.get()
                            ? node->label.size()
                            : node->label.size() - 1;
    if (node->is_leaf()) {
      ++out.leaves;
      depth_sum += bits_here;
      if (out.leaves == 1) {
        out.min_depth_bits = out.max_depth_bits = bits_here;
      } else {
        out.min_depth_bits = std::min(out.min_depth_bits, bits_here);
        out.max_depth_bits = std::max(out.max_depth_bits, bits_here);
      }
      out.height = std::max(out.height, depth_edges);
    } else {
      ++out.internal_nodes;
      stack.emplace_back(node->child[0].get(), depth_edges + 1, bits_here);
      stack.emplace_back(node->child[1].get(), depth_edges + 1, bits_here);
    }
  }
  out.mean_depth_bits =
      out.leaves > 0 ? static_cast<double>(depth_sum) /
                           static_cast<double>(out.leaves)
                     : 0.0;
  return out;
}

void HashTree::validate() const {
  std::size_t leaf_seen = 0;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    const bool has0 = node->child[0] != nullptr;
    const bool has1 = node->child[1] != nullptr;
    if (has0 != has1) {
      throw std::logic_error("HashTree: node with exactly one child");
    }
    if (node != root_.get()) {
      if (node->label.empty()) {
        throw std::logic_error("HashTree: non-root node with empty label");
      }
      const bool side = node->parent->child[1].get() == node;
      if (node->label.front() != side) {
        throw std::logic_error(
            "HashTree: valid bit disagrees with child position");
      }
    }
    if (node->is_leaf()) {
      ++leaf_seen;
      if (node->iagent == kNoIAgent) {
        throw std::logic_error("HashTree: leaf without IAgent id");
      }
      Node* const* found = leaf_index_.find(node->iagent);
      if (found == nullptr || *found != node) {
        throw std::logic_error("HashTree: leaf index inconsistent");
      }
    } else {
      if (node->iagent != kNoIAgent) {
        throw std::logic_error("HashTree: internal node carries IAgent id");
      }
      if (node->child[0]->parent != node || node->child[1]->parent != node) {
        throw std::logic_error("HashTree: broken parent pointer");
      }
      stack.push_back(node->child[0].get());
      stack.push_back(node->child[1].get());
    }
  }
  if (leaf_seen != leaf_index_.size()) {
    throw std::logic_error("HashTree: index size mismatch");
  }
}

bool operator==(const HashTree& a, const HashTree& b) {
  if (a.version_ != b.version_) return false;
  std::vector<std::pair<const HashTree::Node*, const HashTree::Node*>> stack{
      {a.root_.get(), b.root_.get()}};
  while (!stack.empty()) {
    const auto [na, nb] = stack.back();
    stack.pop_back();
    if (na->label != nb->label || na->iagent != nb->iagent ||
        na->location != nb->location || na->is_leaf() != nb->is_leaf()) {
      return false;
    }
    if (!na->is_leaf()) {
      stack.emplace_back(na->child[0].get(), nb->child[0].get());
      stack.emplace_back(na->child[1].get(), nb->child[1].get());
    }
  }
  return true;
}

}  // namespace agentloc::hashtree
