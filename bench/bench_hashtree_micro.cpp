// Microbenchmarks (google-benchmark) of the hash-function data structure:
// the costs behind every location operation — lookup, split, merge,
// serialization — as the tree grows. These back DESIGN.md's claim that the
// mapping step is negligible next to a single network hop.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.hpp"
#include "hashtree/tree.hpp"
#include "util/bench_report.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

using namespace agentloc;
using hashtree::HashTree;
using hashtree::IAgentId;

namespace {

/// Grow a tree to `leaves` leaves with randomized even/deep splits.
HashTree make_tree(std::size_t leaves, std::uint64_t seed) {
  util::Rng rng(seed);
  HashTree tree(1, 0);
  IAgentId next = 2;
  while (tree.leaf_count() < leaves) {
    const auto all = tree.leaves();
    const IAgentId victim = all[rng.next_below(all.size())];
    tree.simple_split(victim, 1 + rng.next_below(2), next++,
                      static_cast<hashtree::NodeLocation>(rng.next_below(16)));
  }
  return tree;
}

void BM_Lookup(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  util::Rng rng(99);
  for (auto _ : state) {
    const auto id = util::BitString::from_uint(rng.next(), 64);
    benchmark::DoNotOptimize(tree.lookup(id));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Lookup)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

/// The allocation-free fast path: the hashed id stays in a register end to
/// end, so this row isolates the compiled router walk itself.
void BM_LookupU64(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  util::Rng rng(99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.lookup_id(rng.next()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LookupU64)->Arg(2)->Arg(16)->Arg(128)->Arg(1024);

/// `HashLocationScheme`'s read path at `capacity`'s shape: random ids
/// resolved round-robin across 1,024 nodes' secondary copies of a 123-leaf
/// tree. `BM_ResolvePrivateCopies` gives every node its own compiled copy
/// (~1,024 routers and trees spread over the heap); `BM_ResolveSharedSnapshot`
/// gives them all one shared snapshot, as the scheme does until a node
/// refreshes. Same calls, same indirection: the gap is the cache misses of
/// cold per-node copies.
constexpr std::size_t kNodes = 1024;
constexpr std::size_t kCapacityLeaves = 123;

void resolve_round_robin(benchmark::State& state,
                         const std::vector<hashtree::Snapshot>& copies) {
  util::Rng rng(99);
  std::size_t node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(copies[node]->lookup_id(rng.next()));
    node = (node + 1) % copies.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ResolvePrivateCopies(benchmark::State& state) {
  const HashTree tree = make_tree(kCapacityLeaves, 7);
  std::vector<hashtree::Snapshot> copies;
  copies.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    copies.push_back(hashtree::make_snapshot(tree));
  }
  resolve_round_robin(state, copies);
}
BENCHMARK(BM_ResolvePrivateCopies);

void BM_ResolveSharedSnapshot(benchmark::State& state) {
  const std::vector<hashtree::Snapshot> copies(
      kNodes, hashtree::make_snapshot(make_tree(kCapacityLeaves, 7)));
  resolve_round_robin(state, copies);
}
BENCHMARK(BM_ResolveSharedSnapshot);

void BM_Compatible(benchmark::State& state) {
  const HashTree tree = make_tree(64, 7);
  const auto leaves = tree.leaves();
  util::Rng rng(99);
  for (auto _ : state) {
    const auto id = util::BitString::from_uint(rng.next(), 64);
    benchmark::DoNotOptimize(
        tree.compatible(id, leaves[rng.next_below(leaves.size())]));
  }
}
BENCHMARK(BM_Compatible);

void BM_SplitMergeCycle(benchmark::State& state) {
  HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  IAgentId next = 1'000'000;
  util::Rng rng(11);
  for (auto _ : state) {
    const auto all = tree.leaves();
    const IAgentId victim = all[rng.next_below(all.size())];
    const IAgentId fresh = next++;
    tree.simple_split(victim, 1, fresh, 0);
    tree.merge(fresh);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SplitMergeCycle)->Arg(16)->Arg(256);

void BM_Serialize(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    util::ByteWriter writer;
    tree.serialize(writer);
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * tree.serialized_bytes()));
}
BENCHMARK(BM_Serialize)->Arg(16)->Arg(256)->Arg(1024);

void BM_Deserialize(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  util::ByteWriter writer;
  tree.serialize(writer);
  for (auto _ : state) {
    util::ByteReader reader(writer.bytes());
    benchmark::DoNotOptimize(HashTree::deserialize(reader));
  }
}
BENCHMARK(BM_Deserialize)->Arg(16)->Arg(256);

void BM_CopyTree(benchmark::State& state) {
  const HashTree tree = make_tree(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    HashTree copy = tree;
    benchmark::DoNotOptimize(copy.leaf_count());
  }
}
BENCHMARK(BM_CopyTree)->Arg(16)->Arg(256);

void BM_PredicateMatch(benchmark::State& state) {
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::mix64(rng.next()));
  }
}
BENCHMARK(BM_PredicateMatch);

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("hashtree_micro");
  return benchjson::run_and_write(argc, argv, report);
}
