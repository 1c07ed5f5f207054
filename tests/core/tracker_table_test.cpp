#include "core/tracker_table.hpp"

#include <gtest/gtest.h>

#include "hashtree/paper_figures.hpp"
#include "util/rng.hpp"

namespace agentloc::core {
namespace {

TEST(LocationTable, ApplyAndFind) {
  LocationTable table;
  EXPECT_TRUE(table.apply(LocationEntry{1, 5, 1}));
  const auto entry = table.find(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->node, 5u);
  EXPECT_EQ(entry->seq, 1u);
  EXPECT_FALSE(table.find(2).has_value());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.contains(1));
}

TEST(LocationTable, MillionEntryGrowthReservedAndIncrementalAgree) {
  // Million-agent capacity path (DESIGN.md §14): a reserved table and one
  // growing through every rehash must answer identically, and the byte
  // accounting must track the allocation.
  constexpr std::uint64_t kEntries = 1'000'000;
  LocationTable reserved;
  reserved.reserve(kEntries);
  const std::size_t reserved_bytes = reserved.resident_bytes();
  EXPECT_GT(reserved_bytes, kEntries * sizeof(LocationEntry) / 2);

  LocationTable incremental;
  util::Rng rng(7);
  for (std::uint64_t i = 1; i <= kEntries; ++i) {
    const auto node = static_cast<net::NodeId>(rng.next_below(1024));
    const LocationEntry entry{i, node, /*seq=*/1};
    ASSERT_TRUE(reserved.apply(entry));
    ASSERT_TRUE(incremental.apply(entry));
  }
  EXPECT_EQ(reserved.size(), kEntries);
  EXPECT_EQ(incremental.size(), kEntries);
  EXPECT_EQ(reserved.resident_bytes(), reserved_bytes);  // reserve held
  EXPECT_GE(incremental.resident_bytes(), reserved_bytes);

  // Spot-check across the id range: both tables, same node, stale updates
  // still refused after every rehash.
  for (std::uint64_t i = 1; i <= kEntries; i += 99991) {
    const auto in_reserved = reserved.find(i);
    const auto in_incremental = incremental.find(i);
    ASSERT_TRUE(in_reserved.has_value());
    ASSERT_TRUE(in_incremental.has_value());
    EXPECT_EQ(in_reserved->node, in_incremental->node);
    EXPECT_FALSE(incremental.apply(LocationEntry{i, 0, 1}));  // duplicate seq
  }
}

TEST(LocationTable, StaleSequenceRejected) {
  LocationTable table;
  table.apply(LocationEntry{1, 5, 3});
  EXPECT_FALSE(table.apply(LocationEntry{1, 9, 2}));
  EXPECT_FALSE(table.apply(LocationEntry{1, 9, 3}));  // equal seq = duplicate
  EXPECT_EQ(table.find(1)->node, 5u);
  EXPECT_TRUE(table.apply(LocationEntry{1, 9, 4}));
  EXPECT_EQ(table.find(1)->node, 9u);
}

TEST(LocationTable, RemoveHonorsSequence) {
  LocationTable table;
  table.apply(LocationEntry{1, 5, 3});
  EXPECT_FALSE(table.remove(1, 2));  // stale deregister
  EXPECT_TRUE(table.contains(1));
  EXPECT_TRUE(table.remove(1, 3));
  EXPECT_FALSE(table.contains(1));
  EXPECT_FALSE(table.remove(1, 4));  // already gone
}

TEST(LocationTable, ExtractMatchingPartitions) {
  LocationTable table;
  // Predicate: bit 0 == 1 (ids with the top bit set).
  Predicate top_bit;
  top_bit.valid_bits.emplace_back(0, true);
  top_bit.compile();
  table.apply(LocationEntry{0x8000000000000001ull, 1, 1});
  table.apply(LocationEntry{0x0000000000000001ull, 2, 1});
  table.apply(LocationEntry{0xffffffffffffffffull, 3, 1});
  const auto moved = table.extract_matching(top_bit);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.contains(0x0000000000000001ull));
}

TEST(LocationTable, ExtractMatchingEquivalentToPerEntryScan) {
  // The single-pass bulk extraction must move exactly the entries a
  // per-entry `matches` scan would, whatever the table's probe layout.
  util::Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    LocationTable table;
    std::vector<LocationEntry> all;
    const std::size_t population = 1 + rng.next_below(200);
    for (std::size_t i = 0; i < population; ++i) {
      const LocationEntry entry{rng.next() | 1, // never kNoAgent
                                static_cast<net::NodeId>(rng.next_below(8)),
                                1};
      if (table.apply(entry)) all.push_back(entry);
    }
    Predicate predicate;
    predicate.valid_bits.emplace_back(rng.next_below(4), rng.chance(0.5));
    predicate.valid_bits.emplace_back(4 + rng.next_below(4), rng.chance(0.5));
    predicate.compile();

    std::size_t expected_moved = 0;
    for (const LocationEntry& entry : all) {
      expected_moved += predicate.matches(entry.agent);
    }
    const auto moved = table.extract_matching(predicate);
    EXPECT_EQ(moved.size(), expected_moved);
    EXPECT_EQ(table.size(), all.size() - expected_moved);
    for (const LocationEntry& entry : moved) {
      EXPECT_TRUE(predicate.matches(entry.agent));
      EXPECT_FALSE(table.contains(entry.agent));
    }
    for (const LocationEntry& entry : all) {
      if (!predicate.matches(entry.agent)) {
        EXPECT_EQ(table.find(entry.agent)->node, entry.node);
      }
    }
  }
}

TEST(LocationTable, DrainPartitionSplitsByFirstMatchingRoute) {
  LocationTable table;
  Predicate top_set;  // bit 0 == 1
  top_set.valid_bits.emplace_back(0, true);
  top_set.compile();
  Predicate all;  // matches everything (a root leaf's predicate)
  all.compile();

  table.apply(LocationEntry{0x8000000000000001ull, 1, 1});
  table.apply(LocationEntry{0x0000000000000001ull, 2, 1});
  table.apply(LocationEntry{0xffffffffffffffffull, 3, 1});

  const auto batches = table.drain_partition({top_set, all});
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 2u);  // first match wins: top-bit entries
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1][0].agent, 0x0000000000000001ull);
  EXPECT_EQ(table.size(), 0u);
}

TEST(LocationTable, ExtractAllEmpties) {
  LocationTable table;
  table.apply(LocationEntry{1, 1, 1});
  table.apply(LocationEntry{2, 2, 1});
  const auto all = table.extract_all();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(LocationTable, SnapshotDoesNotMutate) {
  LocationTable table;
  table.apply(LocationEntry{1, 1, 1});
  EXPECT_EQ(table.snapshot().size(), 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(Predicate, EmptyMatchesEverything) {
  Predicate predicate;
  EXPECT_TRUE(predicate.matches(0));
  EXPECT_TRUE(predicate.matches(0xdeadbeefull));
}

TEST(Predicate, ChecksBitsAtPositions) {
  Predicate predicate;
  predicate.valid_bits.emplace_back(0, true);
  predicate.valid_bits.emplace_back(63, false);
  predicate.compile();
  EXPECT_TRUE(predicate.matches(0x8000000000000000ull));
  EXPECT_FALSE(predicate.matches(0x8000000000000001ull));  // bit 63 = 1
  EXPECT_FALSE(predicate.matches(0x0000000000000000ull));  // bit 0 = 0
}

TEST(Predicate, PositionsBeyond64ReadAsZero) {
  Predicate predicate;
  predicate.valid_bits.emplace_back(70, false);
  predicate.compile();
  EXPECT_TRUE(predicate.matches(0xffffffffffffffffull));
  predicate.valid_bits.back().second = true;
  predicate.compile();
  EXPECT_FALSE(predicate.matches(0xffffffffffffffffull));
}

TEST(Predicate, CompiledMatchesScanOnRandomPredicates) {
  // The compiled (mask, value) fast path must agree with the wire-form scan
  // on every predicate shape: in-range and out-of-range positions,
  // duplicates (agreeing and conflicting), and empty.
  util::Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    Predicate predicate;
    const std::size_t bits = rng.next_below(8);
    for (std::size_t i = 0; i < bits; ++i) {
      const auto position = static_cast<std::uint32_t>(rng.next_below(80));
      predicate.valid_bits.emplace_back(position, rng.chance(0.5));
    }
    predicate.compile();
    for (int probe = 0; probe < 64; ++probe) {
      const platform::AgentId id = rng.next();
      ASSERT_EQ(predicate.matches(id), predicate.matches_scan(id))
          << "round " << round << " id " << id;
    }
    // Also probe ids built to satisfy the in-range bits, where the scan
    // path is most likely to say yes.
    platform::AgentId crafted = rng.next();
    for (const auto& [position, bit] : predicate.valid_bits) {
      if (position >= 64) continue;
      const std::uint64_t bit_mask = 1ull << (63 - position);
      crafted = bit ? (crafted | bit_mask) : (crafted & ~bit_mask);
    }
    ASSERT_EQ(predicate.matches(crafted), predicate.matches_scan(crafted));
  }
}

TEST(Predicate, ConflictingDuplicatePositionsMatchNothing) {
  Predicate predicate;
  predicate.valid_bits.emplace_back(3, true);
  predicate.valid_bits.emplace_back(3, false);
  predicate.compile();
  EXPECT_TRUE(predicate.impossible);
  EXPECT_FALSE(predicate.matches(0));
  EXPECT_FALSE(predicate.matches(~0ull));
  // The scan agrees: no id carries both values at one position.
  EXPECT_FALSE(predicate.matches_scan(0));
  EXPECT_FALSE(predicate.matches_scan(~0ull));
}

TEST(PredicateOf, MatchesTreeLookupOnFigure1) {
  const hashtree::HashTree tree = hashtree::figure1_tree();
  // For every leaf, predicate_of must agree with tree.lookup over a sweep of
  // ids: id maps to leaf  <=>  predicate matches.
  for (const auto leaf : tree.leaves()) {
    const Predicate predicate = predicate_of(tree, leaf);
    for (std::uint64_t v = 0; v < 128; ++v) {
      const std::uint64_t id = v << 57;  // put the 7 sweep bits on top
      EXPECT_EQ(tree.lookup_id(id).iagent == leaf, predicate.matches(id))
          << "leaf " << leaf << " id " << v;
    }
  }
}

TEST(PredicateOf, RootLeafIsUnconstrained) {
  const hashtree::HashTree tree(9, 0);
  EXPECT_TRUE(predicate_of(tree, 9).valid_bits.empty());
}

TEST(LoadWindow, RatesComputedOverClosedWindow) {
  LoadWindow window(sim::SimTime::seconds(2));
  window.record(1);
  window.record(1);
  window.record(2);
  EXPECT_EQ(window.rate(), 0.0);  // nothing closed yet
  window.roll();
  EXPECT_DOUBLE_EQ(window.rate(), 1.5);  // 3 requests / 2 s
  EXPECT_EQ(window.total(), 3u);
  const auto loads = window.loads();
  EXPECT_EQ(loads.size(), 2u);
  window.roll();
  EXPECT_DOUBLE_EQ(window.rate(), 0.0);  // empty window closed
  EXPECT_EQ(window.rolls(), 2u);
}

TEST(LoadWindow, PerAgentCounts) {
  LoadWindow window(sim::SimTime::seconds(1));
  for (int i = 0; i < 5; ++i) window.record(7);
  window.record(8);
  window.roll();
  std::uint32_t seven = 0, eight = 0;
  for (const auto& load : window.loads()) {
    if (load.agent == 7) seven = load.requests;
    if (load.agent == 8) eight = load.requests;
  }
  EXPECT_EQ(seven, 5u);
  EXPECT_EQ(eight, 1u);
}

}  // namespace
}  // namespace agentloc::core
