#include "core/lhagent.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/hagent.hpp"
#include "core/iagent.hpp"
#include "hashtree/delta.hpp"
#include "test_cluster.hpp"
#include "util/bytebuffer.hpp"

namespace agentloc::core {
namespace {

using testing::ScriptAgent;
using testing::TestCluster;

/// Stands in for the HAgent: answers every delta pull with `delta`, and
/// holds a full pull until the test calls `release_full`.
class ScriptedCoordinator : public platform::Agent {
 public:
  std::string kind() const override { return "scripted-coordinator"; }

  void on_message(const platform::Message& message) override {
    const auto* pull = message.body_as<HashPullRequest>();
    if (pull == nullptr) return;
    if (pull->force_full) {
      held_full = message;
      full_have_version = pull->have_version;
      return;
    }
    HashPullReply reply;
    reply.is_delta = true;
    util::ByteWriter writer;
    delta.serialize(writer);
    reply.payload = std::move(writer).take();
    const std::size_t bytes = reply.wire_bytes();
    system().reply(message, id(), std::move(reply), bytes);
  }

  void release_full(const hashtree::HashTree& tree) {
    HashPullReply reply;
    util::ByteWriter writer;
    tree.serialize(writer);
    reply.payload = std::move(writer).take();
    const std::size_t bytes = reply.wire_bytes();
    system().reply(*held_full, id(), std::move(reply), bytes);
  }

  hashtree::TreeDelta delta;
  std::optional<platform::Message> held_full;
  std::uint64_t full_have_version = 0;
};

class LHAgentTest : public ::testing::Test {
 protected:
  LHAgentTest() : cluster_(4) {
    config_.stats_window = sim::SimTime::seconds(30);
    config_.rehash_cooldown = sim::SimTime::seconds(60);
    hagent_ = &cluster_.system.create<HAgent>(0, config_);
    first_iagent_ = hagent_->bootstrap(1);
    lhagent_ = &cluster_.system.create<LHAgent>(
        2, platform::AgentAddress{0, hagent_->id()},
        hashtree::make_snapshot(hagent_->tree()));
    cluster_.run_for(sim::SimTime::millis(10));
  }

  /// Make the primary copy move ahead of the secondary.
  void advance_primary() {
    SplitRequest request;
    request.rate = 1000;
    request.loads.push_back(AgentLoad{0x0ull, 50});
    request.loads.push_back(AgentLoad{0x8000000000000000ull, 50});
    cluster_.system.send(first_iagent_, platform::AgentAddress{0, hagent_->id()},
                         request, request.wire_bytes());
    cluster_.run_for(sim::SimTime::millis(100));
  }

  TestCluster cluster_;
  MechanismConfig config_;
  HAgent* hagent_ = nullptr;
  platform::AgentId first_iagent_ = 0;
  LHAgent* lhagent_ = nullptr;
};

TEST_F(LHAgentTest, RegistersAsNodeService) {
  EXPECT_EQ(cluster_.system.lookup_service(2, "lhagent"), lhagent_->id());
}

TEST_F(LHAgentTest, ResolveUsesLocalCopy) {
  const auto address = lhagent_->resolve(0xdeadbeefull);
  EXPECT_EQ(address.agent, first_iagent_);
  EXPECT_EQ(address.node, 1u);
  EXPECT_EQ(lhagent_->stats().resolves, 1u);
}

TEST_F(LHAgentTest, SecondaryCopyIsStaleUntilRefreshed) {
  advance_primary();
  ASSERT_EQ(hagent_->iagent_count(), 2u);
  EXPECT_EQ(lhagent_->known_iagents(), 1u);  // still the old copy
  EXPECT_LT(lhagent_->version(), hagent_->tree().version());

  bool refreshed = false;
  lhagent_->refresh([&] { refreshed = true; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(refreshed);
  EXPECT_EQ(lhagent_->known_iagents(), 2u);
  EXPECT_EQ(lhagent_->version(), hagent_->tree().version());
  EXPECT_EQ(lhagent_->stats().refreshes_completed, 1u);
}

TEST_F(LHAgentTest, ResolveReflectsRefreshedMapping) {
  advance_primary();
  lhagent_->refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  const auto low = lhagent_->resolve(0x1ull);
  const auto high = lhagent_->resolve(0x8000000000000001ull);
  EXPECT_NE(low.agent, high.agent);
}

TEST_F(LHAgentTest, ConcurrentRefreshesCoalesce) {
  advance_primary();
  int callbacks = 0;
  lhagent_->refresh([&] { ++callbacks; });
  lhagent_->refresh([&] { ++callbacks; });
  lhagent_->refresh([&] { ++callbacks; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(lhagent_->stats().refreshes_requested, 1u);
  EXPECT_EQ(lhagent_->stats().refreshes_coalesced, 2u);
  EXPECT_EQ(hagent_->stats().pulls_served, 1u);
}

TEST_F(LHAgentTest, RefreshFailureStillRunsCallbacks) {
  cluster_.network.faults().set_partitioned(0, 2, true);
  bool ran = false;
  lhagent_->refresh([&] { ran = true; });
  // The pull is dropped; the RPC times out (platform default 250 ms).
  cluster_.run_for(sim::SimTime::seconds(1));
  EXPECT_TRUE(ran);
  EXPECT_EQ(lhagent_->stats().refresh_failures, 1u);
  EXPECT_EQ(lhagent_->known_iagents(), 1u);  // unchanged
}

TEST_F(LHAgentTest, RefreshUsesDeltasWhenJournalCovers) {
  advance_primary();
  ASSERT_LT(lhagent_->version(), hagent_->tree().version());
  lhagent_->refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(lhagent_->version(), hagent_->tree().version());
  EXPECT_EQ(lhagent_->stats().delta_refreshes, 1u);
  EXPECT_EQ(hagent_->stats().delta_pulls_served, 1u);
  EXPECT_EQ(lhagent_->tree(), hagent_->tree());
}

TEST_F(LHAgentTest, FullSnapshotWhenDeltaDisabled) {
  config_.delta_refresh = false;
  HAgent& plain_hagent = cluster_.system.create<HAgent>(3, config_);
  plain_hagent.bootstrap(1);
  LHAgent& plain_lh = cluster_.system.create<LHAgent>(
      2, platform::AgentAddress{3, plain_hagent.id()},
      hashtree::make_snapshot(plain_hagent.tree()));
  cluster_.run_for(sim::SimTime::millis(10));
  plain_lh.refresh([] {});
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_EQ(plain_lh.stats().delta_refreshes, 0u);
  EXPECT_EQ(plain_lh.stats().refreshes_completed, 1u);
}

TEST_F(LHAgentTest, RefreshNeverRegresses) {
  // Force a refresh that returns the same version; the copy stays intact.
  bool ran = false;
  lhagent_->refresh([&] { ran = true; });
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(ran);
  EXPECT_EQ(lhagent_->version(), hagent_->tree().version());
  EXPECT_EQ(lhagent_->known_iagents(), 1u);
}

TEST_F(LHAgentTest, DeltaThatMissesItsTargetLeavesTheCopyUntouched) {
  // The delta's split replays cleanly, but it claims a target version the
  // replay cannot reach. The copy must not keep the replayed split while
  // the fallback full pull is in flight.
  ScriptedCoordinator& coordinator =
      cluster_.system.create<ScriptedCoordinator>(3);
  const hashtree::Snapshot start = hashtree::make_snapshot(hagent_->tree());
  LHAgent& copy = cluster_.system.create<LHAgent>(
      2, platform::AgentAddress{3, coordinator.id()}, start);
  const std::uint64_t version = copy.version();
  const std::vector<platform::AgentId> ids = {
      0x0ull, 0x1ull, 0x4000000000000000ull, 0x8000000000000000ull,
      0xc000000000000001ull, 0xffffffffffffffffull};
  std::vector<platform::AgentAddress> routes;
  for (const platform::AgentId id : ids) routes.push_back(copy.resolve(id));

  const platform::AgentId new_iagent = 999;
  hashtree::TreeOp split;
  split.kind = hashtree::TreeOp::Kind::kSimpleSplit;
  split.victim = first_iagent_;
  split.m = 1;
  split.new_iagent = new_iagent;
  split.location = 3;
  coordinator.delta.base_version = version;
  coordinator.delta.target_version = version + 5;
  coordinator.delta.ops.push_back(split);

  bool done = false;
  copy.refresh([&] { done = true; });
  cluster_.run_for(sim::SimTime::millis(50));
  ASSERT_TRUE(coordinator.held_full.has_value());
  EXPECT_EQ(copy.stats().delta_fallbacks, 1u);
  EXPECT_FALSE(done);
  EXPECT_EQ(copy.version(), version);
  EXPECT_EQ(copy.known_iagents(), 1u);
  EXPECT_EQ(&copy.tree(), start.get());
  EXPECT_EQ(coordinator.full_have_version, version);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(copy.resolve(ids[i]).agent, routes[i].agent);
    EXPECT_EQ(copy.resolve(ids[i]).node, routes[i].node);
  }

  // The fallback full pull still completes and installs the snapshot.
  hashtree::HashTree primary = hagent_->tree();
  primary.simple_split(first_iagent_, 1, new_iagent, 3);
  coordinator.release_full(primary);
  cluster_.run_for(sim::SimTime::millis(50));
  EXPECT_TRUE(done);
  EXPECT_EQ(copy.stats().refreshes_completed, 1u);
  EXPECT_EQ(copy.version(), primary.version());
  EXPECT_EQ(copy.tree(), primary);
  EXPECT_EQ(copy.resolve(0xffffffffffffffffull).agent, new_iagent);
}

TEST_F(LHAgentTest, LHAgentsSharingASnapshotCountItsBytesOnce) {
  hashtree::Snapshot snapshot = hashtree::make_snapshot(hagent_->tree());
  const std::size_t snapshot_bytes = snapshot->resident_bytes();
  constexpr std::size_t kHolders = 5;
  std::vector<LHAgent*> holders;
  for (std::size_t i = 0; i < kHolders; ++i) {
    holders.push_back(&cluster_.system.create<LHAgent>(
        2, platform::AgentAddress{0, hagent_->id()}, snapshot));
  }
  snapshot.reset();

  std::size_t total = 0;
  for (const LHAgent* holder : holders) {
    EXPECT_EQ(&holder->tree(), &holders.front()->tree());
    total += holder->resident_bytes();
  }
  // Each holder counts its share; the shares sum to the snapshot once,
  // less under one byte per holder of rounding.
  EXPECT_LE(total, snapshot_bytes);
  EXPECT_GT(total + kHolders, snapshot_bytes);
  EXPECT_GT(snapshot_bytes, hagent_->tree().serialized_bytes());
}

}  // namespace
}  // namespace agentloc::core
