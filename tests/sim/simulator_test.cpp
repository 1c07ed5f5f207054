#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace agentloc::sim {
namespace {

TEST(SimTime, ConversionsAndArithmetic) {
  EXPECT_EQ(SimTime::millis(1.5).as_nanos(), 1'500'000);
  EXPECT_DOUBLE_EQ(SimTime::seconds(2).as_millis(), 2000.0);
  EXPECT_DOUBLE_EQ(SimTime::micros(5).as_micros(), 5.0);
  EXPECT_EQ(SimTime::millis(1) + SimTime::millis(2), SimTime::millis(3));
  EXPECT_EQ(SimTime::millis(3) - SimTime::millis(2), SimTime::millis(1));
  EXPECT_EQ(SimTime::millis(2) * 3, SimTime::millis(6));
  EXPECT_EQ(SimTime::millis(6) / 3, SimTime::millis(2));
  EXPECT_LT(SimTime::zero(), SimTime::millis(1));
  EXPECT_LT(SimTime::seconds(100000), SimTime::infinity());
}

TEST(SimTime, Rendering) {
  EXPECT_EQ(SimTime::millis(12.5).str(), "12.500ms");
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::millis(3), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::millis(1), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(3));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::millis(1), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime observed = SimTime::zero();
  sim.schedule_at(SimTime::millis(5), [&] {
    sim.schedule_after(SimTime::millis(2),
                       [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, SimTime::millis(7));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  SimTime observed = SimTime::millis(-1);
  sim.schedule_at(SimTime::millis(5), [&] {
    sim.schedule_at(SimTime::millis(1), [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, SimTime::millis(5));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(SimTime::millis(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  std::vector<int> ran;
  sim.schedule_at(SimTime::millis(1), [&] { ran.push_back(1); });
  sim.schedule_at(SimTime::millis(2), [&] { ran.push_back(2); });
  sim.schedule_at(SimTime::millis(3), [&] { ran.push_back(3); });
  const auto count = sim.run_until(SimTime::millis(2));
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::millis(2));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockOverIdleStretch) {
  Simulator sim;
  sim.run_until(SimTime::millis(10));
  EXPECT_EQ(sim.now(), SimTime::millis(10));
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(1), [&] { ++count; });
  sim.schedule_at(SimTime::millis(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RequestStopBreaksRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(SimTime::millis(1), [&] {
    ++count;
    sim.request_stop();
  });
  sim.schedule_at(SimTime::millis(2), [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleChains) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) sim.schedule_after(SimTime::micros(10), chain);
  };
  sim.schedule_after(SimTime::micros(10), chain);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), SimTime::micros(1000));
  EXPECT_EQ(sim.executed(), 100u);
}

TEST(Simulator, CancellationStress) {
  // Schedule many events, cancel a random subset, and check that exactly
  // the survivors run, in timestamp order.
  Simulator sim;
  std::vector<EventId> ids;
  std::vector<int> ran;
  for (int i = 0; i < 500; ++i) {
    // Deliberately colliding timestamps to stress tie-breaking.
    ids.push_back(sim.schedule_at(SimTime::micros((i * 37) % 100),
                                  [&ran, i] { ran.push_back(i); }));
  }
  std::vector<bool> cancelled(500, false);
  for (int i = 0; i < 500; i += 3) {
    cancelled[static_cast<std::size_t>(i)] = true;
    EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  }
  sim.run();
  EXPECT_EQ(ran.size(), 500u - 167u);
  for (const int i : ran) {
    EXPECT_FALSE(cancelled[static_cast<std::size_t>(i)]) << i;
  }
  // Timestamp order: (i*37)%100 must be non-decreasing over `ran`.
  for (std::size_t k = 1; k < ran.size(); ++k) {
    EXPECT_LE((ran[k - 1] * 37) % 100, (ran[k] * 37) % 100);
  }
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelInsideHandlerOfSameTimestamp) {
  Simulator sim;
  bool second_ran = false;
  EventId second = kInvalidEvent;
  sim.schedule_at(SimTime::millis(1), [&] { sim.cancel(second); });
  second = sim.schedule_at(SimTime::millis(1), [&] { second_ran = true; });
  sim.run();
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, PendingCountsExcludeCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(SimTime::millis(1), [] {});
  sim.schedule_at(SimTime::millis(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.empty());
}

TEST(Simulator, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(SimTime::millis(1), [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, SlotReuseInvalidatesOldIds) {
  // The pool reuses the cancelled event's slot, but the generation tag in
  // the id must keep the old handle dead and the ids distinct.
  Simulator sim;
  const EventId first = sim.schedule_at(SimTime::millis(1), [] {});
  ASSERT_TRUE(sim.cancel(first));
  const EventId second = sim.schedule_at(SimTime::millis(2), [] {});
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_TRUE(sim.cancel(second));
  EXPECT_FALSE(sim.cancel(second));
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, IdsStayUniqueAcrossHeavySlotReuse) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    const EventId id = sim.schedule_at(SimTime::millis(1), [] {});
    for (const EventId old : ids) EXPECT_NE(id, old);
    if (ids.size() > 8) ids.erase(ids.begin());
    ids.push_back(id);
    if (cycle % 2 == 0) sim.cancel(id);
  }
  sim.run();
  EXPECT_EQ(sim.executed(), 500u);
}

TEST(Simulator, CancelReleasesCapturedResourcesImmediately) {
  Simulator sim;
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventId id =
      sim.schedule_at(SimTime::millis(1), [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // handler still owns the capture
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(watch.expired());  // released on cancel, not at drain time
}

TEST(Simulator, ExecutionReleasesCapturedResources) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  sim.schedule_at(SimTime::millis(1), [token] { (void)*token; });
  token.reset();
  sim.run();
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, OversizedHandlersFallBackToTheHeap) {
  // Captures past the inline buffer take the heap path; behaviour is
  // unchanged, including immediate release on cancel.
  Simulator sim;
  std::array<std::uint64_t, 16> payload{};
  payload[7] = 99;
  std::uint64_t seen = 0;
  sim.schedule_at(SimTime::millis(1), [payload, &seen] { seen = payload[7]; });
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId cancelled = sim.schedule_at(
      SimTime::millis(2), [payload, token] { (void)*token; });
  token.reset();
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_TRUE(watch.expired());
  sim.run();
  EXPECT_EQ(seen, 99u);
}

TEST(Simulator, MoveOnlyCapturesSupported) {
  // InlineFunction is move-only, so handlers may own move-only resources —
  // something the previous std::function-based storage rejected.
  Simulator sim;
  auto value = std::make_unique<int>(31);
  int seen = 0;
  sim.schedule_at(SimTime::millis(1),
                  [value = std::move(value), &seen] { seen = *value; });
  sim.run();
  EXPECT_EQ(seen, 31);
}

TEST(Simulator, CancellationBacklogStaysBounded) {
  // Armed-then-cancelled timeouts are the dominant event pattern of RPC
  // traffic. The pool must recycle their slots and the heap must compact
  // the corpses instead of accumulating 100k dead entries.
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = sim.schedule_at(SimTime::seconds(3600), [] {});
    ASSERT_TRUE(sim.cancel(id));
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_LE(sim.pool_size(), 64u);
  sim.run();
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulator, FarTierCancellationBacklogStaysBounded) {
  // The same timeout pattern with the boundary moved off zero: reading the
  // top pulls both live events into the near tier, so the cancelled
  // timeouts an hour ahead all land in the far tier. Compaction must sweep
  // them there too, and the pending set's memory must stay small.
  Simulator sim;
  int ran = 0;
  sim.schedule_at(SimTime::seconds(1), [&ran] { ++ran; });
  sim.schedule_at(SimTime::seconds(2), [&ran] { ++ran; });
  EXPECT_EQ(sim.next_event_time(), SimTime::seconds(1));
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = sim.schedule_at(SimTime::seconds(3600), [] {});
    ASSERT_TRUE(sim.cancel(id));
  }
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_LE(sim.pool_size(), 64u);
  EXPECT_LT(sim.resident_bytes(), 64u * 1024u);
  sim.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(Simulator, ResidentBytesCoverRecordsAndPendingSet) {
  Simulator sim;
  EXPECT_EQ(sim.resident_bytes(), 0u);
  sim.reserve(1000);
  // At least one record and one 24-byte entry per reserved event.
  EXPECT_GE(sim.resident_bytes(), 1000u * (24u + 48u));
}

TEST(Simulator, ReservePreservesSemantics) {
  Simulator sim;
  sim.reserve(4096);
  EXPECT_TRUE(sim.empty());
  int count = 0;
  for (int i = 0; i < 32; ++i) {
    sim.schedule_at(SimTime::millis(i), [&count] { ++count; });
  }
  sim.run();
  EXPECT_EQ(count, 32);
}

}  // namespace
}  // namespace agentloc::sim
