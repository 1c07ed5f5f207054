// Differential test of the simulator's two-tier pending set against a
// reference ordered map keyed by (when, seq). Every event checks, as it
// runs, that it is the reference's earliest entry at the reference's time;
// after every call that drives the simulator, its clock, pending() and
// next_event_time() must agree with the reference too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace agentloc::sim {
namespace {

class Reference {
 public:
  explicit Reference(std::uint64_t seed) : rng_(seed) {}

  /// Schedule at `when_ns` (clamped to now, as the simulator does) in both.
  void schedule(std::int64_t when_ns) {
    const auto tag = ids_.size();
    ids_.push_back(sim_.schedule_at(SimTime::nanos(when_ns),
                                    [this, tag] { fire(tag); }));
    const Key key{std::max(when_ns, now_ns_), next_seq_++};
    keys_.push_back(key);
    model_.emplace(key, tag);
  }

  /// Cancel a random event, pending or not.
  void cancel_any() {
    if (ids_.empty()) return;
    const auto tag = rng_.next_below(ids_.size());
    const bool expected = model_.erase(keys_[tag]) == 1;
    EXPECT_EQ(sim_.cancel(ids_[tag]), expected) << "tag " << tag;
  }

  /// A time drawn from the mixes the two tiers must agree on.
  std::int64_t pick_time() {
    switch (rng_.next_below(7)) {
      case 0:  // in the past: clamped to now
        return now_ns_ - static_cast<std::int64_t>(rng_.next_below(5'000'000));
      case 1:  // this very instant
        return now_ns_;
      case 2:  // near: within a few milliseconds
        return now_ns_ + static_cast<std::int64_t>(rng_.next_below(5'000'000));
      case 3:  // far: seconds to minutes ahead
        return now_ns_ + static_cast<std::int64_t>(
                             1'000'000'000 + rng_.next_below(120'000'000'000));
      case 4:  // on a coarse grid, so distinct events share instants
        return now_ns_ + static_cast<std::int64_t>(rng_.next_below(64)) *
                             250'000'000;
      default: {
        // Exactly the instant of a pending event. Every tier boundary is
        // such an instant, so this lands on the boundary time repeatedly.
        if (model_.empty()) return now_ns_;
        auto it = model_.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng_.next_below(std::min<std::size_t>(
                                 model_.size(), 64))));
        if (rng_.next_below(2) == 0) it = std::prev(model_.end());
        return it->first.first;
      }
    }
  }

  void step() {
    const bool expected = !model_.empty();
    in_run_ = false;
    EXPECT_EQ(sim_.step(), expected);
    check_state();
  }

  void run_until(std::int64_t deadline_ns) {
    in_run_ = true;
    stopped_ = false;
    sim_.run_until(SimTime::nanos(deadline_ns));
    in_run_ = false;
    if (!stopped_) {
      if (!model_.empty()) {
        EXPECT_GT(model_.begin()->first.first, deadline_ns);
      }
      now_ns_ = std::max(now_ns_, deadline_ns);
    }
    check_state();
  }

  void drain() {
    in_run_ = false;  // no stops: run to the end
    sim_.run();
    EXPECT_TRUE(model_.empty());
    check_state();
  }

  void check_state() {
    EXPECT_EQ(sim_.now().as_nanos(), now_ns_);
    EXPECT_EQ(sim_.pending(), model_.size());
    const SimTime expected = model_.empty()
                                 ? SimTime::infinity()
                                 : SimTime::nanos(model_.begin()->first.first);
    EXPECT_EQ(sim_.next_event_time(), expected);
  }

  std::int64_t now_ns() const { return now_ns_; }
  std::size_t executed() const { return executed_; }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;

  void fire(std::size_t tag) {
    ASSERT_FALSE(model_.empty()) << "tag " << tag << " ran after the end";
    const auto head = model_.begin();
    ASSERT_EQ(head->second, tag) << "out of (when, seq) order";
    ASSERT_EQ(sim_.now().as_nanos(), head->first.first);
    now_ns_ = head->first.first;
    model_.erase(head);
    ++executed_;
    // Handlers schedule and cancel too, the way timers and messages do:
    // 5/8 of a child per event on average, so a drain ends.
    const auto draw = rng_.next_below(8);
    const int children = draw < 4 ? 0 : draw < 7 ? 1 : 2;
    for (int i = 0; i < children; ++i) schedule(pick_time());
    if (rng_.next_below(4) == 0) cancel_any();
    if (in_run_ && rng_.next_below(64) == 0) {
      sim_.request_stop();
      stopped_ = true;
    }
  }

  Simulator sim_;
  util::Rng rng_;
  std::map<Key, std::size_t> model_;
  std::vector<EventId> ids_;
  std::vector<Key> keys_;
  std::int64_t now_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  bool in_run_ = false;
  bool stopped_ = false;
};

/// `timers` far-future timers first (enough to make refills select a chunk
/// rather than take the whole far tier), then `operations` random calls.
void drive(Reference& ref, std::uint64_t seed, std::size_t timers,
           std::size_t operations) {
  util::Rng rng(seed ^ 0x5eedu);
  for (std::size_t i = 0; i < timers; ++i) {
    ref.schedule(static_cast<std::int64_t>(rng.next_below(240)) *
                 1'000'000'000);
  }
  for (std::size_t op = 0; op < operations && !testing::Test::HasFailure();
       ++op) {
    switch (rng.next_below(8)) {
      case 0:
      case 1:
        ref.schedule(ref.pick_time());
        break;
      case 2:
        ref.cancel_any();
        break;
      case 3:
        ref.step();
        break;
      case 4:
        ref.run_until(ref.now_ns() + static_cast<std::int64_t>(
                                         rng.next_below(20'000'000)));
        break;
      case 5:
        ref.run_until(ref.now_ns() + static_cast<std::int64_t>(
                                         rng.next_below(4'000'000'000)));
        break;
      case 6:
        ref.run_until(ref.pick_time());  // often exactly an event's instant
        break;
      default:
        ref.check_state();
        break;
    }
  }
  ref.drain();
}

TEST(PendingSetDifferential, SmallPendingSets) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Reference ref(seed);
    drive(ref, seed, 32, 4000);
    EXPECT_GT(ref.executed(), 500u) << "seed " << seed;
  }
}

TEST(PendingSetDifferential, LargeFarTierWithChunkedRefills) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Reference ref(seed);
    drive(ref, seed, 40'000, 20'000);
    EXPECT_GT(ref.executed(), 10'000u) << "seed " << seed;
  }
}

TEST(PendingSetDifferential, MostlyCancelledBacklog) {
  // Cancels outnumber live events, so compaction sweeps both tiers while
  // the order checks run.
  Reference ref(21);
  util::Rng rng(21);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 400; ++i) ref.schedule(ref.pick_time());
    for (int i = 0; i < 600; ++i) ref.cancel_any();
    ref.check_state();
    ref.run_until(ref.now_ns() +
                  static_cast<std::int64_t>(rng.next_below(3'000'000'000)));
  }
  ref.drain();
}

}  // namespace
}  // namespace agentloc::sim
