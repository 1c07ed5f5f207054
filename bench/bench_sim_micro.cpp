// Microbenchmarks (google-benchmark) of the discrete-event engine itself:
// the schedule/execute/cancel costs underneath every simulated message.
// The headline `events_per_sec` meta field replays the exact mixed-churn
// workload used to judge engine PRs (self-rescheduling delivery chains with
// delivery-closure-sized captures plus armed-then-cancelled timeouts), so
// BENCH_sim_micro.json is directly comparable across engine generations.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "bench_json.hpp"
#include "sim/simulator.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"

using namespace agentloc;
using sim::SimTime;

namespace {

/// Self-rescheduling event the size of the network's delivery closure
/// (~40 bytes) — the hot handler shape of a real experiment run.
struct DeliveryChain {
  sim::Simulator* simulator;
  util::Rng* rng;
  std::uint64_t* executed;
  std::uint64_t total;
  std::uint64_t payload;

  void operator()() const {
    if (++*executed >= total) {
      simulator->request_stop();
      return;
    }
    simulator->schedule_after(
        SimTime::nanos(static_cast<std::int64_t>(rng->next_below(1000))),
        *this);
    // Every 4th event arms a 10ms timeout and cancels it — the RPC
    // timeout pattern that floods the heap with dead entries.
    if ((*executed & 3) == 0) {
      const sim::EventId id =
          simulator->schedule_after(SimTime::millis(10), *this);
      simulator->cancel(id);
    }
  }
};
static_assert(sizeof(DeliveryChain) <= 48,
              "chain must fit the simulator's inline handler buffer");

/// One full mixed-churn run; returns events/second.
double mixed_churn_run(std::uint64_t total_events) {
  sim::Simulator simulator;
  simulator.reserve(1024);
  util::Rng rng(7);
  std::uint64_t executed = 0;
  const DeliveryChain chain{&simulator, &rng, &executed, total_events, 0};
  for (int i = 0; i < 64; ++i) {
    simulator.schedule_after(SimTime::nanos(i), chain);
  }
  const auto start = std::chrono::steady_clock::now();
  simulator.run();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(simulator.executed()) / seconds;
}

void BM_ScheduleExecute(benchmark::State& state) {
  // Warm pool: schedule a batch of near-future events and drain it.
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(batch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      simulator.schedule_after(SimTime::nanos(static_cast<std::int64_t>(i)),
                               [&sink] { ++sink; });
    }
    simulator.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleExecute)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ScheduleCancel(benchmark::State& state) {
  // Arm-then-cancel, the timeout pattern: cancel must be O(1) and the heap
  // must compact away the corpses instead of sifting through them.
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(batch);
  std::vector<sim::EventId> ids(batch);
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = simulator.schedule_after(SimTime::seconds(60), [] {});
    }
    for (const sim::EventId id : ids) simulator.cancel(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ScheduleCancel)->Arg(64)->Arg(4096);

/// A TAgent's residence timer: fires, then re-arms up to four minutes ahead
/// (120 s mean, the `capacity` workload's residence).
struct ResidenceTimer {
  sim::Simulator* simulator;
  util::Rng* rng;

  void operator()() const {
    simulator->schedule_after(
        SimTime::millis(static_cast<double>(rng->next_below(240'000))),
        *this);
  }
};

/// A message hop 0-2 ms after the last; every 4th hop arms and cancels an
/// RPC timeout 2 s ahead.
struct MessageHop {
  sim::Simulator* simulator;
  util::Rng* rng;
  std::uint64_t* hops;

  void operator()() const {
    simulator->schedule_after(
        SimTime::micros(static_cast<std::int64_t>(rng->next_below(2000))),
        *this);
    if ((++*hops & 3) == 0) {
      simulator->cancel(simulator->schedule_after(SimTime::seconds(2), *this));
    }
  }
};

void BM_FarTimers(benchmark::State& state) {
  // The `capacity` workload's shape: a large population of far-future
  // timers pending under ms-scale churn from 64 message chains. Each
  // iteration runs 100 ms of simulated time.
  const auto timers = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  simulator.reserve(timers + 1024);
  util::Rng rng(11);
  std::uint64_t hops = 0;
  for (std::size_t i = 0; i < timers; ++i) {
    ResidenceTimer{&simulator, &rng}();
  }
  for (int i = 0; i < 64; ++i) MessageHop{&simulator, &rng, &hops}();
  for (auto _ : state) {
    simulator.run_until(simulator.now() + SimTime::millis(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(simulator.executed()));
}
BENCHMARK(BM_FarTimers)->Arg(500'000);

void BM_MixedChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    constexpr std::uint64_t kEvents = 200'000;
    benchmark::DoNotOptimize(mixed_churn_run(kEvents));
    events += kEvents;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MixedChurn)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("sim_micro");

  // Headline number first (before google-benchmark may filter/abort): the
  // canonical 4M-event mixed-churn run, best of 3.
  constexpr std::uint64_t kHeadlineEvents = 4'000'000;
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const double rate = mixed_churn_run(kHeadlineEvents);
    if (rate > best) best = rate;
    std::printf("mixed churn round %d: %.2fM events/s\n", round, rate / 1e6);
  }
  report.meta()
      .set("events_per_sec", best)
      .set("headline_events", kHeadlineEvents)
      .set("workload",
           "64 delivery chains, 1us mean spacing, 25% cancelled timeouts");

  return benchjson::run_and_write(argc, argv, report);
}
