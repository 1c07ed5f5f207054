// Microbenchmarks (google-benchmark) of the agent-platform message plane:
// the send/dispatch pipeline, the request/reply (RPC) round trip, and the
// per-node service registry that every fixed-size protocol payload rides
// through. The headline `messages_per_sec` meta field replays a canonical
// one-way UpdateRequest storm between two nodes (best of 3), so
// BENCH_platform_micro.json is directly comparable across platform
// generations — it is the number the CI bench-regression gate watches.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "bench_json.hpp"
#include "core/protocol.hpp"
#include "net/frame.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "util/buffer_pool.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"

using namespace agentloc;
using sim::SimTime;

namespace {

/// Counts one-way messages; echoes an UpdateAck when asked via RPC.
class SinkAgent : public platform::Agent {
 public:
  void on_message(const platform::Message& message) override {
    ++received;
    if (message.correlation != 0 && !message.is_reply) {
      system().reply(message, id(), core::UpdateAck{},
                     core::UpdateAck::kWireBytes);
    }
  }
  std::uint64_t received = 0;
};

struct Cluster {
  explicit Cluster(std::size_t nodes = 2)
      : network(simulator, nodes,
                std::make_unique<net::FixedLatencyModel>(SimTime::micros(5)),
                util::Rng(11)),
        system(simulator, network, make_config()) {}

  static platform::AgentSystem::Config make_config() {
    platform::AgentSystem::Config config;
    config.service_time = SimTime::micros(1);
    return config;
  }

  sim::Simulator simulator;
  net::Network network;
  platform::AgentSystem system;
};

/// One-way fixed-size-payload storm: `total` UpdateRequests from node 0 to
/// a sink on node 1, sent in inbox-stressing bursts. Returns messages/s.
double one_way_run(std::uint64_t total) {
  Cluster cluster;
  auto& sender = cluster.system.create<SinkAgent>(0);
  auto& sink = cluster.system.create<SinkAgent>(1);
  cluster.simulator.run();
  const platform::AgentAddress to{1, sink.id()};
  core::UpdateRequest update;
  update.entry = core::LocationEntry{sink.id(), 1, 1};

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  while (sent < total) {
    for (int burst = 0; burst < 1024 && sent < total; ++burst, ++sent) {
      ++update.entry.seq;
      cluster.system.send(sender.id(), to, update,
                          core::UpdateRequest::kWireBytes);
    }
    cluster.simulator.run();
  }
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(sink.received) / seconds;
}

void BM_SendDispatch(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  Cluster cluster;
  auto& sender = cluster.system.create<SinkAgent>(0);
  auto& sink = cluster.system.create<SinkAgent>(1);
  cluster.simulator.run();
  const platform::AgentAddress to{1, sink.id()};
  core::UpdateRequest update;
  update.entry = core::LocationEntry{sink.id(), 1, 1};
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < batch; ++i) {
      ++update.entry.seq;
      cluster.system.send(sender.id(), to, update,
                          core::UpdateRequest::kWireBytes);
    }
    cluster.simulator.run();
  }
  benchmark::DoNotOptimize(sink.received);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SendDispatch)->Arg(64)->Arg(1024)->Arg(8192);

void BM_RequestReply(benchmark::State& state) {
  // Windows of outstanding RPCs: request + reply + timeout arm/cancel is
  // the locate-path shape. Items = completed round trips.
  const auto window = static_cast<std::uint64_t>(state.range(0));
  Cluster cluster;
  auto& sender = cluster.system.create<SinkAgent>(0);
  auto& echo = cluster.system.create<SinkAgent>(1);
  cluster.simulator.run();
  const platform::AgentAddress to{1, echo.id()};
  std::uint64_t completed = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < window; ++i) {
      cluster.system.request(sender.id(), to, core::LocateRequest{echo.id()},
                             core::LocateRequest::kWireBytes,
                             [&completed](platform::RpcResult) { ++completed; });
    }
    cluster.simulator.run();
  }
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(window));
}
BENCHMARK(BM_RequestReply)->Arg(64)->Arg(1024);

void BM_ServiceLookup(benchmark::State& state) {
  // The registry probe performed on agent arrivals: resolve a well-known
  // name (e.g. "lhagent") against a node with a handful of registrations.
  Cluster cluster;
  auto& agent = cluster.system.create<SinkAgent>(0);
  cluster.simulator.run();
  const char* names[] = {"lhagent", "monitor", "market",  "gateway",
                         "auditor", "cache",   "spooler", "registry"};
  for (const char* name : names) {
    cluster.system.register_service(0, name, agent.id());
  }
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const auto found = cluster.system.lookup_service(0, "lhagent");
    hits += found.has_value();
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceLookup);

void BM_FrameEncode(benchmark::State& state) {
  // The wire layer's sender path (DESIGN.md §15): header + UpdateRequest
  // payload encoded straight into pooled 16 KiB batch buffers, length slot
  // patched in place. Items = frames.
  constexpr std::size_t kBatchCap = 16u << 10;
  util::BufferPool pool;
  util::ByteWriter writer(pool.acquire(kBatchCap));
  std::uint64_t i = 0;
  for (auto _ : state) {
    const net::OpenFrame open =
        net::begin_frame(writer, net::FrameType::kUpdate, i & 0xff);
    writer.write_varint(util::mix64(i));
    writer.write_varint(i % 97);
    writer.write_varint(i);
    net::end_frame(writer, open);
    ++i;
    if (writer.size() >= kBatchCap) {
      pool.release(std::move(writer).take());
      writer = util::ByteWriter(pool.acquire(kBatchCap));
    }
  }
  benchmark::DoNotOptimize(writer.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameEncode);

void BM_FrameDecode(benchmark::State& state) {
  // The receiver path: a pre-encoded batch replayed through a FrameDecoder
  // (views into the rolling pooled buffer, no payload copies).
  constexpr std::size_t kBatchCap = 16u << 10;
  util::BufferPool pool;
  util::ByteWriter writer(pool.acquire(kBatchCap));
  std::uint64_t encoded = 0;
  while (writer.size() < kBatchCap) {
    const net::OpenFrame open =
        net::begin_frame(writer, net::FrameType::kUpdate, encoded & 0xff);
    writer.write_varint(util::mix64(encoded));
    writer.write_varint(encoded % 97);
    writer.write_varint(encoded);
    net::end_frame(writer, open);
    ++encoded;
  }
  const std::vector<std::uint8_t> stream = std::move(writer).take();

  net::FrameDecoder decoder(pool);
  net::FrameView view;
  std::uint64_t frames = 0;
  while (state.KeepRunningBatch(static_cast<std::int64_t>(encoded))) {
    decoder.feed(stream.data(), stream.size());
    while (decoder.next(view) == net::FrameDecoder::Status::kFrame) {
      ++frames;
    }
  }
  benchmark::DoNotOptimize(frames);
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_FrameDecode);

}  // namespace

int main(int argc, char** argv) {
  util::BenchReport report("platform_micro");

  // Headline number first (before google-benchmark may filter/abort): the
  // canonical 400k-message one-way storm, best of 3.
  constexpr std::uint64_t kHeadlineMessages = 400'000;
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const double rate = one_way_run(kHeadlineMessages);
    if (rate > best) best = rate;
    std::printf("one-way storm round %d: %.2fM messages/s\n", round,
                rate / 1e6);
  }
  report.meta()
      .set("messages_per_sec", best)
      .set("headline_messages", kHeadlineMessages)
      .set("workload",
           "2-node fixed-latency cluster, 1024-message bursts of 40-byte "
           "UpdateRequests, 1us service time");

  return benchjson::run_and_write(argc, argv, report);
}
