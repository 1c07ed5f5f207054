#include "layer_costs.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/protocol.hpp"
#include "core/tracker_table.hpp"
#include "hashtree/router.hpp"
#include "net/frame.hpp"
#include "net/latency.hpp"
#include "net/locate_service.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "util/buffer_pool.hpp"
#include "util/bytebuffer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace agentloc;

namespace {

/// Keeps timed results observable so the optimizer cannot drop the work.
volatile std::uint64_t g_sink = 0;

/// Median over `batches` timed calls of `batch(ops)`, in ns per operation.
double median_ns(std::size_t batches, std::size_t ops,
                 const std::function<void(std::size_t)>& batch) {
  batch(ops / 4 + 1);  // warm caches and lazily compiled state
  std::vector<double> samples;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    batch(ops);
    samples.push_back(seconds_since(start) * 1e9 / static_cast<double>(ops));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// The i-th agent id of a microbenchmark population, computed rather than
/// loaded, so a probe's cost is the layer's own and not an id array's.
platform::AgentId agent_id(std::uint64_t i) { return util::mix64(i + 1) | 1; }

class SinkAgent : public platform::Agent {
 public:
  void on_message(const platform::Message&) override { ++received; }
  std::uint64_t received = 0;
};

}  // namespace

double event_ns(std::size_t pending) {
  sim::Simulator simulator;
  simulator.reserve(pending + 1024);
  // The queue the workload held: far-future events that stay pending.
  for (std::size_t i = 0; i < pending; ++i) {
    simulator.schedule_at(sim::SimTime::seconds(1e6 + static_cast<double>(i)),
                          [] {});
  }
  std::uint64_t fired = 0;
  util::Rng rng(7);
  const double ns = median_ns(5, 200'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      simulator.schedule_after(
          sim::SimTime::micros(static_cast<double>(rng.next_below(1000))),
          [&fired] { ++fired; });
      if ((i & 63) == 63) {
        simulator.run_until(simulator.now() + sim::SimTime::millis(1));
      }
    }
    simulator.run_until(simulator.now() + sim::SimTime::millis(1));
  });
  g_sink = g_sink + fired;
  return ns;
}

DispatchCost send_dispatch_cost(sim::SimTime service_time) {
  sim::Simulator simulator;
  net::Network network(simulator, 2, net::make_default_lan_model(),
                       util::Rng(11));
  platform::AgentSystem::Config config;
  config.service_time = service_time;
  platform::AgentSystem system(simulator, network, config);
  auto& sender = system.create<SinkAgent>(0);
  auto& sink = system.create<SinkAgent>(1);
  simulator.run();
  const platform::AgentAddress to{1, sink.id()};
  core::UpdateRequest update;
  update.entry = core::LocationEntry{sink.id(), 1, 1};

  std::uint64_t messages = 0;
  const std::uint64_t events_before = simulator.executed();
  DispatchCost cost;
  cost.ns_per_message = median_ns(5, 64 * 1024, [&](std::size_t ops) {
    for (std::size_t sent = 0; sent < ops;) {
      for (int burst = 0; burst < 1024 && sent < ops; ++burst, ++sent) {
        ++update.entry.seq;
        system.send(sender.id(), to, update, core::UpdateRequest::kWireBytes);
        ++messages;
      }
      simulator.run();
    }
  });
  cost.events_per_message =
      static_cast<double>(simulator.executed() - events_before) /
      static_cast<double>(messages);
  g_sink = g_sink + sink.received;
  return cost;
}

double tree_lookup_ns(const hashtree::HashTree& tree) {
  hashtree::HashTree copy = tree;
  util::Rng rng(13);
  std::uint64_t acc = 0;
  const double ns = median_ns(5, 1'000'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) acc += copy.lookup_id(rng.next()).iagent;
  });
  g_sink = g_sink + acc;
  return ns;
}

double tree_mutation_ns(const hashtree::HashTree& tree) {
  hashtree::HashTree copy = tree;
  (void)copy.router();  // patch a fresh router, as the HAgent's copy does
  const std::vector<hashtree::IAgentId> leaves = copy.leaves();
  util::Rng rng(17);
  hashtree::IAgentId next_id = hashtree::IAgentId{1} << 62;
  // Each op pair splits a random leaf and merges the new leaf back, so the
  // tree keeps the size the workload reached.
  const double ns_per_pair = median_ns(5, 20'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const hashtree::IAgentId victim = leaves[rng.next_below(leaves.size())];
      const hashtree::IAgentId fresh = ++next_id;
      copy.simple_split(victim, 1, fresh, 0);
      copy.merge(fresh);
    }
  });
  g_sink = g_sink + copy.leaf_count();
  return ns_per_pair / 2.0;
}

double table_apply_ns(std::size_t entries) {
  entries = std::max<std::size_t>(entries, 1);
  core::LocationTable table;
  table.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    table.apply(core::LocationEntry{agent_id(i), 0, 1});
  }
  util::Rng rng(19);
  std::uint64_t seq = 1;
  std::uint64_t applied = 0;
  const double ns = median_ns(5, 500'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      applied += table.apply(core::LocationEntry{
          agent_id(rng.next_below(entries)), static_cast<net::NodeId>(i & 15),
          ++seq});
    }
  });
  g_sink = g_sink + applied;
  return ns;
}

double frame_encode_ns() {
  constexpr std::size_t kBatchCap = 16u << 10;
  util::BufferPool pool;
  std::uint64_t bytes = 0;
  const double ns = median_ns(5, 1'000'000, [&](std::size_t ops) {
    util::ByteWriter writer(pool.acquire(kBatchCap));
    for (std::size_t i = 0; i < ops; ++i) {
      const net::OpenFrame open =
          net::begin_frame(writer, net::FrameType::kLocate, i + 1);
      writer.write_varint(util::mix64(i));
      bytes += net::end_frame(writer, open);
      if (writer.size() >= kBatchCap) {
        pool.release(std::move(writer).take());
        writer = util::ByteWriter(pool.acquire(kBatchCap));
      }
    }
    pool.release(std::move(writer).take());
  });
  g_sink = g_sink + bytes;
  return ns;
}

double frame_decode_ns() {
  util::BufferPool pool;
  util::ByteWriter writer;
  constexpr std::size_t kFrames = 1024;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const net::OpenFrame open =
        net::begin_frame(writer, net::FrameType::kLocate, i + 1);
    writer.write_varint(util::mix64(i));
    net::end_frame(writer, open);
  }
  const std::vector<std::uint8_t> stream = writer.bytes();
  net::FrameDecoder decoder(pool);
  net::FrameView view;
  std::uint64_t payload = 0;
  const double ns = median_ns(5, 1'000'000, [&](std::size_t ops) {
    for (std::size_t decoded = 0; decoded < ops;) {
      decoder.feed(stream.data(), stream.size());
      while (decoder.next(view) == net::FrameDecoder::Status::kFrame) {
        payload += view.payload_size;
        ++decoded;
      }
    }
  });
  g_sink = g_sink + payload;
  return ns;
}

DirectoryCost directory_cost(std::size_t partitions, std::size_t bindings) {
  bindings = std::max<std::size_t>(bindings, 1);
  net::LocateDirectory directory(partitions);
  for (std::size_t i = 0; i < bindings; ++i) {
    directory.apply_update(agent_id(i), 1, 1);
  }
  util::Rng rng(23);
  std::uint64_t acc = 0;
  DirectoryCost cost;
  cost.route_ns = median_ns(5, 1'000'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      acc += directory.partition_of(agent_id(rng.next_below(bindings)));
    }
  });
  cost.locate_ns = median_ns(5, 1'000'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      acc += directory.locate(agent_id(rng.next_below(bindings))).node;
    }
  });
  std::uint64_t seq = 1;
  cost.update_ns = median_ns(5, 1'000'000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      acc += directory.apply_update(agent_id(rng.next_below(bindings)),
                                    static_cast<net::NodeId>(i & 15), ++seq);
    }
  });
  g_sink = g_sink + acc;
  return cost;
}

}  // namespace perfbench
