#pragma once

#include <cstdint>
#include <memory>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace agentloc::net {

/// Dense node index. Node 0 conventionally hosts the HAgent (the paper's
/// static hash-function holder); everything else is symmetric.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Strategy for the one-way latency of a message.
///
/// Implementations receive the endpoints, the serialized size, and the
/// network's RNG stream (for jitter); they must not retain the RNG.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  virtual sim::SimTime latency(NodeId from, NodeId to, std::size_t bytes,
                               util::Rng& rng) = 0;
};

/// Switched-LAN model calibrated to the paper's testbed (Sun Blades on a
/// 100 Mb/s LAN): fixed per-message cost, linear per-byte cost, and uniform
/// jitter. Same-node messages (agent → co-located LHAgent) pay only a small
/// loopback cost.
class LanLatencyModel final : public LatencyModel {
 public:
  struct Config {
    sim::SimTime base = sim::SimTime::micros(350);
    double per_byte_ns = 80.0;  // ~100 Mb/s
    sim::SimTime jitter = sim::SimTime::micros(100);
    sim::SimTime loopback = sim::SimTime::micros(20);
  };

  LanLatencyModel() : LanLatencyModel(Config{}) {}
  explicit LanLatencyModel(const Config& config) : config_(config) {}

  sim::SimTime latency(NodeId from, NodeId to, std::size_t bytes,
                       util::Rng& rng) override;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

/// Uniform random latency in [lo, hi]; handy for tests that need heavy
/// reordering.
class UniformLatencyModel final : public LatencyModel {
 public:
  UniformLatencyModel(sim::SimTime lo, sim::SimTime hi) : lo_(lo), hi_(hi) {}

  sim::SimTime latency(NodeId from, NodeId to, std::size_t bytes,
                       util::Rng& rng) override;

 private:
  sim::SimTime lo_;
  sim::SimTime hi_;
};

/// Two-tier topology: nodes are grouped into clusters of `cluster_size`
/// consecutive ids; intra-cluster messages ride the LAN model, inter-cluster
/// messages additionally pay a WAN hop. Makes placement decisions (the
/// paper's §7 locality extension) matter.
class ClusterLatencyModel final : public LatencyModel {
 public:
  struct Config {
    std::size_t cluster_size = 4;
    LanLatencyModel::Config lan;
    /// Extra one-way cost between clusters.
    sim::SimTime wan_hop = sim::SimTime::millis(8);
    sim::SimTime wan_jitter = sim::SimTime::millis(1);
  };

  explicit ClusterLatencyModel(const Config& config)
      : config_(config), lan_(config.lan) {}

  sim::SimTime latency(NodeId from, NodeId to, std::size_t bytes,
                       util::Rng& rng) override;

  bool same_cluster(NodeId a, NodeId b) const noexcept {
    return a / config_.cluster_size == b / config_.cluster_size;
  }

 private:
  Config config_;
  LanLatencyModel lan_;
};

/// Fixed latency regardless of endpoints or size; the default in unit tests
/// where timing must be predictable to the nanosecond.
class FixedLatencyModel final : public LatencyModel {
 public:
  explicit FixedLatencyModel(sim::SimTime value) : value_(value) {}

  sim::SimTime latency(NodeId, NodeId, std::size_t, util::Rng&) override {
    return value_;
  }

 private:
  sim::SimTime value_;
};

std::unique_ptr<LatencyModel> make_default_lan_model();

}  // namespace agentloc::net
