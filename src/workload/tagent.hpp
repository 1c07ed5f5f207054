#pragma once

#include <memory>
#include <vector>

#include "core/scheme.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace agentloc::workload {

/// A TAgent — the paper's name for the tracked mobile agents of the
/// evaluation (§5): it registers with the location mechanism at creation,
/// roams the network staying `residence` at each node, and reports its new
/// location after every migration.
class TAgent : public platform::Agent {
 public:
  struct Config {
    /// Dwell time at each node (paper: 0.5 s in Experiment I; the sweep
    /// variable of Experiment II).
    sim::SimTime residence = sim::SimTime::millis(500);

    /// Draw dwell times from an exponential distribution with mean
    /// `residence` instead of a constant — desynchronizes the population.
    bool exponential_residence = true;

    /// Per-agent RNG stream seed.
    std::uint64_t seed = 1;

    /// Whether the agent starts moving immediately.
    bool mobile = true;

    /// Admission spread: register (and start roaming) after a uniform
    /// random delay in [0, start_stagger] instead of at creation time.
    /// Zero (the default) keeps the everything-at-t0 burst. At million-agent
    /// populations the harness staggers admission across the warmup so the
    /// platform's RPC/in-flight/inbox tables size for steady state, not for
    /// one synchronized registration spike no real deployment produces.
    sim::SimTime start_stagger = sim::SimTime::zero();

    /// When non-empty, the agent roams only within these nodes (cluster
    /// mobility — used by the locality ablation). Must contain at least two
    /// nodes for movement to happen.
    std::vector<net::NodeId> node_pool;
  };

  TAgent(core::LocationScheme& scheme, const Config& config);

  std::string kind() const override { return "tagent"; }

  void on_start() override;
  void on_arrival(net::NodeId from_node) override;
  void on_message(const platform::Message& message) override;
  void on_delivery_failure(const platform::DeliveryFailure& failure) override;
  void on_dispose() override;

  /// Pause/resume roaming (used by adaptation benches to create load steps).
  void set_mobile(bool mobile);

  /// Change the dwell time; takes effect from the next scheduled move
  /// (used by adaptation benches to create mobility steps).
  void set_residence(sim::SimTime residence) {
    config_.residence = residence;
  }

  std::uint64_t moves_completed() const noexcept { return moves_; }
  bool registered() const noexcept { return registered_; }

 private:
  void schedule_move();
  void do_move();

  core::LocationScheme& scheme_;
  Config config_;
  util::Rng rng_;
  std::unique_ptr<sim::Timeout> move_timer_;
  bool registered_ = false;
  std::uint64_t moves_ = 0;
};

}  // namespace agentloc::workload
