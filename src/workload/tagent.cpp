#include "workload/tagent.hpp"

namespace agentloc::workload {

TAgent::TAgent(core::LocationScheme& scheme, const Config& config)
    : scheme_(scheme), config_(config), rng_(config.seed) {}

void TAgent::on_start() {
  move_timer_ = std::make_unique<sim::Timeout>(system().simulator());
  if (config_.start_stagger > sim::SimTime::zero()) {
    // Admission spread: draw the delay from this agent's own stream so the
    // schedule is fixed by (seed, id), not by population size.
    const sim::SimTime delay = sim::SimTime::millis(
        rng_.uniform(0.0, config_.start_stagger.as_millis()));
    move_timer_->arm(delay, [this] {
      scheme_.register_agent(*this, [this](bool ok) { registered_ = ok; });
      if (config_.mobile) schedule_move();
    });
    return;
  }
  scheme_.register_agent(*this, [this](bool ok) { registered_ = ok; });
  if (config_.mobile) schedule_move();
}

void TAgent::on_dispose() {
  // Deregistering requires an active agent; on_dispose runs before removal.
  scheme_.deregister_agent(*this);
}

void TAgent::set_mobile(bool mobile) {
  if (config_.mobile == mobile) return;
  config_.mobile = mobile;
  if (mobile) {
    schedule_move();
  } else if (move_timer_) {
    move_timer_->cancel();
  }
}

void TAgent::schedule_move() {
  const sim::SimTime dwell =
      config_.exponential_residence
          ? sim::SimTime::millis(
                rng_.exponential(config_.residence.as_millis()))
          : config_.residence;
  move_timer_->arm(dwell, [this] { do_move(); });
}

void TAgent::do_move() {
  net::NodeId destination = node();
  if (!config_.node_pool.empty()) {
    // Cluster mobility: uniform over the pool minus the current node.
    std::vector<net::NodeId> options;
    for (const net::NodeId candidate : config_.node_pool) {
      if (candidate != node()) options.push_back(candidate);
    }
    if (options.empty()) {
      schedule_move();
      return;
    }
    destination = options[rng_.next_below(options.size())];
  } else {
    const auto nodes = static_cast<net::NodeId>(system().node_count());
    if (nodes < 2) {
      schedule_move();
      return;
    }
    // Uniform choice among the *other* nodes.
    destination = static_cast<net::NodeId>(rng_.next_below(nodes - 1));
    if (destination >= node()) ++destination;
  }
  system().migrate(id(), destination);
}

void TAgent::on_message(const platform::Message& message) {
  // Location-mechanism control traffic (e.g. a wrong-IAgent notice) goes to
  // the scheme; a TAgent has no other inbound protocol.
  scheme_.handle_agent_message(*this, message);
}

void TAgent::on_delivery_failure(const platform::DeliveryFailure& failure) {
  scheme_.handle_delivery_failure(*this, failure);
}

void TAgent::on_arrival(net::NodeId from_node) {
  (void)from_node;
  ++moves_;
  // Paper §2.3 ("Agent Movement"): each time the agent moves, it informs its
  // IAgent about its new location.
  scheme_.update_location(*this, [](bool) {});
  if (config_.mobile) schedule_move();
}

}  // namespace agentloc::workload
