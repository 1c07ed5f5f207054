#pragma once

#include "core/config.hpp"
#include "core/scheme.hpp"
#include "core/tracker_table.hpp"
#include "platform/agent.hpp"
#include "util/flat_map.hpp"

namespace agentloc::core {

/// The single tracking agent of the centralized baseline (paper §5): "a
/// single central agent responsible for maintaining the current location of
/// all mobile agents in the system", performing the same functions as an
/// IAgent — but never splitting, so every update and query in the system
/// funnels through its one inbox. That funnel is what the paper's Figures
/// 7–8 measure against.
class CentralTracker : public platform::Agent {
 public:
  std::string kind() const override { return "central-tracker"; }

  void on_message(const platform::Message& message) override;

  std::size_t entry_count() const noexcept { return table_.size(); }
  std::uint64_t requests_served() const noexcept { return requests_; }
  std::size_t resident_bytes() const noexcept {
    return table_.resident_bytes();
  }
  void reserve(std::size_t agents) { table_.reserve(agents); }

 private:
  LocationTable table_;
  std::uint64_t requests_ = 0;
};

/// Centralized location scheme: the paper's scalability baseline.
class CentralizedLocationScheme : public LocationScheme {
 public:
  CentralizedLocationScheme(platform::AgentSystem& system,
                            MechanismConfig config,
                            net::NodeId tracker_node = 0);

  std::string name() const override { return "centralized"; }

  void register_agent(platform::Agent& self,
                      std::function<void(bool)> done) override;
  void update_location(platform::Agent& self,
                       std::function<void(bool)> done) override;
  void deregister_agent(platform::Agent& self) override;
  void locate(platform::Agent& requester, platform::AgentId target,
              std::function<void(const LocateOutcome&)> done) override;

  std::size_t tracker_count() const override { return 1; }

  std::size_t estimated_resident_bytes() const noexcept override {
    return seqs_.capacity() *
               (sizeof(platform::AgentId) + sizeof(std::uint64_t)) +
           tracker_->resident_bytes();
  }

  void reserve(std::size_t agents) override {
    seqs_.reserve(agents);
    tracker_->reserve(agents);
  }

  CentralTracker& tracker() noexcept { return *tracker_; }

 private:
  void send_report(platform::AgentId self, std::uint64_t seq,
                   int attempts_left, std::function<void(bool)> done);
  void locate_attempt(platform::AgentId requester, platform::AgentId target,
                      int attempt,
                      std::function<void(const LocateOutcome&)> done);

  platform::AgentSystem& system_;
  MechanismConfig config_;
  CentralTracker* tracker_;
  platform::AgentAddress tracker_address_;
  /// Per-agent update sequence numbers (flat storage; see HashLocationScheme).
  util::FlatMap<platform::AgentId, std::uint64_t, platform::kNoAgent> seqs_;
};

}  // namespace agentloc::core
