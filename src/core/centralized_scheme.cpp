#include "core/centralized_scheme.hpp"

#include <utility>

namespace agentloc::core {

void CentralTracker::on_message(const platform::Message& message) {
  ++requests_;
  if (const auto* request = message.body_as<RegisterRequest>()) {
    table_.apply(request->entry);
    system().reply(message, id(), UpdateAck{true, 0}, UpdateAck::kWireBytes);
  } else if (const auto* request = message.body_as<UpdateRequest>()) {
    // One-way (the tracker is always responsible): no acknowledgement.
    table_.apply(request->entry);
  } else if (const auto* request = message.body_as<LocateRequest>()) {
    LocateReply reply;
    if (const auto entry = table_.find(request->target)) {
      reply.status = LocateStatus::kFound;
      reply.node = entry->node;
    } else {
      reply.status = LocateStatus::kUnknown;
    }
    system().reply(message, id(), reply, LocateReply::kWireBytes);
  } else if (const auto* request = message.body_as<DeregisterRequest>()) {
    table_.remove(request->agent, request->seq);
  }
}

CentralizedLocationScheme::CentralizedLocationScheme(
    platform::AgentSystem& system, MechanismConfig config,
    net::NodeId tracker_node)
    : system_(system), config_(config) {
  tracker_ = &system_.create<CentralTracker>(tracker_node);
  tracker_address_ = platform::AgentAddress{tracker_node, tracker_->id()};
}

void CentralizedLocationScheme::register_agent(platform::Agent& self,
                                               std::function<void(bool)> done) {
  ++stats_.registers;
  send_report(self.id(), ++seqs_[self.id()], config_.max_locate_retries,
              std::move(done));
}

void CentralizedLocationScheme::update_location(platform::Agent& self,
                                                std::function<void(bool)> done) {
  ++stats_.updates;
  const auto node = system_.node_of(self.id());
  if (node) {
    system_.send(self.id(), tracker_address_,
                 UpdateRequest{LocationEntry{self.id(), *node,
                                             ++seqs_[self.id()]}},
                 UpdateRequest::kWireBytes);
  }
  done(true);
}

void CentralizedLocationScheme::deregister_agent(platform::Agent& self) {
  ++stats_.deregisters;
  if (!system_.node_of(self.id())) return;
  system_.send(self.id(), tracker_address_,
               DeregisterRequest{self.id(), ++seqs_[self.id()]},
               DeregisterRequest::kWireBytes);
  seqs_.erase(self.id());
}

void CentralizedLocationScheme::send_report(platform::AgentId self,
                                            std::uint64_t seq,
                                            int attempts_left,
                                            std::function<void(bool)> done) {
  const auto node = system_.node_of(self);
  if (!node || attempts_left <= 0) {
    done(false);
    return;
  }
  const LocationEntry entry{self, *node, seq};
  system_.request(
      self, tracker_address_, RegisterRequest{entry},
      RegisterRequest::kWireBytes,
      [this, self, seq, attempts_left,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          done(true);
          return;
        }
        ++stats_.timeout_retries;
        send_report(self, seq, attempts_left - 1, std::move(done));
      },
      config_.rpc_timeout);
}

void CentralizedLocationScheme::locate(
    platform::Agent& requester, platform::AgentId target,
    std::function<void(const LocateOutcome&)> done) {
  ++stats_.locates;
  locate_attempt(requester.id(), target, 1, std::move(done));
}

void CentralizedLocationScheme::locate_attempt(
    platform::AgentId requester, platform::AgentId target, int attempt,
    std::function<void(const LocateOutcome&)> done) {
  if (attempt > config_.max_locate_retries || !system_.node_of(requester)) {
    ++stats_.locates_failed;
    done(LocateOutcome{false, net::kNoNode, attempt - 1});
    return;
  }
  system_.request(
      requester, tracker_address_, LocateRequest{target},
      LocateRequest::kWireBytes,
      [this, requester, target, attempt,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok()) {
          if (const auto* reply = result.reply.body_as<LocateReply>();
              reply != nullptr && reply->status == LocateStatus::kFound) {
            ++stats_.locates_found;
            done(LocateOutcome{true, reply->node, attempt});
            return;
          }
        } else {
          ++stats_.delivery_retries;
        }
        // Not registered yet (creation race) or lost message: retry after a
        // short pause.
        system_.simulator().schedule_after(
            config_.transient_retry_delay,
            [this, requester, target, attempt,
             done = std::move(done)]() mutable {
              locate_attempt(requester, target, attempt + 1, std::move(done));
            });
      },
      config_.rpc_timeout);
}

}  // namespace agentloc::core
