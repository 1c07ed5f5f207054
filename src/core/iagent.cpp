#include "core/iagent.hpp"

#include <algorithm>
#include <utility>

#include "platform/agent_system.hpp"
#include "util/logging.hpp"

namespace agentloc::core {

IAgent::IAgent(const MechanismConfig& config, platform::AgentAddress hagent)
    : IAgent(config, std::vector<platform::AgentAddress>{hagent}) {}

IAgent::IAgent(const MechanismConfig& config,
               std::vector<platform::AgentAddress> coordinators)
    : config_(config),
      coordinators_(std::move(coordinators)),
      hagent_(coordinators_.at(0)),
      window_(config.stats_window) {}

void IAgent::on_delivery_failure(const platform::DeliveryFailure& failure) {
  // The only agent an IAgent sends to besides clients (whose bounces carry
  // their own ids) is its coordinator. A bounced coordinator message means
  // the HAgent died: fail over to the next coordinator and ask it to take
  // over (§7 fault-tolerance extension).
  if (failure.attempted.agent != hagent_.agent ||
      coordinators_.size() < 2) {
    return;
  }
  coordinator_index_ = (coordinator_index_ + 1) % coordinators_.size();
  hagent_ = coordinators_[coordinator_index_];
  AGENTLOC_LOG(kWarn, "iagent")
      << "coordinator unreachable; failing over to agent " << hagent_.agent;
  system().send(id(), hagent_, PromoteRequest{}, PromoteRequest::kWireBytes);
}

void IAgent::on_start() {
  created_at_ = system().now();
  cooldown_until_ = created_at_ + config_.rehash_cooldown;
  window_timer_ = std::make_unique<sim::PeriodicTimer>(
      system().simulator(), config_.stats_window, [this] { roll_window(); });
  window_timer_->start();
}

void IAgent::on_arrival(net::NodeId from_node) {
  (void)from_node;
  // Paper §7 locality extension: report the new location so the primary
  // copy (and, lazily, the secondary copies) can redirect clients.
  system().send(id(), hagent_, IAgentMoved{id(), node()},
                IAgentMoved::kWireBytes);
}

void IAgent::on_message(const platform::Message& message) {
  if (const auto* request = message.body_as<RegisterRequest>()) {
    handle_register(message, *request);
  } else if (const auto* request = message.body_as<UpdateRequest>()) {
    handle_update(message, *request);
  } else if (const auto* batch = message.body_as<BatchedUpdate>()) {
    handle_batched_update(message, *batch);
  } else if (const auto* request = message.body_as<LocateRequest>()) {
    handle_locate(message, *request);
  } else if (const auto* request = message.body_as<WatchRequest>()) {
    handle_watch(message, *request);
  } else if (const auto* request = message.body_as<DeregisterRequest>()) {
    if (!retiring_) table_.remove(request->agent, request->seq);
  } else if (const auto* update = message.body_as<ResponsibilityUpdate>()) {
    handle_responsibility(*update);
  } else if (const auto* transfer = message.body_as<HandoffTransfer>()) {
    handle_handoff(message, *transfer);
  } else if (const auto* order = message.body_as<RetireOrder>()) {
    handle_retire(*order);
  }
}

void IAgent::handle_register(const platform::Message& message,
                             const RegisterRequest& request) {
  ++stats_.registers;
  window_.record(request.entry.agent);
  if (retiring_ || !responsible_for(request.entry.agent)) {
    ++stats_.not_responsible_replies;
    system().reply(message, id(), UpdateAck{false, hash_version_},
                   UpdateAck::kWireBytes);
    return;
  }
  table_.apply(request.entry);
  system().reply(message, id(), UpdateAck{true, hash_version_},
                 UpdateAck::kWireBytes);
}

void IAgent::handle_update(const platform::Message& message,
                           const UpdateRequest& request) {
  ++stats_.updates;
  window_.record(request.entry.agent);
  if (retiring_ || !responsible_for(request.entry.agent)) {
    // Updates are one-way; the error path gets a best-effort notice so the
    // sender refreshes its hash copy and resends (paper §4.3 trigger (i)).
    ++stats_.not_responsible_replies;
    system().send(id(),
                  platform::AgentAddress{message.from_node, message.from},
                  NotResponsibleNotice{request.entry.agent, hash_version_},
                  NotResponsibleNotice::kWireBytes);
    return;
  }
  // Upsert: an update racing ahead of a handoff batch re-creates the entry
  // at the new owner, so handoff races self-heal.
  if (table_.apply(request.entry)) fire_watchers(request.entry);
}

void IAgent::handle_batched_update(const platform::Message& message,
                                   const BatchedUpdate& batch) {
  ++stats_.batched_updates;
  stats_.updates += batch.entries.size();
  // Entries this IAgent no longer answers for go back to the sending
  // LHAgent in one nack (the batched analogue of NotResponsibleNotice);
  // responsible entries apply under the usual newest-seq-wins rule, and
  // each one still counts toward the load window — batching must not hide
  // load from the Tmax/Tmin split logic.
  BatchedUpdateNack nack;
  for (const LocationEntry& entry : batch.entries) {
    window_.record(entry.agent);
    if (retiring_ || !responsible_for(entry.agent)) {
      ++stats_.not_responsible_replies;
      nack.entries.push_back(entry);
      continue;
    }
    if (table_.apply(entry)) fire_watchers(entry);
  }
  if (!nack.entries.empty()) {
    nack.version_hint = hash_version_;
    const std::size_t bytes = nack.wire_bytes();
    system().send(id(),
                  platform::AgentAddress{message.from_node, message.from},
                  std::move(nack), bytes);
  }
}

void IAgent::handle_watch(const platform::Message& message,
                          const WatchRequest& request) {
  window_.record(request.target);
  LocateReply ack;
  ack.version_hint = hash_version_;
  if (retiring_ || !responsible_for(request.target)) {
    ++stats_.not_responsible_replies;
    ack.status = LocateStatus::kNotResponsible;
  } else {
    auto& list = watchers_[request.target];
    if (list.size() >= config_.max_watchers_per_agent) {
      ++stats_.watches_refused;
      ack.status = LocateStatus::kTransient;  // try again later
    } else {
      ++stats_.watches_armed;
      list.push_back(
          platform::AgentAddress{message.from_node, message.from});
      if (const auto entry = table_.find(request.target)) {
        ack.status = LocateStatus::kFound;
        ack.node = entry->node;
        ack.seq = entry->seq;
      } else {
        ack.status = LocateStatus::kUnknown;  // armed; will fire on arrival
      }
    }
  }
  system().reply(message, id(), ack, LocateReply::kWireBytes);
}

void IAgent::fire_watchers(const LocationEntry& entry) {
  auto* found = watchers_.find(entry.agent);
  if (found == nullptr) return;
  std::vector<platform::AgentAddress> list = std::move(*found);
  watchers_.erase(entry.agent);
  for (const platform::AgentAddress& watcher : list) {
    ++stats_.watches_fired;
    system().send(id(), watcher, WatchNotify{entry},
                  WatchNotify::kWireBytes);
  }
}

void IAgent::handle_locate(const platform::Message& message,
                           const LocateRequest& request) {
  ++stats_.locates;
  window_.record(request.target);
  LocateReply reply;
  reply.version_hint = hash_version_;
  if (retiring_ || !responsible_for(request.target)) {
    ++stats_.not_responsible_replies;
    reply.status = LocateStatus::kNotResponsible;
  } else if (const auto entry = table_.find(request.target)) {
    reply.status = LocateStatus::kFound;
    reply.node = entry->node;
    reply.seq = entry->seq;
  } else if (system().now() < transient_until_) {
    ++stats_.transient_replies;
    reply.status = LocateStatus::kTransient;
  } else {
    ++stats_.unknown_replies;
    reply.status = LocateStatus::kUnknown;
  }
  system().reply(message, id(), reply, LocateReply::kWireBytes);
}

void IAgent::handle_responsibility(const ResponsibilityUpdate& update) {
  if (update.version < hash_version_) return;  // stale coordinator message
  hash_version_ = update.version;
  predicate_ = update.predicate;
  // Recompile at the receiving end: predicates travel by their wire form
  // (valid_bits); the compiled (mask, value) pair is a local cache.
  predicate_.compile();
  transient_until_ = system().now() + config_.transient_grace;

  if (!update.has_transfer) {
    system().send(id(), hagent_, RehashDone{hash_version_},
                  RehashDone::kWireBytes);
    return;
  }
  Predicate transfer = update.transfer_predicate;
  transfer.compile();
  auto entries = table_.extract_matching(transfer);
  const std::uint64_t version = hash_version_;
  push_entries(update.transfer_to, std::move(entries), [this, version] {
    system().send(id(), hagent_, RehashDone{version},
                  RehashDone::kWireBytes);
  });
}

void IAgent::handle_handoff(const platform::Message& message,
                            const HandoffTransfer& transfer) {
  ++stats_.handoff_batches_in;
  table_.reserve(table_.size() + transfer.entries.size());
  for (const LocationEntry& entry : transfer.entries) {
    if (table_.apply(entry)) ++stats_.handoff_entries_in;
  }
  system().reply(message, id(), HandoffAck{}, HandoffAck::kWireBytes);
}

void IAgent::handle_retire(const RetireOrder& order) {
  if (retiring_) return;
  retiring_ = true;
  retire_version_ = order.version;
  window_timer_->stop();
  watchers_.clear();  // watchers re-arm via their client-side timeout

  // Partition the table across the routes (each entry matches exactly one
  // leaf predicate of the new hash function) in a single pass. Recompile the
  // route predicates first — they arrive in wire form.
  std::vector<Predicate> route_predicates(order.routes.size());
  for (std::size_t r = 0; r < order.routes.size(); ++r) {
    route_predicates[r] = order.routes[r].predicate;
    route_predicates[r].compile();
  }
  auto batches = table_.drain_partition(route_predicates);

  retire_outstanding_ = 0;
  for (std::size_t r = 0; r < order.routes.size(); ++r) {
    if (batches[r].empty()) continue;
    ++retire_outstanding_;
    push_entries(order.routes[r].target, std::move(batches[r]), [this] {
      if (--retire_outstanding_ == 0) finish_retirement();
    });
  }
  if (retire_outstanding_ == 0) finish_retirement();
}

void IAgent::finish_retirement() {
  system().send(id(), hagent_, RehashDone{retire_version_},
                RehashDone::kWireBytes);
  system().dispose(id());
}

void IAgent::push_entries(platform::AgentAddress target,
                          std::vector<LocationEntry> entries,
                          std::function<void()> done) {
  const std::size_t batch_size =
      config_.max_handoff_batch == 0 ? 64 : config_.max_handoff_batch;
  if (entries.size() <= batch_size) {
    push_batch(target, std::move(entries), true, 3, std::move(done));
    return;
  }
  // Ship the head batch, then recurse on the tail once it is acked: the
  // chain keeps at most one batch in flight, so a slow receiver applies
  // back-pressure instead of absorbing a burst.
  std::vector<LocationEntry> head(entries.begin(),
                                  entries.begin() +
                                      static_cast<std::ptrdiff_t>(batch_size));
  std::vector<LocationEntry> tail(entries.begin() +
                                      static_cast<std::ptrdiff_t>(batch_size),
                                  entries.end());
  push_batch(target, std::move(head), false, 3,
             [this, target, tail = std::move(tail),
              done = std::move(done)]() mutable {
               push_entries(target, std::move(tail), std::move(done));
             });
}

void IAgent::push_batch(platform::AgentAddress target,
                        std::vector<LocationEntry> entries,
                        bool final_batch, int attempts_left,
                        std::function<void()> done) {
  ++stats_.handoff_batches_out;
  stats_.handoff_entries_out += entries.size();
  HandoffTransfer transfer;
  transfer.entries = entries;
  transfer.final_batch = final_batch;
  const std::size_t bytes = transfer.wire_bytes();
  system().request(
      id(), target, std::move(transfer), bytes,
      [this, target, entries = std::move(entries), final_batch, attempts_left,
       done = std::move(done)](platform::RpcResult result) mutable {
        if (result.ok() || attempts_left <= 0) {
          if (!result.ok()) {
            AGENTLOC_LOG(kError, "iagent")
                << "handoff to agent " << target.agent << " abandoned; "
                << entries.size() << " entries rely on update self-healing";
          }
          done();
          return;
        }
        // Re-push; duplicates are sequence-checked at the receiver. The
        // receiver may also have migrated: re-resolve through the platform's
        // bounce by simply retrying the same address (the HAgent's grant is
        // fresher than any migration at this point).
        push_batch(target, std::move(entries), final_batch,
                   attempts_left - 1, std::move(done));
      },
      config_.rpc_timeout);
}

void IAgent::roll_window() {
  // The timer is simulator-level and keeps ticking through migrations; an
  // in-transit agent cannot send or migrate, so skip the roll entirely.
  if (node() == net::kNoNode) return;
  window_.roll();
  maybe_request_rehash();
  if (config_.locality_migration) consider_locality_migration();
}

void IAgent::maybe_request_rehash() {
  if (retiring_) return;
  const sim::SimTime now = system().now();
  if (now < cooldown_until_) return;
  const double rate = window_.rate();
  if (rate > config_.t_max) {
    ++stats_.split_requests;
    cooldown_until_ = now + config_.rehash_cooldown;
    SplitRequest request;
    request.rate = rate;
    request.loads = window_.loads();
    const std::size_t bytes = request.wire_bytes();
    system().send(id(), hagent_, std::move(request), bytes);
  } else if (rate < config_.t_min) {
    ++stats_.merge_requests;
    cooldown_until_ = now + config_.rehash_cooldown;
    system().send(id(), hagent_, MergeRequest{rate, table_.size()},
                  MergeRequest::kWireBytes);
  }
}

void IAgent::consider_locality_migration() {
  if (retiring_ || table_.size() == 0) return;
  // Node-indexed histogram instead of a hash map: node ids are dense and
  // small, so this is one cache-friendly pass, and ties break toward the
  // lowest node id instead of whatever order the hash table walks.
  per_node_counts_.assign(system().node_count(), 0);
  table_.for_each(
      [&](const LocationEntry& entry) { ++per_node_counts_[entry.node]; });
  net::NodeId best = node();
  std::size_t best_count = 0;
  for (net::NodeId where = 0; where < per_node_counts_.size(); ++where) {
    if (per_node_counts_[where] > best_count) {
      best = where;
      best_count = per_node_counts_[where];
    }
  }
  const double fraction =
      static_cast<double>(best_count) / static_cast<double>(table_.size());
  if (best != node() && fraction >= config_.locality_threshold) {
    ++stats_.locality_migrations;
    system().migrate(id(), best);
  }
}

}  // namespace agentloc::core
