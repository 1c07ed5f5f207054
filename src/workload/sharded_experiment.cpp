#include "workload/sharded_experiment.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/centralized_scheme.hpp"
#include "core/forwarding_scheme.hpp"
#include "core/hash_scheme.hpp"
#include "core/home_scheme.hpp"
#include "core/iagent.hpp"
#include "net/network.hpp"
#include "platform/agent_system.hpp"
#include "platform/shard.hpp"
#include "sim/parallel.hpp"
#include "util/rng.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace agentloc::workload {

namespace {

/// Shard-index convention for the whole driver: one shard per node, shard
/// index == node id. Thread count never changes the partition, which is what
/// makes the lp_threads >= 1 results thread-count-invariant.
class EngineShardHost final : public platform::ShardHost {
 public:
  EngineShardHost(sim::ParallelSimulator& engine,
                  std::vector<std::unique_ptr<platform::AgentSystem>>& systems,
                  std::vector<std::unique_ptr<core::LocationScheme>>& schemes)
      : engine_(engine), systems_(systems), schemes_(schemes) {}

  std::uint32_t shard_of(net::NodeId node) const noexcept override {
    return node;
  }

  void post_message(std::uint32_t from_shard, net::NodeId to_node,
                    sim::SimTime when, platform::Message message) override {
    engine_.post(from_shard, to_node, when,
                 [system = systems_[to_node].get(), to_node,
                  message = std::move(message)]() mutable {
                   system->deliver_remote(to_node, std::move(message));
                 });
  }

  void post_migration(std::uint32_t from_shard,
                      std::unique_ptr<platform::Agent> agent,
                      platform::AgentId id, net::NodeId from_node,
                      net::NodeId to_node, sim::SimTime when) override {
    // Export the scheme-side client state while still on the source shard
    // (single-writer); it rides the envelope and is imported between adopt
    // and the arrival notification, so the arrival-time update_location
    // already continues the agent's seq stream.
    const core::LocationScheme::ClientState state =
        schemes_[from_shard]->export_client_state(id);
    engine_.post(
        from_shard, to_node, when,
        [this, agent = std::move(agent), id, from_node, to_node,
         state]() mutable {
          platform::Agent* raw = agent.get();
          systems_[to_node]->adopt_migrated(std::move(agent), id, to_node);
          if (auto* tagent = dynamic_cast<TAgent*>(raw)) {
            tagent->rebind_scheme(*schemes_[to_node]);
          } else if (dynamic_cast<core::IAgent*>(raw) != nullptr) {
            if (auto* hash = dynamic_cast<core::HashLocationScheme*>(
                    schemes_[to_node].get())) {
              hash->note_local_iagent(id);
            }
          }
          schemes_[to_node]->import_client_state(id, state);
          systems_[to_node]->notify_arrival(id, from_node);
        });
  }

 private:
  sim::ParallelSimulator& engine_;
  std::vector<std::unique_ptr<platform::AgentSystem>>& systems_;
  std::vector<std::unique_ptr<core::LocationScheme>>& schemes_;
};

/// Runtime IAgent spawner for the sharded hash scheme: the coordinator on
/// `coordinator_shard` mints the id from its own shard (globally unique via
/// the id stride/salt partition, available synchronously for the tree op)
/// and the object is installed on the shard owning the target node — via a
/// cross-LP envelope at exactly now + lookahead, which lands strictly before
/// any responsibility grant the coordinator sends afterwards (grants carry
/// at least the same latency floor and a later send seq).
core::HAgent::IAgentSpawner make_runtime_spawner(
    sim::ParallelSimulator& engine,
    std::vector<std::unique_ptr<platform::AgentSystem>>& systems,
    std::vector<std::unique_ptr<core::LocationScheme>>& schemes,
    std::uint32_t coordinator_shard) {
  return [&engine, &systems, &schemes, coordinator_shard](
             net::NodeId node, const core::MechanismConfig& config,
             std::vector<platform::AgentAddress> coordinators) {
    platform::AgentSystem& minter = *systems[coordinator_shard];
    const platform::AgentId id = minter.mint_id();
    auto agent =
        std::make_unique<core::IAgent>(config, std::move(coordinators));
    auto install = [system = systems[node].get(),
                    scheme = schemes[node].get(), id,
                    node, agent = std::move(agent)]() mutable {
      system->install_spawned(std::move(agent), id, node);
      if (auto* hash = dynamic_cast<core::HashLocationScheme*>(scheme)) {
        hash->note_local_iagent(id);
      }
    };
    if (node == static_cast<net::NodeId>(coordinator_shard)) {
      install();  // same shard: plain local create semantics
    } else {
      engine.post(coordinator_shard, node,
                  minter.now() + engine.lookahead(), std::move(install));
    }
    return id;
  };
}

std::vector<std::unique_ptr<core::LocationScheme>> build_sharded_schemes(
    const std::string& name,
    const std::vector<platform::AgentSystem*>& systems,
    const core::MechanismConfig& mechanism) {
  std::vector<std::unique_ptr<core::LocationScheme>> schemes;
  const auto take = [&schemes](auto built) {
    for (auto& scheme : built) schemes.push_back(std::move(scheme));
  };
  if (name == "hash") {
    take(core::HashLocationScheme::build_sharded(systems, mechanism));
  } else if (name == "centralized") {
    take(core::CentralizedLocationScheme::build_sharded(systems, mechanism));
  } else if (name == "home") {
    take(core::HomeRegistryLocationScheme::build_sharded(systems, mechanism));
  } else if (name == "forwarding") {
    take(core::ForwardingLocationScheme::build_sharded(systems, mechanism));
  } else {
    throw std::invalid_argument("unknown location scheme: " + name);
  }
  return schemes;
}

void accumulate_scheme_stats(core::SchemeStats& into,
                             const core::SchemeStats& inc) {
  into.registers += inc.registers;
  into.updates += inc.updates;
  into.deregisters += inc.deregisters;
  into.locates += inc.locates;
  into.locates_found += inc.locates_found;
  into.locates_failed += inc.locates_failed;
  into.stale_retries += inc.stale_retries;
  into.transient_retries += inc.transient_retries;
  into.delivery_retries += inc.delivery_retries;
  into.timeout_retries += inc.timeout_retries;
  into.refreshes_triggered += inc.refreshes_triggered;
  into.registration_giveups += inc.registration_giveups;
  into.locate_rpcs += inc.locate_rpcs;
  into.optimistic_locates += inc.optimistic_locates;
  into.locates_coalesced += inc.locates_coalesced;
  into.cache_hits += inc.cache_hits;
  into.cache_misses += inc.cache_misses;
  into.cache_stale_hits += inc.cache_stale_hits;
  into.cache_evictions += inc.cache_evictions;
  into.cache_invalidations += inc.cache_invalidations;
}

void accumulate_platform_stats(platform::PlatformStats& into,
                               const platform::PlatformStats& inc) {
  into.agents_created += inc.agents_created;
  into.agents_disposed += inc.agents_disposed;
  into.migrations_started += inc.migrations_started;
  into.migrations_completed += inc.migrations_completed;
  into.messages_sent += inc.messages_sent;
  into.messages_processed += inc.messages_processed;
  into.messages_bounced += inc.messages_bounced;
  into.rpc_timeouts += inc.rpc_timeouts;
  into.rpc_delivery_failures += inc.rpc_delivery_failures;
  into.batch_flushes += inc.batch_flushes;
  into.messages_coalesced += inc.messages_coalesced;
  // Inbox depth is a per-shard watermark (the worst single inbox anywhere);
  // resident bytes are disjoint per-shard footprints, so the deployment-wide
  // watermark is their sum (each shard's peak is sampled at its own growth
  // points — the sum is a tight upper bound and deterministic).
  into.peak_inbox_depth =
      std::max(into.peak_inbox_depth, inc.peak_inbox_depth);
  into.peak_resident_bytes += inc.peak_resident_bytes;
}

}  // namespace

ExperimentResult run_experiment_sharded(const ExperimentConfig& config) {
  if (config.sampler || config.on_finish || !config.trace_csv_path.empty()) {
    throw std::invalid_argument(
        "run_experiment_sharded: host hooks (sampler/on_finish/trace) are "
        "not supported on the sharded engine");
  }
  if (config.drop_probability != 0.0) {
    throw std::invalid_argument(
        "run_experiment_sharded: fault injection is not supported on the "
        "sharded engine");
  }
  if (config.nodes == 0) {
    throw std::invalid_argument("run_experiment_sharded: nodes must be >= 1");
  }

  util::Rng master(config.seed);

  // Batch-first at scale, mirroring the legacy driver (DESIGN.md §15).
  core::MechanismConfig mechanism = config.mechanism;
  const bool at_scale = mechanism.batch_auto_threshold > 0 &&
                        config.tagents >= mechanism.batch_auto_threshold;
  if (at_scale) mechanism.update_batching = true;

  const std::size_t nodes = config.nodes;
  auto latency_model = net::make_default_lan_model();
  sim::ParallelSimulator::Config engine_config;
  engine_config.lps = nodes;
  engine_config.threads = std::max<std::size_t>(1, config.lp_threads);
  engine_config.lookahead = latency_model->min_latency();
  sim::ParallelSimulator engine(engine_config);

  // Per-shard stacks. Master RNG draw order is fixed and documented: network
  // forks in node order, then TAgent seeds in creation order, then querier
  // seeds in creation order — so results depend only on (config, seed).
  std::vector<std::unique_ptr<net::Network>> networks;
  std::vector<std::unique_ptr<platform::AgentSystem>> systems;
  networks.reserve(nodes);
  systems.reserve(nodes);
  const std::size_t per_shard_hint =
      (config.tagents * 4 + config.queriers * 16 + config.nodes * 8) / nodes +
      256;
  for (std::size_t s = 0; s < nodes; ++s) {
    engine.lp(static_cast<sim::ParallelSimulator::LpId>(s))
        .reserve(per_shard_hint);
    networks.push_back(std::make_unique<net::Network>(
        engine.lp(static_cast<sim::ParallelSimulator::LpId>(s)), nodes,
        net::make_default_lan_model(), master.fork()));

    platform::AgentSystem::Config platform_config;
    platform_config.service_time = config.service_time;
    platform_config.mixed_ids = config.mixed_ids;
    // Globally unique ids across shards: shard s draws from the residue
    // class `counter * nodes + s`.
    platform_config.id_stride = nodes;
    platform_config.id_salt = s;
    if (at_scale) {
      platform_config.reserve_agents =
          (config.tagents + config.queriers) / nodes + config.nodes / nodes +
          16;
    }
    systems.push_back(std::make_unique<platform::AgentSystem>(
        engine.lp(static_cast<sim::ParallelSimulator::LpId>(s)),
        *networks.back(), platform_config));
  }

  std::vector<platform::AgentSystem*> system_ptrs;
  system_ptrs.reserve(nodes);
  for (auto& system : systems) system_ptrs.push_back(system.get());

  // Scheme tier (serial setup), then the shard host and the runtime IAgent
  // spawner, then attach — after this point every cross-node byte goes
  // through engine envelopes.
  std::vector<std::unique_ptr<core::LocationScheme>> schemes =
      build_sharded_schemes(config.scheme, system_ptrs, mechanism);
  EngineShardHost host(engine, systems, schemes);
  for (std::size_t s = 0; s < nodes; ++s) {
    systems[s]->attach_shard_host(host, static_cast<std::uint32_t>(s));
  }
  if (config.scheme == "hash") {
    const net::NodeId hagent_node = 0;  // build_sharded's default placement
    auto* owner_scheme =
        static_cast<core::HashLocationScheme*>(schemes[hagent_node].get());
    owner_scheme->hagent().set_iagent_spawner(
        make_runtime_spawner(engine, systems, schemes, hagent_node));
    if (mechanism.hagent_replication) {
      const auto backup_shard =
          static_cast<std::uint32_t>((hagent_node + nodes / 2) % nodes);
      auto* backup_scheme =
          static_cast<core::HashLocationScheme*>(schemes[backup_shard].get());
      if (core::HAgent* backup = backup_scheme->backup_hagent()) {
        backup->set_iagent_spawner(
            make_runtime_spawner(engine, systems, schemes, backup_shard));
      }
    }
  }
  if (at_scale) {
    for (auto& scheme : schemes) scheme->reserve(config.tagents);
  }

  // The tracked population, spread round-robin across nodes (and so across
  // shards), seeds drawn in population order.
  std::vector<TAgent*> tagents;
  std::vector<platform::AgentId> targets;
  tagents.reserve(config.tagents);
  targets.reserve(config.tagents);
  for (std::size_t i = 0; i < config.tagents; ++i) {
    TAgent::Config tconfig;
    tconfig.residence = config.residence;
    tconfig.exponential_residence = config.exponential_residence;
    tconfig.start_stagger = config.start_stagger;
    tconfig.seed = master.next();
    const auto node = static_cast<net::NodeId>(i % nodes);
    auto& agent =
        systems[node]->create<TAgent>(node, *schemes[node], tconfig);
    tagents.push_back(&agent);
    targets.push_back(agent.id());
  }

  engine.run_until(config.warmup);

  // Measurement phase: closed-loop queriers (stationary — created serially
  // between windows), quota split evenly. The completion count is the only
  // cross-shard mutable shared state, and it is an atomic whose only effect
  // is the stop request the engine applies at a window boundary.
  std::atomic<std::size_t> remaining{config.queriers};
  std::vector<QuerierAgent*> queriers;
  queriers.reserve(config.queriers);
  const std::size_t per_querier =
      config.queriers == 0 ? 0 : config.total_queries / config.queriers;
  for (std::size_t q = 0; q < config.queriers; ++q) {
    QuerierAgent::Config qconfig;
    qconfig.quota = per_querier;
    qconfig.think = config.think;
    qconfig.target_skew = config.target_skew;
    qconfig.seed = master.next();
    const auto node = static_cast<net::NodeId>((q * 3 + 1) % nodes);
    auto& agent = systems[node]->create<QuerierAgent>(
        node, *schemes[node], qconfig, targets, [&remaining, &engine] {
          if (remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
            engine.request_stop();
          }
        });
    queriers.push_back(&agent);
  }

  engine.run_until(config.warmup + config.measure_deadline);

  ExperimentResult result;
  for (const QuerierAgent* querier : queriers) {
    result.location_ms.merge(querier->latencies_ms());
    result.attempts.merge(querier->attempts());
    result.queries_found += querier->found();
    result.queries_failed += querier->failed();
    // Under sharding the ground-truth oracle only sees targets co-resident
    // with the querier's shard (node_of is shard-local), so wrong_location
    // is a deterministic undercount — DESIGN.md §16.
    result.wrong_location += querier->wrong_location();
  }
  for (const TAgent* agent : tagents) {
    result.tagent_moves += agent->moves_completed();
  }

  std::size_t live_agents = 0;
  std::size_t resident_bytes = 0;
  double max_now_seconds = 0.0;
  for (std::size_t s = 0; s < nodes; ++s) {
    result.trackers_at_end += schemes[s]->tracker_count();
    accumulate_scheme_stats(result.scheme_stats, schemes[s]->stats());

    const net::NetworkStats& net_stats = networks[s]->stats();
    result.network_stats.messages_sent += net_stats.messages_sent;
    result.network_stats.messages_delivered += net_stats.messages_delivered;
    result.network_stats.messages_dropped += net_stats.messages_dropped;
    result.network_stats.messages_duplicated += net_stats.messages_duplicated;
    result.network_stats.bytes_sent += net_stats.bytes_sent;

    accumulate_platform_stats(result.platform_stats, systems[s]->stats());
    const platform::MemoryBreakdown memory = systems[s]->memory_breakdown();
    result.platform_stats.memory.agent_records += memory.agent_records;
    result.platform_stats.memory.inboxes += memory.inboxes;
    result.platform_stats.memory.rpc_table += memory.rpc_table;
    result.platform_stats.memory.in_flight += memory.in_flight;
    result.platform_stats.memory.services += memory.services;
    live_agents += systems[s]->live_agent_count();
    resident_bytes += systems[s]->estimated_resident_bytes() +
                      schemes[s]->estimated_resident_bytes();
    const sim::Simulator& lp =
        engine.lp(static_cast<sim::ParallelSimulator::LpId>(s));
    max_now_seconds = std::max(max_now_seconds, lp.now().as_seconds());
    result.sim_resident_bytes += lp.resident_bytes();
  }
  if (live_agents > 0) {
    result.platform_stats.bytes_per_agent =
        static_cast<double>(resident_bytes) /
        static_cast<double>(live_agents);
  }
  result.sim_seconds = max_now_seconds;
  result.events_executed = engine.executed();
  result.lp_windows = engine.windows();
  result.lp_cross_messages = engine.cross_lp_messages();
  result.lp_threads_used = engine.threads();
  return result;
}

}  // namespace agentloc::workload
