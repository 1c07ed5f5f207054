#include "workload/experiment.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/centralized_scheme.hpp"
#include "core/forwarding_scheme.hpp"
#include "core/hash_scheme.hpp"
#include "core/home_scheme.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace agentloc::workload {

std::unique_ptr<core::LocationScheme> make_scheme(
    const std::string& name, platform::AgentSystem& system,
    const core::MechanismConfig& mechanism) {
  if (name == "hash") {
    return std::make_unique<core::HashLocationScheme>(system, mechanism);
  }
  if (name == "centralized") {
    return std::make_unique<core::CentralizedLocationScheme>(system,
                                                             mechanism);
  }
  if (name == "home") {
    return std::make_unique<core::HomeRegistryLocationScheme>(system,
                                                              mechanism);
  }
  if (name == "forwarding") {
    return std::make_unique<core::ForwardingLocationScheme>(system,
                                                            mechanism);
  }
  throw std::invalid_argument("unknown location scheme: " + name);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  util::Rng master(config.seed);

  // Batch-first at scale (DESIGN.md §14): at or above the auto threshold,
  // turn on update batching and pre-size every population-proportional
  // table. Below it nothing changes, so small fixed-seed baselines stay
  // bit-identical.
  core::MechanismConfig mechanism = config.mechanism;
  const bool at_scale = mechanism.batch_auto_threshold > 0 &&
                        config.tagents >= mechanism.batch_auto_threshold;
  if (at_scale) mechanism.update_batching = true;

  sim::Simulator simulator;
  // Pool-size hint: the peak number of *concurrent* pending events is set by
  // in-flight messages and per-agent timers, all proportional to the
  // population; pre-sizing keeps the steady-state sweep from regrowing the
  // event pool or heap mid-run. (A hint only — ×4 covers the steady state
  // without dominating setup memory at million-agent populations.)
  simulator.reserve(config.tagents * 4 + config.queriers * 16 +
                    config.nodes * 8 + 256);
  net::Network network(simulator, config.nodes, net::make_default_lan_model(),
                       master.fork());
  network.faults().drop_probability = config.drop_probability;

  platform::AgentSystem::Config platform_config;
  platform_config.service_time = config.service_time;
  platform_config.mixed_ids = config.mixed_ids;
  if (at_scale) {
    platform_config.reserve_agents =
        config.tagents + config.queriers + config.nodes + 16;
  }
  platform::AgentSystem system(simulator, network, platform_config);

  auto scheme = make_scheme(config.scheme, system, mechanism);
  if (at_scale) scheme->reserve(config.tagents);

  // The tracked population, spread round-robin across nodes.
  std::vector<TAgent*> tagents;
  std::vector<platform::AgentId> targets;
  tagents.reserve(config.tagents);
  for (std::size_t i = 0; i < config.tagents; ++i) {
    TAgent::Config tconfig;
    tconfig.residence = config.residence;
    tconfig.exponential_residence = config.exponential_residence;
    tconfig.start_stagger = config.start_stagger;
    tconfig.seed = master.next();
    auto& agent = system.create<TAgent>(
        static_cast<net::NodeId>(i % config.nodes), *scheme, tconfig);
    tagents.push_back(&agent);
    targets.push_back(agent.id());
  }

  // Optional periodic probe over the whole run.
  std::unique_ptr<sim::PeriodicTimer> sampler;
  if (config.sampler && config.sample_period > sim::SimTime::zero()) {
    sampler = std::make_unique<sim::PeriodicTimer>(
        simulator, config.sample_period,
        [&] { config.sampler(simulator.now(), *scheme); });
    sampler->start();
  }

  simulator.run_until(config.warmup);

  // Measurement phase: closed-loop queriers, quota split evenly.
  TraceLog trace_log;
  std::size_t remaining = config.queriers;
  std::vector<QuerierAgent*> queriers;
  const std::size_t per_querier =
      config.queriers == 0 ? 0 : config.total_queries / config.queriers;
  for (std::size_t q = 0; q < config.queriers; ++q) {
    QuerierAgent::Config qconfig;
    qconfig.quota = per_querier;
    qconfig.think = config.think;
    qconfig.target_skew = config.target_skew;
    qconfig.seed = master.next();
    if (!config.trace_csv_path.empty()) qconfig.trace_log = &trace_log;
    auto& agent = system.create<QuerierAgent>(
        static_cast<net::NodeId>((q * 3 + 1) % config.nodes), *scheme,
        qconfig, targets, [&remaining, &simulator] {
          if (--remaining == 0) simulator.request_stop();
        });
    queriers.push_back(&agent);
  }

  simulator.run_until(config.warmup + config.measure_deadline);

  ExperimentResult result;
  for (const QuerierAgent* querier : queriers) {
    result.location_ms.merge(querier->latencies_ms());
    result.attempts.merge(querier->attempts());
    result.queries_found += querier->found();
    result.queries_failed += querier->failed();
    result.wrong_location += querier->wrong_location();
  }
  for (const TAgent* agent : tagents) {
    result.tagent_moves += agent->moves_completed();
  }
  if (!config.trace_csv_path.empty()) {
    trace_log.write_csv(config.trace_csv_path);
  }
  if (config.on_finish) config.on_finish(*scheme);
  result.trackers_at_end = scheme->tracker_count();
  result.scheme_stats = scheme->stats();
  result.network_stats = network.stats();
  result.platform_stats = system.stats();
  if (system.live_agent_count() > 0) {
    // Whole-mechanism footprint: platform records and inboxes plus the
    // scheme-side tables the platform cannot see into.
    result.platform_stats.bytes_per_agent =
        static_cast<double>(system.estimated_resident_bytes() +
                            scheme->estimated_resident_bytes()) /
        static_cast<double>(system.live_agent_count());
  }
  result.sim_seconds = simulator.now().as_seconds();
  result.events_executed = simulator.executed();
  result.sim_resident_bytes = simulator.resident_bytes();
  return result;
}

std::uint64_t replication_seed(std::uint64_t base_seed, std::size_t r) {
  // Derive from the caller's base seed only — not from a compounding chain —
  // so replication r's stream is the same no matter which other replications
  // ran (or on which thread). The odd constant keeps distinct r values far
  // apart before mixing.
  return util::mix64(base_seed + r * 0x9e3779b97f4a7c15ull);
}

namespace {

/// Merge one replication into the accumulated result. Counters accumulate
/// across repeats so rates computed against the accumulated sim_seconds
/// stay correct.
void merge_replication(ExperimentResult& merged, const ExperimentResult& one) {
  merged.location_ms.merge(one.location_ms);
  merged.attempts.merge(one.attempts);
  merged.queries_found += one.queries_found;
  merged.queries_failed += one.queries_failed;
  merged.wrong_location += one.wrong_location;
  merged.tagent_moves += one.tagent_moves;
  merged.trackers_at_end = one.trackers_at_end;

  core::SchemeStats& scheme = merged.scheme_stats;
  const core::SchemeStats& inc = one.scheme_stats;
  scheme.registers += inc.registers;
  scheme.updates += inc.updates;
  scheme.deregisters += inc.deregisters;
  scheme.locates += inc.locates;
  scheme.locates_found += inc.locates_found;
  scheme.locates_failed += inc.locates_failed;
  scheme.stale_retries += inc.stale_retries;
  scheme.transient_retries += inc.transient_retries;
  scheme.delivery_retries += inc.delivery_retries;
  scheme.timeout_retries += inc.timeout_retries;
  scheme.refreshes_triggered += inc.refreshes_triggered;
  scheme.registration_giveups += inc.registration_giveups;
  scheme.locate_rpcs += inc.locate_rpcs;
  scheme.optimistic_locates += inc.optimistic_locates;
  scheme.locates_coalesced += inc.locates_coalesced;
  scheme.cache_hits += inc.cache_hits;
  scheme.cache_misses += inc.cache_misses;
  scheme.cache_stale_hits += inc.cache_stale_hits;
  scheme.cache_evictions += inc.cache_evictions;
  scheme.cache_invalidations += inc.cache_invalidations;

  merged.network_stats.messages_sent += one.network_stats.messages_sent;
  merged.network_stats.messages_delivered +=
      one.network_stats.messages_delivered;
  merged.network_stats.messages_dropped += one.network_stats.messages_dropped;
  merged.network_stats.messages_duplicated +=
      one.network_stats.messages_duplicated;
  merged.network_stats.bytes_sent += one.network_stats.bytes_sent;

  merged.platform_stats.agents_created += one.platform_stats.agents_created;
  merged.platform_stats.agents_disposed += one.platform_stats.agents_disposed;
  merged.platform_stats.migrations_started +=
      one.platform_stats.migrations_started;
  merged.platform_stats.migrations_completed +=
      one.platform_stats.migrations_completed;
  merged.platform_stats.messages_sent += one.platform_stats.messages_sent;
  merged.platform_stats.messages_processed +=
      one.platform_stats.messages_processed;
  merged.platform_stats.messages_bounced +=
      one.platform_stats.messages_bounced;
  merged.platform_stats.rpc_timeouts += one.platform_stats.rpc_timeouts;
  merged.platform_stats.rpc_delivery_failures +=
      one.platform_stats.rpc_delivery_failures;
  merged.platform_stats.batch_flushes += one.platform_stats.batch_flushes;
  merged.platform_stats.messages_coalesced +=
      one.platform_stats.messages_coalesced;
  // Memory figures are per-replication watermarks, not flows: report the
  // worst replication rather than a meaningless sum.
  merged.platform_stats.peak_inbox_depth =
      std::max(merged.platform_stats.peak_inbox_depth,
               one.platform_stats.peak_inbox_depth);
  merged.platform_stats.bytes_per_agent =
      std::max(merged.platform_stats.bytes_per_agent,
               one.platform_stats.bytes_per_agent);
  merged.platform_stats.peak_resident_bytes =
      std::max(merged.platform_stats.peak_resident_bytes,
               one.platform_stats.peak_resident_bytes);

  merged.sim_resident_bytes =
      std::max(merged.sim_resident_bytes, one.sim_resident_bytes);

  merged.sim_seconds += one.sim_seconds;
  merged.events_executed += one.events_executed;
}

}  // namespace

ExperimentResult run_parallel(const ExperimentConfig& config,
                              std::size_t repeats, std::size_t threads) {
  // Each replication is fully independent: its own seed, its own private
  // Simulator/Network/AgentSystem built inside run_experiment.
  std::vector<ExperimentResult> results(repeats);
  util::parallel_for(repeats, threads, [&](std::size_t r) {
    ExperimentConfig replica = config;
    replica.seed = replication_seed(config.seed, r);
    results[r] = run_experiment(replica);
  });

  // Merge strictly in replication order so the output is bit-identical to
  // the sequential path regardless of completion order.
  ExperimentResult merged;
  for (const ExperimentResult& one : results) merge_replication(merged, one);
  return merged;
}

ExperimentResult run_repeated(const ExperimentConfig& config,
                              std::size_t repeats) {
  // Host callbacks and trace files are not promised thread-safe; run those
  // configs sequentially. Results are identical either way.
  const bool host_hooks = static_cast<bool>(config.sampler) ||
                          static_cast<bool>(config.on_finish) ||
                          !config.trace_csv_path.empty();
  const std::size_t threads =
      host_hooks ? 1 : util::ThreadPool::default_threads();
  return run_parallel(config, repeats, threads);
}

}  // namespace agentloc::workload
