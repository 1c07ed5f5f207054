// run_experiment_sharded: the paper-faithful platform stack sharded across
// the parallel LP engine (DESIGN.md §16). The headline property is the
// determinism contract: for a fixed config and seed, every thread count in
// {1, 2, 4, 8} must produce a bit-for-bit identical ExperimentResult —
// including the scheme, network, and platform counters, and the summed
// per-shard memory watermarks. Suite names carry "Parallel" so the tsan CI
// preset runs them under ThreadSanitizer.

#include "workload/sharded_experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "workload/experiment.hpp"

namespace agentloc::workload {
namespace {

/// Exact equality over everything the determinism contract covers —
/// including the raw per-query latency samples, which makes the comparison
/// bitwise rather than statistical.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      std::size_t threads) {
  EXPECT_EQ(a.location_ms.samples(), b.location_ms.samples())
      << "latency samples diverge at threads=" << threads;
  EXPECT_EQ(a.attempts.samples(), b.attempts.samples()) << threads;
  EXPECT_EQ(a.queries_found, b.queries_found) << threads;
  EXPECT_EQ(a.queries_failed, b.queries_failed) << threads;
  EXPECT_EQ(a.wrong_location, b.wrong_location) << threads;
  EXPECT_EQ(a.tagent_moves, b.tagent_moves) << threads;
  EXPECT_EQ(a.trackers_at_end, b.trackers_at_end) << threads;
  EXPECT_EQ(a.events_executed, b.events_executed) << threads;
  EXPECT_EQ(a.lp_windows, b.lp_windows) << threads;
  EXPECT_EQ(a.lp_cross_messages, b.lp_cross_messages) << threads;
  EXPECT_EQ(a.sim_seconds, b.sim_seconds) << threads;

  EXPECT_EQ(a.scheme_stats.registers, b.scheme_stats.registers) << threads;
  EXPECT_EQ(a.scheme_stats.updates, b.scheme_stats.updates) << threads;
  EXPECT_EQ(a.scheme_stats.locates, b.scheme_stats.locates) << threads;
  EXPECT_EQ(a.scheme_stats.locates_found, b.scheme_stats.locates_found)
      << threads;
  EXPECT_EQ(a.scheme_stats.stale_retries, b.scheme_stats.stale_retries)
      << threads;
  EXPECT_EQ(a.scheme_stats.cache_hits, b.scheme_stats.cache_hits) << threads;
  EXPECT_EQ(a.scheme_stats.cache_stale_hits, b.scheme_stats.cache_stale_hits)
      << threads;
  EXPECT_EQ(a.scheme_stats.optimistic_locates,
            b.scheme_stats.optimistic_locates)
      << threads;

  EXPECT_EQ(a.network_stats.messages_sent, b.network_stats.messages_sent)
      << threads;
  EXPECT_EQ(a.network_stats.bytes_sent, b.network_stats.bytes_sent) << threads;

  EXPECT_EQ(a.platform_stats.migrations_started,
            b.platform_stats.migrations_started)
      << threads;
  EXPECT_EQ(a.platform_stats.migrations_completed,
            b.platform_stats.migrations_completed)
      << threads;
  EXPECT_EQ(a.platform_stats.messages_sent, b.platform_stats.messages_sent)
      << threads;
  EXPECT_EQ(a.platform_stats.messages_bounced,
            b.platform_stats.messages_bounced)
      << threads;
  EXPECT_EQ(a.platform_stats.rpc_delivery_failures,
            b.platform_stats.rpc_delivery_failures)
      << threads;
  EXPECT_EQ(a.platform_stats.peak_inbox_depth,
            b.platform_stats.peak_inbox_depth)
      << threads;
  EXPECT_EQ(a.platform_stats.peak_resident_bytes,
            b.platform_stats.peak_resident_bytes)
      << threads;
  EXPECT_EQ(a.platform_stats.bytes_per_agent,
            b.platform_stats.bytes_per_agent)
      << threads;
}

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.nodes = 16;
  config.tagents = 20;
  config.total_queries = 200;
  config.queriers = 4;
  config.warmup = sim::SimTime::seconds(2);
  config.measure_deadline = sim::SimTime::seconds(120);
  config.seed = 7;
  return config;
}

TEST(ParallelShardedExperimentTest, ProducesPlausibleExperiment1Shape) {
  ExperimentConfig config = small_config();
  config.lp_threads = 2;
  const ExperimentResult result = run_experiment_sharded(config);

  EXPECT_EQ(result.queries_found + result.queries_failed, 200u);
  EXPECT_GT(result.queries_found, 190u) << "most queries should locate";
  EXPECT_GT(result.tagent_moves, 0u);
  EXPECT_GT(result.lp_cross_messages, 0u);
  EXPECT_GT(result.lp_windows, 0u);
  EXPECT_EQ(result.lp_threads_used, 2u);
  // All cross-node traffic goes through the real platform: migrations ran
  // and completed, and the hash mechanism deployed trackers.
  EXPECT_EQ(result.platform_stats.migrations_started,
            result.platform_stats.migrations_completed);
  EXPECT_GE(result.trackers_at_end, 1u);
  // A query is at minimum two RPC round trips over a ~350us LAN plus
  // service time; at most a handful of retries worth.
  EXPECT_GT(result.location_ms.mean(), 1.0);
  EXPECT_LT(result.location_ms.mean(), 100.0);
}

TEST(ParallelShardedExperimentTest, BitIdenticalAcrossThreadCounts) {
  ExperimentConfig config = small_config();
  config.lp_threads = 1;
  const ExperimentResult reference = run_experiment_sharded(config);
  ASSERT_GT(reference.queries_found, 0u);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    config.lp_threads = threads;
    const ExperimentResult result = run_experiment_sharded(config);
    expect_identical(reference, result, threads);
    EXPECT_EQ(result.lp_threads_used, threads);
  }
}

TEST(ParallelShardedExperimentTest, BitIdenticalOnExperiment2StyleSweep) {
  // Experiment II varies residence time (movement rate); cover a fast-
  // moving and a slow-moving point, both with skewed query popularity.
  for (const double residence_ms : {100.0, 1000.0}) {
    ExperimentConfig config = small_config();
    config.residence = sim::SimTime::millis(residence_ms);
    config.target_skew = 0.8;
    config.total_queries = 120;
    config.lp_threads = 1;
    const ExperimentResult reference = run_experiment_sharded(config);

    for (const std::size_t threads : {2u, 8u}) {
      config.lp_threads = threads;
      expect_identical(reference, run_experiment_sharded(config), threads);
    }
  }
}

TEST(ParallelShardedExperimentTest, BitIdenticalWithLocationCacheEnabled) {
  // The cache extension adds cross-shard probe RPCs (optimistic jumps to
  // remote LHAgents) on top of the base protocol; the contract must hold
  // with it on, and the cache must actually engage.
  ExperimentConfig config = small_config();
  config.tagents = 40;
  config.total_queries = 300;
  config.target_skew = 0.8;
  config.mechanism.location_cache.enabled = true;
  config.lp_threads = 1;
  const ExperimentResult reference = run_experiment_sharded(config);
  EXPECT_GT(reference.scheme_stats.cache_hits +
                reference.scheme_stats.cache_misses,
            0u)
      << "the cache should see traffic in this config";

  config.lp_threads = 4;
  expect_identical(reference, run_experiment_sharded(config), 4);
}

TEST(ParallelShardedExperimentTest, HagentReplicationOrderedAcrossShards) {
  // With replication on, the primary (one shard) streams every tree op to
  // the standby (another shard) over the envelope channel; envelope
  // ordering must keep the copies converging — observable as a run where
  // rehashes still happen, queries still resolve, and the whole trajectory
  // stays thread-count-invariant.
  ExperimentConfig config = small_config();
  config.tagents = 60;
  config.total_queries = 300;
  config.queriers = 6;
  config.mechanism.hagent_replication = true;
  config.lp_threads = 1;
  const ExperimentResult reference = run_experiment_sharded(config);
  EXPECT_EQ(reference.queries_found + reference.queries_failed, 300u);
  EXPECT_GT(reference.queries_found, 290u);

  for (const std::size_t threads : {2u, 4u}) {
    config.lp_threads = threads;
    expect_identical(reference, run_experiment_sharded(config), threads);
  }
}

TEST(ParallelShardedExperimentTest, BaselineSchemesRunShardedAndDeterministic) {
  for (const std::string scheme : {"centralized", "home", "forwarding"}) {
    ExperimentConfig config = small_config();
    config.scheme = scheme;
    config.total_queries = 120;
    config.lp_threads = 1;
    const ExperimentResult reference = run_experiment_sharded(config);
    EXPECT_GT(reference.queries_found, 110u) << scheme;

    config.lp_threads = 4;
    expect_identical(reference, run_experiment_sharded(config), 4);
  }
}

TEST(ParallelShardedExperimentTest, SumsPerShardMemoryWatermarks) {
  // Satellite contract: peak_resident_bytes aggregates the per-shard
  // watermarks as a SUM (disjoint footprints), not a max, and the
  // bytes-per-agent figure covers platform plus scheme state.
  ExperimentConfig config = small_config();
  config.lp_threads = 2;
  const ExperimentResult result = run_experiment_sharded(config);

  EXPECT_GT(result.platform_stats.peak_resident_bytes, 0u);
  EXPECT_GT(result.platform_stats.bytes_per_agent, 0.0);
  EXPECT_GE(result.platform_stats.peak_inbox_depth, 1u);
  // 16 shards each hold at least an agent-record slab and an inbox pool;
  // the sum must dominate any plausible single-shard footprint for this
  // population (each shard's own slab alone is >1 KiB).
  EXPECT_GT(result.platform_stats.peak_resident_bytes, 16u * 1024u);
  EXPECT_GT(result.platform_stats.memory.total(), 0u);
  // Every shard's simulator holds records and pending entries; their sum
  // is reported apart from the platform estimate.
  EXPECT_GT(result.sim_resident_bytes, 0u);
}

TEST(ParallelShardedExperimentTest, DispatchesFromRunExperiment) {
  ExperimentConfig config = small_config();
  config.total_queries = 80;
  config.lp_threads = 2;
  const ExperimentResult direct = run_experiment_sharded(config);
  const ExperimentResult dispatched = run_experiment(config);
  expect_identical(direct, dispatched, 2);
  EXPECT_EQ(dispatched.lp_threads_used, 2u);
}

TEST(ParallelShardedExperimentTest, ComparableToLegacyEngineSemantics) {
  // Not bitwise (per-shard RNG streams necessarily differ from the global
  // stream — the documented contract), but the physics must agree: same
  // query count, near-total success, same latency regime.
  ExperimentConfig config = small_config();
  const ExperimentResult legacy = run_experiment(config);
  config.lp_threads = 1;
  const ExperimentResult sharded = run_experiment_sharded(config);

  EXPECT_EQ(legacy.queries_found + legacy.queries_failed,
            sharded.queries_found + sharded.queries_failed);
  EXPECT_GT(sharded.queries_found, 190u);
  EXPECT_GT(legacy.queries_found, 190u);
  const double ratio =
      sharded.location_ms.mean() / (legacy.location_ms.mean() + 1e-9);
  EXPECT_GT(ratio, 0.5) << "sharded latency regime diverged from legacy";
  EXPECT_LT(ratio, 2.0) << "sharded latency regime diverged from legacy";
}

TEST(ParallelShardedExperimentTest, RejectsUnsupportedHostHooks) {
  ExperimentConfig config = small_config();
  config.lp_threads = 2;
  config.drop_probability = 0.1;
  EXPECT_THROW(run_experiment_sharded(config), std::invalid_argument);

  config = small_config();
  config.lp_threads = 2;
  config.trace_csv_path = "/tmp/never-written.csv";
  EXPECT_THROW(run_experiment_sharded(config), std::invalid_argument);

  config = small_config();
  config.lp_threads = 2;
  config.on_finish = [](core::LocationScheme&) {};
  EXPECT_THROW(run_experiment_sharded(config), std::invalid_argument);

  config = small_config();
  config.lp_threads = 2;
  config.sampler = [](sim::SimTime, core::LocationScheme&) {};
  EXPECT_THROW(run_experiment_sharded(config), std::invalid_argument);
}

}  // namespace
}  // namespace agentloc::workload
