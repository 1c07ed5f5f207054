#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/scheme.hpp"
#include "net/network.hpp"
#include "util/summary.hpp"

namespace agentloc::workload {

/// Everything that defines one experiment run. Defaults reproduce the
/// paper's setup as reconstructed in DESIGN.md §5.
struct ExperimentConfig {
  /// "hash", "centralized", "home", or "forwarding".
  std::string scheme = "hash";

  std::size_t nodes = 16;
  std::size_t tagents = 20;
  sim::SimTime residence = sim::SimTime::millis(500);
  bool exponential_residence = true;

  /// Admission spread for the tracked population: each TAgent registers
  /// after a per-agent uniform delay in [0, start_stagger] rather than at
  /// t = 0 (see TAgent::Config::start_stagger). Keep it well inside
  /// `warmup` so measurement starts with the whole population registered.
  sim::SimTime start_stagger = sim::SimTime::zero();

  std::size_t total_queries = 2000;
  std::size_t queriers = 4;
  sim::SimTime think = sim::SimTime::millis(100);
  double target_skew = 0.0;

  /// Simulated time before measurement starts (lets mobility, registration
  /// and rehashing reach steady state).
  sim::SimTime warmup = sim::SimTime::seconds(60);

  /// Hard stop for the measured phase.
  sim::SimTime measure_deadline = sim::SimTime::seconds(600);

  std::uint64_t seed = 1;

  /// Per-message CPU time at every agent, calibrated to Aglets-era Java
  /// messaging (DESIGN.md §5). At this value the centralized tracker nears
  /// saturation at the top of Experiment I's sweep — the regime whose
  /// queueing delay the paper's Figures 7-8 plot.
  sim::SimTime service_time = sim::SimTime::micros(4000);

  core::MechanismConfig mechanism;

  /// Message drop probability (robustness experiments; 0 in the paper's).
  double drop_probability = 0.0;

  /// Platform id policy: mixed (uniform bits — the default, and what the
  /// mechanism's extendible hashing assumes) or sequential (adversarially
  /// skewed prefixes; see the id-distribution ablation).
  bool mixed_ids = true;

  /// Optional periodic probe during the whole run (e.g. sample the IAgent
  /// count for the adaptation bench).
  sim::SimTime sample_period = sim::SimTime::zero();
  std::function<void(sim::SimTime, core::LocationScheme&)> sampler;

  /// Optional inspection hook invoked right before teardown.
  std::function<void(core::LocationScheme&)> on_finish;

  /// When non-empty, write every measured query as CSV to this path.
  std::string trace_csv_path;
};

/// What one run produced.
struct ExperimentResult {
  /// Per-query location time in milliseconds — the paper's metric.
  util::Summary location_ms;
  util::Summary attempts;

  std::uint64_t queries_found = 0;
  std::uint64_t queries_failed = 0;
  std::uint64_t wrong_location = 0;

  std::size_t trackers_at_end = 0;
  core::SchemeStats scheme_stats;
  net::NetworkStats network_stats;
  platform::PlatformStats platform_stats;

  std::uint64_t tagent_moves = 0;
  double sim_seconds = 0.0;
  std::uint64_t events_executed = 0;
  /// The simulator's own footprint (`Simulator::resident_bytes`: event
  /// records plus the pending set) at the end of the run. Kept apart from
  /// `platform_stats.peak_resident_bytes`, which estimates the platform and
  /// scheme only.
  std::size_t sim_resident_bytes = 0;
};

/// Build a scheme by name (throws on unknown names).
std::unique_ptr<core::LocationScheme> make_scheme(
    const std::string& name, platform::AgentSystem& system,
    const core::MechanismConfig& mechanism);

/// Run one experiment to completion and collect the result.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Seed for replication `r` of a sweep with base seed `base_seed`. Each
/// replication's seed depends only on (base_seed, r) — never on how many
/// replications ran before it — so any subset of replications can be
/// re-run, reordered, or farmed out to threads and still replay
/// bit-identically.
std::uint64_t replication_seed(std::uint64_t base_seed, std::size_t r);

/// Run `repeats` seeds and merge the per-query samples in replication
/// order. Replications run on a thread pool sized to the hardware (each one
/// owns its private Simulator/Network/AgentSystem); the merged result is
/// bit-identical to the sequential path. Falls back to sequential when the
/// config carries host callbacks (sampler/on_finish) or a trace path, which
/// the harness does not promise to invoke thread-safely.
ExperimentResult run_repeated(const ExperimentConfig& config,
                              std::size_t repeats);

/// Same as `run_repeated` but with an explicit worker count; `threads <= 1`
/// runs strictly sequentially on the calling thread.
ExperimentResult run_parallel(const ExperimentConfig& config,
                              std::size_t repeats, std::size_t threads);

}  // namespace agentloc::workload
