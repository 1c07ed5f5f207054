// Million-agent capacity sweep (ROADMAP item 1, DESIGN.md §14): one
// fixed-seed experiment per {tagents} × {nodes} cell, reporting wall-clock
// events/second, locate latency, and whole-mechanism bytes-per-agent.
//
// Every cell runs the batch-first-at-scale configuration the harness now
// applies automatically (`MechanismConfig::batch_auto_threshold`): update
// batching on, platform and scheme tables pre-sized for the population, and
// the primary hash copy pre-split so registration never funnels through one
// IAgent inbox. Adaptive rehashing is parked (Tmax huge, Tmin 0) — this
// bench measures capacity of the storage and update paths, not the
// adaptation loop (bench_adaptation covers that).
//
// The per-query latencies, event counts, and byte watermarks are
// sim-deterministic for a given seed; only the wall-clock throughput
// (`items_per_second`, the value the regression gate tracks with its usual
// threshold) varies by host.
//
// Flags: --smoke              (≤50k-agent PR-gate subset)
//        --tagents-list=10000,100000,1000000 --nodes-list=64,256,1024
//        --queries=2000 --seed=1 --json-out=BENCH_scale.json

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "workload/experiment.hpp"
#include "workload/report.hpp"

using namespace agentloc;
using workload::ExperimentConfig;
using workload::ExperimentResult;

namespace {

ExperimentConfig cell_config(std::size_t tagents, std::size_t nodes,
                             std::size_t queries, std::uint64_t seed) {
  ExperimentConfig config;
  config.scheme = "hash";
  config.nodes = nodes;
  config.tagents = tagents;
  config.total_queries = queries;
  config.queriers = 8;
  config.think = sim::SimTime::millis(10);
  // Long dwell: mobility ticks along during measurement without the update
  // stream (rather than storage) dominating the event count.
  config.residence = sim::SimTime::seconds(120);
  config.warmup = sim::SimTime::seconds(20);
  // Spread admission across most of the warmup: the platform's RPC,
  // in-flight, and inbox tables then size for steady state instead of for
  // one synchronized all-agents-at-t0 registration spike.
  config.start_stagger = sim::SimTime::seconds(15);
  config.measure_deadline = sim::SimTime::seconds(120);
  config.seed = seed;
  // 50 µs per message: a registration burst of the whole population must
  // drain through the pre-split IAgents well inside the RPC deadline (at the
  // default Aglets-era 4 ms, a million registrations would be a saturation
  // experiment, not a capacity one).
  config.service_time = sim::SimTime::micros(50);
  // Park adaptive rehashing; start at the capacity the population needs.
  config.mechanism.t_max = 1e12;
  config.mechanism.t_min = 0.0;
  config.mechanism.initial_iagents = tagents / 4096 + 1;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const auto default_tagents =
      smoke ? std::vector<std::int64_t>{10'000, 50'000}
            : std::vector<std::int64_t>{10'000, 100'000, 1'000'000};
  const auto default_nodes = smoke ? std::vector<std::int64_t>{64, 256}
                                   : std::vector<std::int64_t>{64, 256, 1024};
  const auto tagents_list = flags.get_int_list("tagents-list", default_tagents);
  const auto nodes_list = flags.get_int_list("nodes-list", default_nodes);
  const auto queries =
      static_cast<std::size_t>(flags.get_int("queries", 2000));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_out =
      flags.get_string("json-out", smoke ? "BENCH_scale_smoke.json"
                                         : "BENCH_scale.json");

  std::printf("Capacity sweep%s: queries=%zu seed=%llu\n\n",
              smoke ? " (smoke)" : "", queries,
              static_cast<unsigned long long>(seed));

  workload::Table table({"tagents", "nodes", "wall s", "events/s", "found",
                         "locate p95 ms", "B/agent", "peak MiB", "sim MiB",
                         "trackers", "coalesced"});
  util::BenchReport report("scale");
  double worst_bytes_per_agent = 0.0;
  std::size_t worst_peak_bytes = 0;
  std::size_t worst_sim_bytes = 0;

  for (const std::int64_t tagents : tagents_list) {
    for (const std::int64_t nodes : nodes_list) {
      if (tagents < 1 || nodes < 1) continue;
      const ExperimentConfig config =
          cell_config(static_cast<std::size_t>(tagents),
                      static_cast<std::size_t>(nodes), queries, seed);
      const auto start = std::chrono::steady_clock::now();
      const ExperimentResult result = workload::run_experiment(config);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const double events_per_sec =
          wall > 0 ? static_cast<double>(result.events_executed) / wall : 0.0;
      const platform::PlatformStats& platform = result.platform_stats;
      worst_bytes_per_agent =
          std::max(worst_bytes_per_agent, platform.bytes_per_agent);
      worst_peak_bytes =
          std::max(worst_peak_bytes, platform.peak_resident_bytes);
      worst_sim_bytes = std::max(worst_sim_bytes, result.sim_resident_bytes);

      table.add_row(
          {workload::fmt_count(static_cast<std::uint64_t>(tagents)),
           std::to_string(nodes), workload::fmt(wall, 2),
           workload::fmt_count(static_cast<std::uint64_t>(events_per_sec)),
           workload::fmt_count(result.queries_found),
           workload::fmt(result.location_ms.percentile(95.0), 2),
           workload::fmt(platform.bytes_per_agent, 1),
           workload::fmt(static_cast<double>(platform.peak_resident_bytes) /
                             (1024.0 * 1024.0),
                         1),
           workload::fmt(static_cast<double>(result.sim_resident_bytes) /
                             (1024.0 * 1024.0),
                         1),
           std::to_string(result.trackers_at_end),
           workload::fmt_count(platform.messages_coalesced)});
      report.add_row()
          .set("name", "scale/tagents=" + std::to_string(tagents) +
                           "/nodes=" + std::to_string(nodes))
          .set("tagents", static_cast<std::uint64_t>(tagents))
          .set("nodes", static_cast<std::uint64_t>(nodes))
          .set("wall_seconds", wall)
          .set("events", result.events_executed)
          .set("items_per_second", events_per_sec)
          .set("queries_found", result.queries_found)
          .set("queries_failed", result.queries_failed)
          .set("wrong_location", result.wrong_location)
          .set("tagent_moves", result.tagent_moves)
          .set("trackers", static_cast<std::uint64_t>(result.trackers_at_end))
          .set("updates_coalesced", platform.messages_coalesced)
          .set("batch_flushes", platform.batch_flushes)
          .set("bytes_per_agent", platform.bytes_per_agent)
          .set("peak_resident_bytes",
               static_cast<std::uint64_t>(platform.peak_resident_bytes))
          .set("sim_resident_bytes",
               static_cast<std::uint64_t>(result.sim_resident_bytes))
          .add_summary("location_ms", result.location_ms);
      std::fflush(stdout);
    }
  }

  std::printf("%s\n", table.str().c_str());

  report.meta()
      .set("queries", static_cast<std::uint64_t>(queries))
      .set("seed", seed)
      .set("smoke", smoke ? std::int64_t{1} : std::int64_t{0})
      // Worst cell in the sweep: the values the lower-is-better gate tracks.
      .set("bytes_per_agent", worst_bytes_per_agent)
      .set("peak_resident_bytes",
           static_cast<std::uint64_t>(worst_peak_bytes))
      .set("sim_resident_bytes", static_cast<std::uint64_t>(worst_sim_bytes));
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
