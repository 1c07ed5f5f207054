// Experiment I (paper §5, Figure 7): average location time vs. number of
// TAgents, centralized scheme vs. the hash-based mechanism.
//
// Paper setup (digits reconstructed in DESIGN.md §5): TAgent counts
// {10, 20, 30, 50, 100}, each TAgent staying 0.5 s per node, 2000 location
// queries, Tmax/Tmin = 50/5 msg/s. The paper's finding to reproduce: the
// centralized scheme's location time grows (roughly linearly) with the
// number of TAgents while the hash mechanism stays almost constant.
//
// Flags: --agents=10,20,30,50,100 --queries=2000 --repeats=2 --nodes=16
//        --residence-ms=500 --seed=1 --schemes=centralized,hash
//        --threads=0 (0 = one worker per hardware thread)
//        --json-out=BENCH_experiment1.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "workload/experiment.hpp"
#include "workload/report.hpp"

using namespace agentloc;
using workload::ExperimentConfig;
using workload::ExperimentResult;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto agent_counts =
      flags.get_int_list("agents", {10, 20, 30, 50, 100});
  const auto queries = static_cast<std::size_t>(flags.get_int("queries", 2000));
  const auto repeats = static_cast<std::size_t>(flags.get_int("repeats", 2));
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 16));
  const double residence_ms = flags.get_double("residence-ms", 500.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  std::size_t threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  if (threads == 0) threads = util::ThreadPool::default_threads();
  const std::string json_out =
      flags.get_string("json-out", "BENCH_experiment1.json");
  const std::string schemes_flag =
      flags.get_string("schemes", "centralized,hash");

  std::vector<std::string> schemes;
  for (std::size_t pos = 0; pos <= schemes_flag.size();) {
    const auto comma = schemes_flag.find(',', pos);
    const auto end = comma == std::string::npos ? schemes_flag.size() : comma;
    if (end > pos) schemes.push_back(schemes_flag.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::printf(
      "Experiment I (Figure 7): location time vs. number of TAgents\n"
      "residence=%.0fms queries=%zu repeats=%zu nodes=%zu\n\n",
      residence_ms, queries, repeats, nodes);

  workload::Table table({"scheme", "tagents", "location ms (mean)", "p95 ms",
                         "trackers", "found", "failed", "stale retries"});
  std::vector<std::pair<std::string, double>> series;

  util::BenchReport report("experiment1");
  std::uint64_t total_events = 0;
  double total_wall = 0.0;
  double max_bytes_per_agent = 0.0;
  std::size_t max_peak_inbox = 0;

  for (const std::string& scheme : schemes) {
    for (const std::int64_t count : agent_counts) {
      ExperimentConfig config;
      config.scheme = scheme;
      config.nodes = nodes;
      config.tagents = static_cast<std::size_t>(count);
      config.residence = sim::SimTime::millis(residence_ms);
      config.total_queries = queries;
      config.seed = seed;
      const auto start = std::chrono::steady_clock::now();
      const ExperimentResult result =
          workload::run_parallel(config, repeats, threads);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      total_events += result.events_executed;
      total_wall += wall;
      max_bytes_per_agent = std::max(max_bytes_per_agent,
                                     result.platform_stats.bytes_per_agent);
      max_peak_inbox = std::max(max_peak_inbox,
                                result.platform_stats.peak_inbox_depth);

      table.add_row({scheme, std::to_string(count),
                     workload::fmt(result.location_ms.mean()),
                     workload::fmt(result.location_ms.percentile(95)),
                     std::to_string(result.trackers_at_end),
                     workload::fmt_count(result.queries_found),
                     workload::fmt_count(result.queries_failed),
                     workload::fmt_count(result.scheme_stats.stale_retries)});
      series.emplace_back(scheme + " n=" + std::to_string(count),
                          result.location_ms.mean());
      report.add_row()
          .set("scheme", scheme)
          .set("tagents", static_cast<std::int64_t>(count))
          .set("threads", static_cast<std::uint64_t>(threads))
          .set("wall_seconds", wall)
          .set("events", result.events_executed)
          .set("events_per_sec",
               wall > 0 ? static_cast<double>(result.events_executed) / wall
                        : 0.0)
          .set("queries_found", result.queries_found)
          .set("queries_failed", result.queries_failed)
          .set("registration_giveups",
               result.scheme_stats.registration_giveups)
          .set("trackers", static_cast<std::uint64_t>(result.trackers_at_end))
          .set("bytes_per_agent", result.platform_stats.bytes_per_agent)
          .set("peak_inbox_depth",
               static_cast<std::uint64_t>(
                   result.platform_stats.peak_inbox_depth))
          .add_summary("location_ms", result.location_ms);
      std::fflush(stdout);
    }
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("Figure 7 shape (mean location time, ms):\n%s\n",
              workload::ascii_series(series).c_str());
  std::printf(
      "Expected shape (paper): centralized grows with the number of "
      "TAgents;\nthe hash mechanism stays almost constant.\n");

  report.meta()
      .set("repeats", static_cast<std::uint64_t>(repeats))
      .set("threads", static_cast<std::uint64_t>(threads))
      .set("hardware_threads",
           static_cast<std::uint64_t>(util::ThreadPool::default_threads()))
      .set("queries", static_cast<std::uint64_t>(queries))
      .set("nodes", static_cast<std::uint64_t>(nodes))
      .set("wall_seconds", total_wall)
      .set("events", total_events)
      .set("events_per_sec",
           total_wall > 0 ? static_cast<double>(total_events) / total_wall
                          : 0.0)
      .set("bytes_per_agent", max_bytes_per_agent)
      .set("peak_inbox_depth", static_cast<std::uint64_t>(max_peak_inbox));
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
