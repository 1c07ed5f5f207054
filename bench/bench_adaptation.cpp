// Ablation A5: adaptation to an unpredictable load change (paper §5: "if at
// some point a large number of mobile agents is created … or their moving
// rate changes unpredictably, our mechanism will adapt nicely by changing
// appropriately the hash function").
//
// One run, three phases: calm (residence 2 s) → storm (residence 100 ms) →
// calm again. The bench samples the IAgent population every 2 s and prints
// the time series: it should rise during the storm and merge back down
// afterwards, while per-phase location times stay flat.
//
// Flags: --tagents=40 --phase-s=60 --nodes=16 --seed=1
//        --json-out=BENCH_adaptation.json

#include <cstdio>
#include <string>
#include <vector>

#include "core/hash_scheme.hpp"
#include "platform/agent_system.hpp"
#include "sim/timer.hpp"
#include "util/bench_report.hpp"
#include "util/flags.hpp"
#include "util/summary.hpp"
#include "workload/querier.hpp"
#include "workload/report.hpp"
#include "workload/tagent.hpp"

using namespace agentloc;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto tagents = static_cast<std::size_t>(flags.get_int("tagents", 40));
  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes", 16));
  const double phase_s = flags.get_double("phase-s", 60.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_out =
      flags.get_string("json-out", "BENCH_adaptation.json");

  util::Rng master(seed);
  sim::Simulator simulator;
  net::Network network(simulator, nodes, net::make_default_lan_model(),
                       master.fork());
  platform::AgentSystem::Config platform_config;
  platform_config.service_time = sim::SimTime::micros(4000);
  platform::AgentSystem system(simulator, network, platform_config);

  core::MechanismConfig mechanism;
  core::HashLocationScheme scheme(system, mechanism);

  const sim::SimTime calm = sim::SimTime::seconds(2);
  const sim::SimTime storm = sim::SimTime::millis(100);

  std::vector<workload::TAgent*> population;
  std::vector<platform::AgentId> targets;
  for (std::size_t i = 0; i < tagents; ++i) {
    workload::TAgent::Config config;
    config.residence = calm;
    config.seed = master.next();
    auto& agent = system.create<workload::TAgent>(
        static_cast<net::NodeId>(i % nodes), scheme, config);
    population.push_back(&agent);
    targets.push_back(agent.id());
  }

  // A background querier keeps measuring location time across phases.
  workload::QuerierAgent::Config querier_config;
  querier_config.quota = 0;  // unlimited; we stop the run by deadline
  querier_config.think = sim::SimTime::millis(200);
  querier_config.seed = master.next();
  auto& querier =
      system.create<workload::QuerierAgent>(1, scheme, querier_config, targets);

  std::printf(
      "Ablation A5: IAgent population under a mobility step\n"
      "phases: calm (2000 ms dwell) -> storm (100 ms) -> calm; %zu TAgents\n\n",
      tagents);
  std::printf("%8s %10s %9s %14s\n", "t (s)", "phase", "IAgents",
              "splits/merges");

  const sim::SimTime t1 = sim::SimTime::seconds(phase_s);
  const sim::SimTime t2 = sim::SimTime::seconds(2 * phase_s);
  const sim::SimTime t3 = sim::SimTime::seconds(3 * phase_s);

  sim::PeriodicTimer sampler(simulator, sim::SimTime::seconds(4), [&] {
    const char* phase = simulator.now() < t1   ? "calm"
                        : simulator.now() < t2 ? "STORM"
                                               : "calm";
    const auto& stats = scheme.hagent().stats();
    std::printf("%8.0f %10s %9zu %10llu/%llu\n",
                simulator.now().as_seconds(), phase,
                scheme.hagent().iagent_count(),
                static_cast<unsigned long long>(stats.simple_splits +
                                                stats.complex_splits),
                static_cast<unsigned long long>(stats.simple_merges +
                                                stats.complex_merges));
  });
  sampler.start();

  std::size_t peak_calm = 0;
  std::size_t peak_storm = 0;

  simulator.run_until(t1);
  peak_calm = scheme.hagent().iagent_count();
  const util::Summary calm_latency = querier.latencies_ms();

  for (auto* agent : population) agent->set_residence(storm);
  simulator.run_until(t2);
  peak_storm = scheme.hagent().iagent_count();

  for (auto* agent : population) agent->set_residence(calm);
  simulator.run_until(t3);
  const std::size_t settled = scheme.hagent().iagent_count();

  util::Summary storm_latency = querier.latencies_ms();

  std::printf("\nphase summary:\n");
  std::printf("  IAgents: calm %zu -> storm %zu -> settled %zu\n", peak_calm,
              peak_storm, settled);
  std::printf("  location time: calm mean %.2f ms; overall mean %.2f ms "
              "(n=%zu)\n",
              calm_latency.mean(), storm_latency.mean(),
              storm_latency.count());
  std::printf(
      "\nExpected shape (paper §5): the IAgent population rises under the "
      "storm and\nmerges back afterwards; location time stays almost "
      "constant throughout.\n");

  util::BenchReport report("adaptation");
  report.meta()
      .set("tagents", static_cast<std::uint64_t>(tagents))
      .set("nodes", static_cast<std::uint64_t>(nodes))
      .set("phase_s", phase_s)
      .set("seed", seed);
  const auto& stats = scheme.hagent().stats();
  report.add_row()
      .set("iagents_calm", static_cast<std::uint64_t>(peak_calm))
      .set("iagents_storm", static_cast<std::uint64_t>(peak_storm))
      .set("iagents_settled", static_cast<std::uint64_t>(settled))
      .set("splits", stats.simple_splits + stats.complex_splits)
      .set("merges", stats.simple_merges + stats.complex_merges)
      .add_summary("calm_ms", calm_latency)
      .add_summary("overall_ms", storm_latency);
  const std::string written = report.write(json_out);
  if (written.empty()) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", written.c_str());
  return 0;
}
