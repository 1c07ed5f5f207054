// The three simulator workloads. Each round builds and runs the paper's
// stack (Simulator, Network, AgentSystem, a LocationScheme, TAgents and
// queriers) exactly as workload::run_experiment assembles it, with two
// differences that only the benchmark needs: the querier seeds come from the
// benchmark seed, apart from the population's, and the clock is read at the
// warmup boundary so set-up and measured time are reported apart. The
// simulator is advanced in slices of simulated time so the tracker count can
// be sampled between them; slicing does not change what the simulator does.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/hash_scheme.hpp"
#include "core/iagent.hpp"
#include "hashtree/router.hpp"
#include "layer_costs.hpp"
#include "net/latency.hpp"
#include "platform/agent_system.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload/experiment.hpp"
#include "workload/querier.hpp"
#include "workload/tagent.hpp"

namespace perfbench {

using namespace agentloc;
using workload::ExperimentConfig;

namespace {

/// Counts the program's WARN/ERROR lines through the logger's public sink.
/// "registration … gave up" lines are failed registrations (the TAgent stays
/// untracked until its first move); other lines pass through to stderr.
class LogCounter {
 public:
  LogCounter() {
    util::Logger::instance().set_sink(
        [this](util::LogLevel, std::string_view line) {
          if (line.find("hash-scheme: registration for agent") !=
                  std::string_view::npos &&
              line.find("gave up") != std::string_view::npos) {
            ++giveups;
            return;
          }
          ++other;
          if (other <= 20) {
            std::fprintf(stderr, "%.*s\n", static_cast<int>(line.size()),
                         line.data());
          }
        });
  }
  ~LogCounter() { util::Logger::instance().set_sink(nullptr); }
  LogCounter(const LogCounter&) = delete;
  LogCounter& operator=(const LogCounter&) = delete;

  std::uint64_t giveups = 0;
  std::uint64_t other = 0;
};

/// Everything one simulated experiment produced.
struct CellRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  util::Summary location_ms;
  util::Summary attempts;
  std::uint64_t issued = 0;
  std::uint64_t found = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_location = 0;
  std::uint64_t registrations = 0;
  std::uint64_t giveups = 0;
  std::uint64_t other_warnings = 0;
  std::uint64_t moves = 0;
  std::uint64_t moves_measured = 0;
  core::SchemeStats scheme;
  core::SchemeStats scheme_at_warmup;
  net::NetworkStats network;
  platform::PlatformStats platform;
  platform::PlatformStats platform_at_warmup;
  std::uint64_t events = 0;
  std::uint64_t events_at_warmup = 0;
  std::size_t pending_at_warmup = 0;
  double sim_seconds = 0.0;
  std::size_t leaves_end = 0;
  std::size_t leaves_max = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t mutations_measured = 0;  ///< splits + merges after warmup
  std::size_t resident_estimate = 0;  ///< platform + scheme, at the end
  std::optional<hashtree::HashTree> tree;  ///< hash scheme, traced rounds
  std::size_t entries_per_iagent = 0;
};

std::uint64_t tagent_moves(const std::vector<workload::TAgent*>& tagents) {
  std::uint64_t moves = 0;
  for (const workload::TAgent* agent : tagents) {
    moves += agent->moves_completed();
  }
  return moves;
}

/// Advance to `deadline` in slices of `slice`, calling `between` after
/// each; stops early when `done` turns true.
template <typename Between, typename Done>
void run_sliced(sim::Simulator& simulator, sim::SimTime deadline,
                sim::SimTime slice, Between&& between, Done&& done) {
  while (simulator.now() < deadline && !done()) {
    simulator.run_until(std::min(deadline, simulator.now() + slice));
    between();
  }
}

/// Checks run after the measured phase of the hash scheme: mobility pauses,
/// in-flight updates and handoffs drain, then the router holds 2L−1 live
/// entries and the IAgents hold one entry per registered TAgent.
void check_hash_invariants(sim::Simulator& simulator,
                           platform::AgentSystem& system,
                           core::HashLocationScheme& scheme,
                           const std::vector<workload::TAgent*>& tagents,
                           Round& round) {
  for (workload::TAgent* agent : tagents) agent->set_mobile(false);
  const sim::SimTime settle = simulator.now() + sim::SimTime::seconds(5);
  const sim::SimTime limit = settle + sim::SimTime::seconds(120);
  while (simulator.now() < limit &&
         (simulator.now() < settle || scheme.hagent().rehash_in_progress())) {
    simulator.run_until(simulator.now() + sim::SimTime::millis(100));
  }
  round.check(!scheme.hagent().rehash_in_progress(),
              "a rehash was still in progress after the drain");

  const hashtree::HashTree& tree = scheme.hagent().tree();
  try {
    tree.validate();
  } catch (const std::exception& error) {
    round.check(false, std::string("hash tree invalid: ") + error.what());
  }
  const std::size_t leaves = tree.leaf_count();
  round.check(tree.router().live_entries() == 2 * leaves - 1,
              "router live_entries " +
                  std::to_string(tree.router().live_entries()) +
                  " != 2L-1 for L=" + std::to_string(leaves));
  round.check(scheme.tracker_count() == leaves,
              "tracker count differs from the hash tree's leaf count");

  std::size_t entries = 0;
  for (const hashtree::IAgentId leaf : tree.leaves()) {
    auto* iagent = dynamic_cast<core::IAgent*>(system.find(leaf));
    round.check(iagent != nullptr, "hash-tree leaf without a live IAgent");
    if (iagent != nullptr) entries += iagent->entry_count();
  }
  std::size_t registered = 0;
  for (const workload::TAgent* agent : tagents) {
    if (agent->registered() || agent->moves_completed() > 0) ++registered;
  }
  round.check(entries == registered,
              "IAgent entries " + std::to_string(entries) +
                  " != registered TAgents " + std::to_string(registered));
}

/// One experiment: `config.seed` seeds the population and the network (as
/// run_experiment does); `query_seed` seeds the queriers.
CellRun run_cell(const ExperimentConfig& config, std::uint64_t query_seed,
                 bool keep_tree, bool check_invariants, Round& round) {
  CellRun out;
  LogCounter log;
  const auto start = Clock::now();
  util::Rng master(config.seed);

  core::MechanismConfig mechanism = config.mechanism;
  const bool at_scale = mechanism.batch_auto_threshold > 0 &&
                        config.tagents >= mechanism.batch_auto_threshold;
  if (at_scale) mechanism.update_batching = true;

  sim::Simulator simulator;
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
  auto scheme = workload::make_scheme(config.scheme, system, mechanism);
  if (at_scale) scheme->reserve(config.tagents);
  auto* hash = dynamic_cast<core::HashLocationScheme*>(scheme.get());

  std::vector<workload::TAgent*> tagents;
  std::vector<platform::AgentId> targets;
  tagents.reserve(config.tagents);
  targets.reserve(config.tagents);
  for (std::size_t i = 0; i < config.tagents; ++i) {
    workload::TAgent::Config tconfig;
    tconfig.residence = config.residence;
    tconfig.exponential_residence = config.exponential_residence;
    tconfig.start_stagger = config.start_stagger;
    tconfig.seed = master.next();
    auto& agent = system.create<workload::TAgent>(
        static_cast<net::NodeId>(i % config.nodes), *scheme, tconfig);
    tagents.push_back(&agent);
    targets.push_back(agent.id());
  }

  const sim::SimTime slice = sim::SimTime::seconds(1);
  auto sample = [&] {
    out.leaves_max = std::max(out.leaves_max, scheme->tracker_count());
  };
  run_sliced(simulator, config.warmup, slice, sample, [] { return false; });
  out.setup_s = seconds_since(start);
  out.scheme_at_warmup = scheme->stats();
  out.platform_at_warmup = system.stats();
  out.events_at_warmup = simulator.executed();
  out.pending_at_warmup = simulator.pending();
  const std::uint64_t moves_at_warmup = tagent_moves(tagents);
  auto mutations = [hash] {
    if (hash == nullptr) return std::uint64_t{0};
    const core::HAgentStats& h = hash->hagent().stats();
    return h.simple_splits + h.complex_splits + h.simple_merges +
           h.complex_merges;
  };
  const std::uint64_t mutations_at_warmup = mutations();

  const auto measured = Clock::now();
  util::Rng query_rng(query_seed);
  std::size_t remaining = config.queriers;
  std::vector<workload::QuerierAgent*> queriers;
  const std::size_t per_querier = config.total_queries / config.queriers;
  for (std::size_t q = 0; q < config.queriers; ++q) {
    workload::QuerierAgent::Config qconfig;
    qconfig.quota = per_querier;
    qconfig.think = config.think;
    qconfig.target_skew = config.target_skew;
    qconfig.seed = query_rng.next();
    auto& agent = system.create<workload::QuerierAgent>(
        static_cast<net::NodeId>((q * 3 + 1) % config.nodes), *scheme,
        qconfig, targets, [&remaining, &simulator] {
          if (--remaining == 0) simulator.request_stop();
        });
    queriers.push_back(&agent);
  }
  run_sliced(simulator, config.warmup + config.measure_deadline, slice,
             sample, [&] { return remaining == 0; });
  out.run_s = seconds_since(measured);

  for (const workload::QuerierAgent* querier : queriers) {
    out.location_ms.merge(querier->latencies_ms());
    out.attempts.merge(querier->attempts());
    out.found += querier->found();
    out.failed += querier->failed();
    out.wrong_location += querier->wrong_location();
    round.check(querier->done(), "a querier did not finish its quota");
  }
  out.issued = per_querier * config.queriers;
  out.moves = tagent_moves(tagents);
  out.moves_measured = out.moves - moves_at_warmup;
  out.scheme = scheme->stats();
  out.network = network.stats();
  out.platform = system.stats();
  out.events = simulator.executed();
  out.sim_seconds = simulator.now().as_seconds();
  out.leaves_end = scheme->tracker_count();
  out.resident_estimate =
      system.estimated_resident_bytes() + scheme->estimated_resident_bytes();
  out.registrations = config.tagents;
  out.mutations_measured = mutations() - mutations_at_warmup;
  if (hash != nullptr) {
    const core::HAgentStats& hstats = hash->hagent().stats();
    out.splits = hstats.simple_splits + hstats.complex_splits;
    out.merges = hstats.simple_merges + hstats.complex_merges;
    if (keep_tree) out.tree = hash->hagent().tree();
    out.entries_per_iagent = config.tagents / std::max<std::size_t>(
                                                  out.leaves_end, 1);
    if (check_invariants) {
      check_hash_invariants(simulator, system, *hash, tagents, round);
    }
  }
  round.check(out.found + out.failed == out.issued,
              "a query ended neither found nor failed");
  out.giveups = log.giveups;
  out.other_warnings = log.other;
  return out;
}

/// Sums cells into round totals and produces the round's metrics.
struct Totals {
  double setup_s = 0.0;
  double run_s = 0.0;
  util::Summary hash_location_ms;
  util::Summary attempts;
  std::uint64_t issued = 0, found = 0, failed = 0, wrong = 0;
  std::uint64_t registrations = 0, giveups = 0, other_warnings = 0;
  std::uint64_t moves = 0, moves_measured = 0;
  std::uint64_t events = 0, events_measured = 0;
  std::uint64_t messages_measured = 0;
  std::uint64_t net_messages = 0, net_bytes = 0;
  std::uint64_t splits = 0, merges = 0, mutations_measured = 0;
  double sim_seconds = 0.0;
  core::SchemeStats scheme;
  core::SchemeStats scheme_measured;
  platform::PlatformStats platform;
  std::size_t leaves_end = 0, leaves_max = 0;
  std::size_t resident_estimate = 0;
  std::size_t pending = 0;
  std::size_t entries_per_iagent = 0;
  sim::SimTime service_time;
  std::optional<hashtree::HashTree> tree;

  void add(CellRun& cell, bool hash_scheme) {
    setup_s += cell.setup_s;
    run_s += cell.run_s;
    if (hash_scheme) hash_location_ms.merge(cell.location_ms);
    attempts.merge(cell.attempts);
    issued += cell.issued;
    found += cell.found;
    failed += cell.failed;
    wrong += cell.wrong_location;
    registrations += cell.registrations;
    giveups += cell.giveups;
    other_warnings += cell.other_warnings;
    moves += cell.moves;
    moves_measured += cell.moves_measured;
    events += cell.events;
    events_measured += cell.events - cell.events_at_warmup;
    messages_measured +=
        cell.platform.messages_sent - cell.platform_at_warmup.messages_sent;
    net_messages += cell.network.messages_sent;
    net_bytes += cell.network.bytes_sent;
    splits += cell.splits;
    merges += cell.merges;
    mutations_measured += cell.mutations_measured;
    sim_seconds += cell.sim_seconds;
    add_scheme(scheme, cell.scheme, 1);
    add_scheme(scheme_measured, cell.scheme, 1);
    add_scheme(scheme_measured, cell.scheme_at_warmup, -1);
    const platform::PlatformStats& p = cell.platform;
    platform.messages_sent += p.messages_sent;
    platform.messages_bounced += p.messages_bounced;
    platform.rpc_timeouts += p.rpc_timeouts;
    platform.rpc_delivery_failures += p.rpc_delivery_failures;
    platform.migrations_completed += p.migrations_completed;
    platform.batch_flushes += p.batch_flushes;
    platform.messages_coalesced += p.messages_coalesced;
    platform.peak_inbox_depth =
        std::max(platform.peak_inbox_depth, p.peak_inbox_depth);
    platform.peak_resident_bytes =
        std::max(platform.peak_resident_bytes, p.peak_resident_bytes);
    resident_estimate = std::max(resident_estimate, cell.resident_estimate);
    if (hash_scheme) {
      leaves_end = std::max(leaves_end, cell.leaves_end);
      leaves_max = std::max(leaves_max, cell.leaves_max);
      // Layer costs are timed at the largest hash cell's sizes.
      if (cell.tree && (!tree || cell.tree->leaf_count() >= tree->leaf_count())) {
        tree = std::move(cell.tree);
        pending = cell.pending_at_warmup;
        entries_per_iagent = cell.entries_per_iagent;
      }
    }
  }

  static void add_scheme(core::SchemeStats& into, const core::SchemeStats& s,
                         int sign) {
    auto f = [sign](std::uint64_t& a, std::uint64_t b) {
      a = sign > 0 ? a + b : a - b;
    };
    f(into.registers, s.registers);
    f(into.updates, s.updates);
    f(into.locates, s.locates);
    f(into.locates_found, s.locates_found);
    f(into.stale_retries, s.stale_retries);
    f(into.transient_retries, s.transient_retries);
    f(into.delivery_retries, s.delivery_retries);
    f(into.timeout_retries, s.timeout_retries);
    f(into.refreshes_triggered, s.refreshes_triggered);
    f(into.locate_rpcs, s.locate_rpcs);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Fills the round's attempted/failed counts, end-to-end metrics, digest
/// of simulated statistics, and (traced rounds) the per-layer metrics.
void finish_round(Totals& t, bool trace, Round& round) {
  // A registration that gives up is a failed operation. A simulated query
  // that ends "failed" is an outcome of the mechanism the round measured
  // (workload.queries_failed); under live rehashing it strikes a few seeds
  // in ten and is not counted here, so the failed share of a round does not
  // depend on the seed (see README.md, known faults).
  round.attempted = t.registrations + t.issued;
  round.failed = t.giveups;

  round.e2e.num("setup_s", t.setup_s)
      .num("run_s", t.run_s)
      .num("locate_ms_p50", t.hash_location_ms.percentile(50.0))
      .num("locate_ms_p99", t.hash_location_ms.percentile(99.0))
      .count("messages", t.net_messages)
      .num("locate_ops_per_s", ratio(static_cast<double>(t.issued), t.run_s))
      .num("update_ops_per_s",
           ratio(static_cast<double>(t.moves_measured), t.run_s));
  round.info
      .num("program_peak_resident_mib",
           static_cast<double>(t.platform.peak_resident_bytes) / 1048576.0)
      .num("program_resident_at_end_mib",
           static_cast<double>(t.resident_estimate) / 1048576.0)
      .count("hash_queries", t.hash_location_ms.count())
      .count("registration_giveups", t.giveups)
      .count("other_warnings", t.other_warnings)
      .count("queries_failed", t.failed);

  char digest[1024];
  std::snprintf(
      digest, sizeof(digest),
      "q=%llu found=%llu failed=%llu wrong=%llu loc_sum=%.17g p50=%.17g "
      "p99=%.17g moves=%llu events=%llu msgs=%llu bytes=%llu regs=%llu "
      "upd=%llu rpcs=%llu leaves=%zu/%zu giveups=%llu splits=%llu "
      "merges=%llu",
      static_cast<unsigned long long>(t.issued),
      static_cast<unsigned long long>(t.found),
      static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.wrong), t.hash_location_ms.sum(),
      t.hash_location_ms.percentile(50.0), t.hash_location_ms.percentile(99.0),
      static_cast<unsigned long long>(t.moves),
      static_cast<unsigned long long>(t.events),
      static_cast<unsigned long long>(t.net_messages),
      static_cast<unsigned long long>(t.net_bytes),
      static_cast<unsigned long long>(t.scheme.registers),
      static_cast<unsigned long long>(t.scheme.updates),
      static_cast<unsigned long long>(t.scheme.locate_rpcs), t.leaves_end,
      t.leaves_max, static_cast<unsigned long long>(t.giveups),
      static_cast<unsigned long long>(t.splits),
      static_cast<unsigned long long>(t.merges));
  round.digest = digest;
  if (!trace) return;

  // Per-operation costs at the sizes this round reached.
  const double ev_ns = event_ns(t.pending);
  const DispatchCost dispatch = send_dispatch_cost(t.service_time);
  const double lookup_ns = t.tree ? tree_lookup_ns(*t.tree) : 0.0;
  const double mutation_ns = t.tree ? tree_mutation_ns(*t.tree) : 0.0;
  const double apply_ns = table_apply_ns(t.entries_per_iagent);

  // Simulator ladder over the measured phase: each message costs a
  // send-and-dispatch (its own events included); the remaining events cost
  // a bare event; every register, update and locate RPC resolves its IAgent
  // through one hash-tree lookup; registers and updates apply to a table;
  // splits and merges are tree mutations.
  const core::SchemeStats& m = t.scheme_measured;
  const double messages = static_cast<double>(t.messages_measured);
  const double other_events =
      std::max(0.0, static_cast<double>(t.events_measured) -
                        messages * dispatch.events_per_message);
  const double lookups =
      static_cast<double>(m.registers + m.updates + m.locate_rpcs);
  const double applies = static_cast<double>(m.registers + m.updates);
  const double ladder_ns = messages * dispatch.ns_per_message +
                           other_events * ev_ns + lookups * lookup_ns +
                           applies * apply_ns +
                           static_cast<double>(t.mutations_measured) *
                               mutation_ns;
  const double run_ns = t.run_s * 1e9;
  round.info.num("ladder_sum_s", ladder_ns / 1e9)
      .num("ladder_run_s", t.run_s)
      .num("ladder_messages_s", messages * dispatch.ns_per_message / 1e9)
      .num("ladder_events_s", other_events * ev_ns / 1e9)
      .num("ladder_lookups_s", lookups * lookup_ns / 1e9)
      .num("ladder_table_s", applies * apply_ns / 1e9);

  const core::SchemeStats& s = t.scheme;
  round.layers.count("sim.events", t.events_measured)
      .num("sim.event_ns", ev_ns)
      .num("sim.host_ns_per_event",
           ratio(run_ns, static_cast<double>(t.events_measured)))
      .num("sim.ladder_residual_pct", ratio(run_ns - ladder_ns, run_ns) * 100)
      .count("platform.messages_sent", t.platform.messages_sent)
      .count("platform.messages_bounced", t.platform.messages_bounced)
      .count("platform.rpc_timeouts", t.platform.rpc_timeouts)
      .count("platform.rpc_delivery_failures",
             t.platform.rpc_delivery_failures)
      .count("platform.migrations", t.platform.migrations_completed)
      .count("platform.peak_inbox_depth", t.platform.peak_inbox_depth)
      .num("platform.send_dispatch_ns", dispatch.ns_per_message)
      .count("platform.peak_resident_bytes", t.platform.peak_resident_bytes)
      .count("platform.batch_flushes", t.platform.batch_flushes)
      .count("platform.messages_coalesced", t.platform.messages_coalesced)
      .count("hashtree.leaves_end", t.leaves_end)
      .count("hashtree.leaves_max", t.leaves_max)
      .num("hashtree.lookup_ns", lookup_ns)
      .num("hashtree.mutation_ns", mutation_ns)
      .count("core.registers", s.registers)
      .count("core.registration_giveups", t.giveups)
      .count("core.updates", s.updates)
      .count("core.locates", s.locates)
      .count("core.locate_rpcs", s.locate_rpcs)
      .num("core.locate_rpcs_per_found",
           ratio(static_cast<double>(s.locate_rpcs),
                 static_cast<double>(s.locates_found)))
      .count("core.stale_retries", s.stale_retries)
      .count("core.transient_retries", s.transient_retries)
      .count("core.delivery_retries", s.delivery_retries)
      .count("core.timeout_retries", s.timeout_retries)
      .count("core.refreshes", s.refreshes_triggered)
      .num("core.table_apply_ns", apply_ns)
      .count("workload.tagent_moves", t.moves)
      .num("workload.sim_seconds", t.sim_seconds)
      .count("workload.wrong_location", t.wrong)
      .count("workload.queries_failed", t.failed)
      .num("workload.attempts_mean", t.attempts.mean())
      .count("net.sim_bytes_sent", t.net_bytes);
}

ExperimentConfig paper_config(const std::string& scheme, std::size_t tagents,
                              double residence_ms) {
  // The paper's setup (DESIGN.md §5): 16 nodes, 4 ms service time,
  // Tmax/Tmin 50/5, 2000 queries by 4 queriers after a 60 s warmup.
  ExperimentConfig config;
  config.scheme = scheme;
  config.tagents = tagents;
  config.residence = sim::SimTime::millis(residence_ms);
  return config;
}

}  // namespace

Round run_paper_figs(const Options& options) {
  // Experiment I: 10–100 TAgents at 500 ms residence. Experiment II:
  // 100–2000 ms residence at 20 TAgents. Both schemes, several population
  // seeds per cell. The populations (and so their t=0 registration race)
  // are the paper figures' fixed replications; the benchmark seed drives
  // the query streams.
  const std::vector<std::size_t> populations = {10, 20, 30, 50, 100};
  const std::vector<double> residences = {100, 200, 500, 1000, 2000};
  const std::size_t replications = options.quick ? 1 : 8;
  const std::uint64_t kPopulationBaseSeed = 1;

  Round round;
  Totals totals;
  totals.service_time = ExperimentConfig{}.service_time;
  // Per-cell mean location time, for the figure-shape checks.
  struct CellMean {
    std::string scheme;
    bool experiment_one;
    double x;
    util::Summary location_ms;
  };
  std::vector<CellMean> means;
  std::uint64_t cell_index = 0;
  for (const std::string scheme : {"centralized", "hash"}) {
    for (int experiment = 1; experiment <= 2; ++experiment) {
      const auto& xs = experiment == 1
                           ? std::vector<double>(populations.begin(),
                                                 populations.end())
                           : residences;
      for (const double x : xs) {
        CellMean mean{scheme, experiment == 1, x, {}};
        for (std::size_t r = 0; r < replications; ++r) {
          ExperimentConfig config =
              experiment == 1
                  ? paper_config(scheme, static_cast<std::size_t>(x), 500.0)
                  : paper_config(scheme, 20, x);
          config.seed = workload::replication_seed(kPopulationBaseSeed, r);
          const std::uint64_t query_seed =
              util::mix64(options.seed * 0x9e3779b97f4a7c15ull + ++cell_index);
          CellRun cell = run_cell(config, query_seed,
                                  options.trace && scheme == "hash", false,
                                  round);
          mean.location_ms.merge(cell.location_ms);
          totals.add(cell, scheme == "hash");
        }
        means.push_back(std::move(mean));
      }
    }
  }

  // Figure shape: the centralized tracker's queueing shows at the top of
  // both sweeps; the hash scheme stays flat.
  auto cell_mean = [&](const std::string& scheme, bool one, double x) {
    for (const CellMean& m : means) {
      if (m.scheme == scheme && m.experiment_one == one && m.x == x) {
        return m.location_ms.mean();
      }
    }
    return 0.0;
  };
  const double c100 = cell_mean("centralized", true, 100);
  const double h100 = cell_mean("hash", true, 100);
  const double c_fast = cell_mean("centralized", false, 100);
  const double h_fast = cell_mean("hash", false, 100);
  round.check(c100 >= 1.5 * h100,
              "centralized mean at 100 TAgents is not 1.5x the hash mean");
  round.check(c_fast >= 1.5 * h_fast,
              "centralized mean at 100 ms residence is not 1.5x the hash "
              "mean");
  std::vector<double> hash_means;
  for (const CellMean& m : means) {
    if (m.scheme == "hash") hash_means.push_back(m.location_ms.mean());
  }
  std::vector<double> sorted = hash_means;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  for (const double m : hash_means) {
    round.check(m >= 0.9 * median && m <= 1.1 * median,
                "a hash cell mean is outside ±10% of the hash median");
  }
  round.info.num("centralized_mean_ms_at_100_tagents", c100)
      .num("hash_mean_ms_at_100_tagents", h100)
      .num("centralized_mean_ms_at_100ms_residence", c_fast)
      .num("hash_mean_ms_at_100ms_residence", h_fast);

  finish_round(totals, options.trace, round);
  return round;
}

Round run_adaptive_rehash(const Options& options) {
  // The hash scheme with rehashing live: the tree grows from one IAgent to
  // about a hundred while the population moves every 2 s on average.
  ExperimentConfig config;
  config.scheme = "hash";
  config.nodes = 64;
  config.tagents = options.quick ? 1000 : 5000;
  config.residence = sim::SimTime::seconds(2);
  config.service_time = sim::SimTime::micros(250);
  config.start_stagger = sim::SimTime::seconds(30);
  config.total_queries = options.quick ? 2000 : 20000;
  config.seed = util::mix64(options.seed ^ 0xada97e11ull);

  Round round;
  Totals totals;
  totals.service_time = config.service_time;
  CellRun cell = run_cell(config, util::mix64(config.seed + 1), options.trace,
                          true, round);
  totals.add(cell, true);
  round.check(totals.leaves_max > 1, "the hash tree never split");
  finish_round(totals, options.trace, round);
  return round;
}

Round run_capacity(const Options& options) {
  // bench_scale's shape: rehashing parked, the primary copy pre-split for
  // the population, update batching on (automatic at this size). Half a
  // million TAgents keep the resident set (~440 MiB) four times the LLC
  // while a round stays short enough to repeat.
  const std::size_t tagents = options.quick ? 20'000 : 500'000;
  ExperimentConfig config;
  config.scheme = "hash";
  config.nodes = options.quick ? 64 : 1024;
  config.tagents = tagents;
  config.total_queries = options.quick ? 2000 : 40000;
  config.queriers = 8;
  config.think = sim::SimTime::millis(10);
  config.residence = sim::SimTime::seconds(120);
  config.warmup = sim::SimTime::seconds(20);
  config.start_stagger = sim::SimTime::seconds(15);
  config.measure_deadline = sim::SimTime::seconds(120);
  config.service_time = sim::SimTime::micros(50);
  config.mechanism.t_max = 1e12;
  config.mechanism.t_min = 0.0;
  config.mechanism.initial_iagents = tagents / 4096 + 1;
  config.seed = util::mix64(options.seed ^ 0xca9ac17ull);

  Round round;
  Totals totals;
  totals.service_time = config.service_time;
  CellRun cell = run_cell(config, util::mix64(config.seed + 1), options.trace,
                          true, round);
  totals.add(cell, true);
  round.check(totals.splits + totals.merges == 0,
              "the parked rehash layer split or merged");
  finish_round(totals, options.trace, round);
  return round;
}

}  // namespace perfbench
