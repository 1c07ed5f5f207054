#include "workload/lp_experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/latency.hpp"
#include "sim/parallel.hpp"
#include "util/rng.hpp"
#include "util/summary.hpp"

namespace agentloc::workload {

namespace {

// Serialized sizes of the LP model's message types, sized like the legacy
// stack's payloads (a locate request is an id + reply address; a tracker
// update adds the version; a migration carries the agent's state).
constexpr std::size_t kQueryBytes = 64;
constexpr std::size_t kReplyBytes = 96;
constexpr std::size_t kUpdateBytes = 128;
constexpr std::size_t kVerifyBytes = 64;
constexpr std::size_t kMigrationBytes = 2048;

/// Probe/verify rounds before a query gives up, mirroring the legacy
/// scheme's bounded retry loop.
constexpr int kMaxAttempts = 8;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

/// One mobile (tracked) agent. The struct is only ever touched from the LP
/// the mover currently executes on: its life is a single causal chain of
/// events (reside → depart → migrate → arrive → …), each handing off to the
/// next via a cross-LP message, so the engine's window barriers order every
/// access.
struct Mover {
  util::Rng rng;
  net::NodeId node = 0;
  std::uint64_t version = 0;  ///< bumped per departure; orders updates
  std::uint64_t moves = 0;
};

/// One closed-loop measurement client, pinned to `node`. Like `Mover`, the
/// query in flight is a single causal chain (querier → tracker → target →
/// querier), so remote LPs may read/advance this state race-free; the RNG
/// travels with the chain, which keeps its draw order thread-count
/// invariant.
struct Querier {
  util::Rng rng;
  net::NodeId node = 0;
  std::size_t quota = 0;  ///< 0 = unlimited (runs to the deadline)
  std::size_t issued = 0;
  std::size_t target = 0;
  sim::SimTime start;
  int attempts = 0;

  util::Summary latencies_ms;
  util::Summary attempts_summary;
  std::uint64_t found = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_location = 0;
};

/// One hash-partitioned location tracker (the mechanism's IAgent analogue),
/// hosted on `node`. `busy_until` models its FIFO service queue: requests
/// are served back-to-back, `service_time` apiece. Only the hosting LP
/// touches it.
struct Tracker {
  net::NodeId node = 0;
  sim::SimTime busy_until;
  std::uint64_t served = 0;
};

/// Tracker-side view of one mover's location. Owned by the LP hosting the
/// mover's tracker.
struct Record {
  net::NodeId node = 0;
  std::uint64_t version = 0;
};

/// Per-node message counters, written only by events on that node's LP and
/// summed serially after the run. Padded so neighbouring nodes' counters do
/// not share a cache line.
struct alignas(64) NodeCounters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t probes_served = 0;
};

class LpWorld {
 public:
  explicit LpWorld(const ExperimentConfig& config)
      : config_(config),
        model_(net::make_default_lan_model()),
        engine_({/*lps=*/config.nodes,
                 /*threads=*/std::max<std::size_t>(config.lp_threads, 1),
                 /*lookahead=*/model_->min_latency(),
                 /*channel_capacity=*/1024}),
        tracker_count_(round_up_pow2(
            config.lp_trackers != 0 ? config.lp_trackers : config.nodes)),
        movers_(config.tagents),
        queriers_(config.queriers),
        trackers_(tracker_count_),
        records_(config.tagents),
        resident_(config.nodes,
                  std::vector<std::uint8_t>(config.tagents, 0)),
        node_busy_(config.nodes),
        counters_(config.nodes) {
    // Serial setup: every seed is drawn here, in a fixed order, from one
    // master stream — the only draws not bound to an LP chain.
    util::Rng master(config.seed);
    for (std::size_t k = 0; k < tracker_count_; ++k) {
      trackers_[k].node = static_cast<net::NodeId>(k % config.nodes);
    }
    for (std::size_t i = 0; i < movers_.size(); ++i) {
      Mover& mover = movers_[i];
      mover.rng = util::Rng(master.next());
      mover.node = static_cast<net::NodeId>(i % config.nodes);
      resident_[mover.node][i] = 1;
      records_[i] = Record{mover.node, 0};
      if (config.nodes > 1) {
        engine_.post(mover.node, mover.node, residence_draw(mover),
                     [this, i] { mover_depart(i); });
      }
    }
    const std::size_t per_querier =
        config.queriers == 0 ? 0 : config.total_queries / config.queriers;
    for (std::size_t q = 0; q < queriers_.size(); ++q) {
      Querier& querier = queriers_[q];
      querier.rng = util::Rng(master.next());
      querier.node = static_cast<net::NodeId>((q * 3 + 1) % config.nodes);
      querier.quota = per_querier;
      if (querier.quota != 0) {
        remaining_.fetch_add(1, std::memory_order_relaxed);
      }
      engine_.post(querier.node, querier.node, config.warmup,
                   [this, q] { querier_issue(q); });
    }
  }

  ExperimentResult run() {
    engine_.run_until(config_.warmup + config_.measure_deadline);

    ExperimentResult result;
    for (const Querier& querier : queriers_) {
      result.location_ms.merge(querier.latencies_ms);
      result.attempts.merge(querier.attempts_summary);
      result.queries_found += querier.found;
      result.queries_failed += querier.failed;
      result.wrong_location += querier.wrong_location;
    }
    for (const Mover& mover : movers_) {
      result.tagent_moves += mover.moves;
      result.platform_stats.migrations_started += mover.version;
      result.platform_stats.migrations_completed += mover.moves;
    }
    result.platform_stats.agents_created =
        movers_.size() + queriers_.size();
    for (const NodeCounters& counters : counters_) {
      result.network_stats.messages_sent += counters.messages;
      result.network_stats.bytes_sent += counters.bytes;
      result.scheme_stats.updates += counters.updates_applied;
      result.scheme_stats.locate_rpcs += counters.probes_served;
    }
    // The LP model has no faults, so everything sent is delivered.
    result.network_stats.messages_delivered =
        result.network_stats.messages_sent;
    result.scheme_stats.registers = movers_.size();
    result.scheme_stats.locates = result.queries_found +
                                  result.queries_failed;
    result.scheme_stats.locates_found = result.queries_found;
    result.scheme_stats.locates_failed = result.queries_failed;
    result.scheme_stats.stale_retries = result.wrong_location;
    result.trackers_at_end = tracker_count_;

    sim::SimTime end = sim::SimTime::zero();
    for (std::size_t n = 0; n < config_.nodes; ++n) {
      const sim::Simulator& lp = engine_.lp(static_cast<std::uint32_t>(n));
      end = std::max(end, lp.now());
      result.sim_resident_bytes += lp.resident_bytes();
    }
    result.sim_seconds = end.as_seconds();
    result.events_executed = engine_.executed();
    result.lp_windows = engine_.windows();
    result.lp_cross_messages = engine_.cross_lp_messages();
    result.lp_threads_used = engine_.threads();
    return result;
  }

 private:
  using LpId = sim::ParallelSimulator::LpId;

  std::size_t tracker_of(std::size_t mover) const {
    // Hash-partitioned by mixed id bits, like the mechanism's extendible
    // hash over uniformly distributed platform ids.
    return util::mix64(mover + 1) & (tracker_count_ - 1);
  }

  sim::SimTime residence_draw(Mover& mover) {
    if (!config_.exponential_residence) return config_.residence;
    return sim::SimTime::millis(
        mover.rng.exponential(config_.residence.as_millis()));
  }

  void count_send(net::NodeId from, std::size_t bytes) {
    NodeCounters& counters = counters_[from];
    ++counters.messages;
    counters.bytes += bytes;
  }

  /// Deliver `handler` on node `to` at absolute time `when`, from code
  /// executing on node `from`. Same-node hops are plain local events (no
  /// lookahead constraint — loopback latency may undercut the cross-node
  /// floor); cross-node hops go through the engine's conservative channel.
  void send(net::NodeId from, net::NodeId to, sim::SimTime when,
            sim::ParallelSimulator::Handler handler) {
    if (from == to) {
      engine_.lp(from).schedule_at(when, std::move(handler));
    } else {
      engine_.post(from, to, when, std::move(handler));
    }
  }

  // ---- mover chain ----

  void mover_depart(std::size_t i) {
    Mover& mover = movers_[i];
    const net::NodeId from = mover.node;
    sim::Simulator& sim = engine_.lp(from);
    resident_[from][i] = 0;
    ++mover.version;
    net::NodeId to =
        static_cast<net::NodeId>(mover.rng.next_below(config_.nodes - 1));
    if (to >= from) ++to;
    const sim::SimTime latency =
        net::checked_latency(*model_, from, to, kMigrationBytes, mover.rng);
    count_send(from, kMigrationBytes);
    engine_.post(from, to, sim.now() + latency,
                 [this, i, to] { mover_arrive(i, to); });
  }

  void mover_arrive(std::size_t i, net::NodeId to) {
    Mover& mover = movers_[i];
    mover.node = to;
    ++mover.moves;
    resident_[to][i] = 1;
    sim::Simulator& sim = engine_.lp(to);

    // Register the new location with the mover's tracker (versioned, so a
    // reordered older update can never clobber a newer one).
    const std::size_t k = tracker_of(i);
    const net::NodeId tracker_node = trackers_[k].node;
    const sim::SimTime latency = net::checked_latency(
        *model_, to, tracker_node, kUpdateBytes, mover.rng);
    count_send(to, kUpdateBytes);
    const std::uint64_t version = mover.version;
    send(to, tracker_node, sim.now() + latency, [this, k, i, to, version] {
      tracker_update(k, i, to, version);
    });

    engine_.lp(to).schedule_after(residence_draw(mover),
                                  [this, i] { mover_depart(i); });
  }

  void tracker_update(std::size_t k, std::size_t i, net::NodeId node,
                      std::uint64_t version) {
    Tracker& tracker = trackers_[k];
    sim::Simulator& sim = engine_.lp(tracker.node);
    const sim::SimTime start = std::max(sim.now(), tracker.busy_until);
    tracker.busy_until = start + config_.service_time;
    ++tracker.served;
    sim.schedule_at(tracker.busy_until, [this, k, i, node, version] {
      Record& record = records_[i];
      if (version > record.version) {
        record.node = node;
        record.version = version;
      }
      ++counters_[trackers_[k].node].updates_applied;
    });
  }

  // ---- query chain ----

  void querier_issue(std::size_t q) {
    Querier& querier = queriers_[q];
    querier.start = engine_.lp(querier.node).now();
    querier.attempts = 0;
    querier.target =
        querier.rng.zipf(movers_.size(), config_.target_skew);
    probe(q);
  }

  void probe(std::size_t q) {
    Querier& querier = queriers_[q];
    ++querier.attempts;
    const std::size_t k = tracker_of(querier.target);
    const net::NodeId tracker_node = trackers_[k].node;
    sim::Simulator& sim = engine_.lp(querier.node);
    const sim::SimTime latency = net::checked_latency(
        *model_, querier.node, tracker_node, kQueryBytes, querier.rng);
    count_send(querier.node, kQueryBytes);
    send(querier.node, tracker_node, sim.now() + latency,
         [this, q, k] { tracker_serve(q, k); });
  }

  void tracker_serve(std::size_t q, std::size_t k) {
    Tracker& tracker = trackers_[k];
    sim::Simulator& sim = engine_.lp(tracker.node);
    const sim::SimTime start = std::max(sim.now(), tracker.busy_until);
    tracker.busy_until = start + config_.service_time;
    ++tracker.served;
    ++counters_[tracker.node].probes_served;
    sim.schedule_at(tracker.busy_until,
                    [this, q, k] { tracker_reply(q, k); });
  }

  void tracker_reply(std::size_t q, std::size_t k) {
    Querier& querier = queriers_[q];
    const Tracker& tracker = trackers_[k];
    // Read the record at service time, not arrival time: a just-applied
    // update is visible, like the legacy tracker's inbox ordering.
    const net::NodeId reported = records_[querier.target].node;
    sim::Simulator& sim = engine_.lp(tracker.node);
    const sim::SimTime latency = net::checked_latency(
        *model_, tracker.node, querier.node, kReplyBytes, querier.rng);
    count_send(tracker.node, kReplyBytes);
    send(tracker.node, querier.node, sim.now() + latency,
         [this, q, reported] { verify_hop(q, reported); });
  }

  void verify_hop(std::size_t q, net::NodeId reported) {
    Querier& querier = queriers_[q];
    sim::Simulator& sim = engine_.lp(querier.node);
    const sim::SimTime latency = net::checked_latency(
        *model_, querier.node, reported, kVerifyBytes, querier.rng);
    count_send(querier.node, kVerifyBytes);
    send(querier.node, reported, sim.now() + latency,
         [this, q, reported] { verify_serve(q, reported); });
  }

  void verify_serve(std::size_t q, net::NodeId node) {
    sim::Simulator& sim = engine_.lp(node);
    const sim::SimTime start = std::max(sim.now(), node_busy_[node]);
    node_busy_[node] = start + config_.service_time;
    sim.schedule_at(node_busy_[node],
                    [this, q, node] { verify_reply(q, node); });
  }

  void verify_reply(std::size_t q, net::NodeId node) {
    Querier& querier = queriers_[q];
    const bool hit = resident_[node][querier.target] != 0;
    sim::Simulator& sim = engine_.lp(node);
    const sim::SimTime latency = net::checked_latency(
        *model_, node, querier.node, kReplyBytes, querier.rng);
    count_send(node, kReplyBytes);
    send(node, querier.node, sim.now() + latency,
         [this, q, hit] { query_result(q, hit); });
  }

  void query_result(std::size_t q, bool hit) {
    Querier& querier = queriers_[q];
    sim::Simulator& sim = engine_.lp(querier.node);
    if (hit) {
      querier.latencies_ms.add((sim.now() - querier.start).as_millis());
      querier.attempts_summary.add(static_cast<double>(querier.attempts));
      ++querier.found;
      next_query(q);
      return;
    }
    ++querier.wrong_location;
    if (querier.attempts >= kMaxAttempts) {
      querier.attempts_summary.add(static_cast<double>(querier.attempts));
      ++querier.failed;
      next_query(q);
      return;
    }
    probe(q);  // the tracker will have a fresher record by the next probe
  }

  void next_query(std::size_t q) {
    Querier& querier = queriers_[q];
    ++querier.issued;
    if (querier.quota != 0 && querier.issued >= querier.quota) {
      // Last querier to finish stops the run at the next window boundary
      // (deterministic: the set of completions per window is fixed by the
      // event schedule, not by thread timing).
      if (remaining_.fetch_sub(1, std::memory_order_relaxed) == 1) {
        engine_.request_stop();
      }
      return;
    }
    sim::SimTime pause = sim::SimTime::zero();
    if (config_.think > sim::SimTime::zero()) {
      pause = sim::SimTime::millis(
          querier.rng.exponential(config_.think.as_millis()));
    }
    engine_.lp(querier.node).schedule_after(
        pause, [this, q] { querier_issue(q); });
  }

  const ExperimentConfig& config_;
  std::unique_ptr<net::LatencyModel> model_;
  sim::ParallelSimulator engine_;
  std::size_t tracker_count_;
  std::vector<Mover> movers_;
  std::vector<Querier> queriers_;
  std::vector<Tracker> trackers_;
  std::vector<Record> records_;
  std::vector<std::vector<std::uint8_t>> resident_;
  std::vector<sim::SimTime> node_busy_;
  std::vector<NodeCounters> counters_;
  std::atomic<std::size_t> remaining_{0};
};

}  // namespace

ExperimentResult run_experiment_lp(const ExperimentConfig& config) {
  if (config.nodes == 0) {
    throw std::invalid_argument("run_experiment_lp: nodes must be > 0");
  }
  if (config.tagents == 0 && config.queriers != 0) {
    throw std::invalid_argument(
        "run_experiment_lp: queriers need a nonempty tracked population");
  }
  if (config.drop_probability != 0.0) {
    throw std::invalid_argument(
        "run_experiment_lp: fault injection is not supported by the LP "
        "engine");
  }
  if (config.sampler || config.on_finish || !config.trace_csv_path.empty()) {
    throw std::invalid_argument(
        "run_experiment_lp: host hooks (sampler/on_finish/trace) are not "
        "supported by the LP engine");
  }
  LpWorld world(config);
  return world.run();
}

}  // namespace agentloc::workload
