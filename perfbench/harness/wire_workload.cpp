// wire-serve: a fresh `agentlocd --workers 2` on a Unix-domain socket,
// driven by this process's client threads, each routed to the owning worker
// (connect_cluster) and owning its own slice of the population. A closed
// loop: every client waits for its replies.
//
// Phases, with all clients in step:
//   register   one-way updates of the whole population, fenced by ping
//   locate     pipelined locates, ~64 per connection in flight, verified
//   write      re-updates with rising seq, deregisters, and older-seq
//              updates sent after newer ones, fenced by ping
//   rtt        synchronous locates, one in flight per client, verified
//   verify     pipelined sweep over every agent against the ground truth
// setup_s runs from the daemon's spawn to the fenced registration; run_s
// covers the locate, write and rtt phases.

#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layer_costs.hpp"
#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"
#include "util/rng.hpp"
#include "util/summary.hpp"

extern char** environ;

namespace perfbench {

using namespace agentloc;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kPartitions = 8;  // agentlocd's default
constexpr std::size_t kWindow = 128;    // per client: ~64 per connection
constexpr int kTimeoutMs = 10000;

/// The daemon as a child process: spawned with its stdout on a pipe, ended
/// with SIGTERM, reaped with its resource usage.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path) {
    for (const std::string& path :
         {socket_path, socket_path + ".w1", socket_path + ".w2"}) {
      ::unlink(path.c_str());
    }
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::string listen = "unix:" + socket_path;
    const std::string workers = std::to_string(kWorkers);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>("--listen"),
                               const_cast<char*>(listen.c_str()),
                               const_cast<char*>("--workers"),
                               const_cast<char*>(workers.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      throw std::runtime_error("cannot start " + binary + ": " +
                               std::strerror(rc));
    }
    out_fd_ = fds[0];
    socket_path_ = socket_path;
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// SIGTERM, collect its exit report, reap it. Idempotent.
  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    char buffer[4096];
    for (;;) {
      const ssize_t got = ::read(out_fd_, buffer, sizeof(buffer));
      if (got > 0) {
        output_.append(buffer, static_cast<std::size_t>(got));
      } else if (got < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    ::close(out_fd_);
    int status = 0;
    rusage usage{};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    peak_rss_kib_ = static_cast<std::uint64_t>(usage.ru_maxrss);
    exited_cleanly_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
    for (const std::string& path :
         {socket_path_, socket_path_ + ".w1", socket_path_ + ".w2"}) {
      ::unlink(path.c_str());
    }
  }

  const std::string& output() const noexcept { return output_; }
  std::uint64_t peak_rss_kib() const noexcept { return peak_rss_kib_; }
  bool exited_cleanly() const noexcept { return exited_cleanly_; }

  /// Per-worker ops (locates + updates) from the daemon's exit report.
  std::vector<std::uint64_t> worker_ops() const {
    std::vector<std::uint64_t> ops;
    std::size_t pos = 0;
    while ((pos = output_.find("agentlocd:   worker ", pos)) !=
           std::string::npos) {
      const std::size_t colon = output_.find("): ", pos);
      if (colon == std::string::npos) break;
      unsigned long long locates = 0, updates = 0;
      if (std::sscanf(output_.c_str() + colon + 3, "%llu locates, %llu updates",
                      &locates, &updates) == 2) {
        ops.push_back(locates + updates);
      }
      pos = colon;
    }
    return ops;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string socket_path_;
  std::string output_;
  std::uint64_t peak_rss_kib_ = 0;
  bool exited_cleanly_ = false;
};

/// One client thread's slice of the population and its ground truth.
struct Slice {
  std::vector<platform::AgentId> ids;
  std::vector<std::uint32_t> node;  ///< expected node (after each phase)
  std::vector<std::uint64_t> seq;   ///< expected seq; 0 = deregistered
};

/// What a client thread saw.
struct ClientLog {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t stale_applied = 0;  ///< older-seq updates that took effect
  std::uint64_t locates = 0;
  std::uint64_t writes = 0;
  std::vector<double> rtt_us;
  std::vector<double> ping_us;
  double send_ns = 0.0;  ///< traced: inside send_locate, locate phase
  double wait_ns = 0.0;  ///< traced: inside drain, locate phase
  std::uint64_t frames = 0;
  std::uint64_t locate_frames = 0;
  std::uint64_t locate_syscalls = 0;
  std::string error;
};

bool matches(const core::LocateReply& reply, const Slice& slice,
             std::size_t i) {
  if (slice.seq[i] == 0) return reply.status != core::LocateStatus::kFound;
  return reply.status == core::LocateStatus::kFound &&
         reply.node == slice.node[i] && reply.seq == slice.seq[i];
}

/// Pipelined locates of `picks` (indices into the slice), `kWindow` in
/// flight, each reply checked against the slice.
void pipelined(net::LocateClient& client, const Slice& slice,
               const std::vector<std::uint32_t>& picks, bool trace,
               ClientLog& log) {
  std::vector<std::uint32_t> expect(picks.size() + 1, 0);
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  while (completed < picks.size()) {
    const std::size_t batch =
        std::min<std::size_t>(kWindow - (issued - completed),
                              picks.size() - issued);
    const auto send_start = trace ? Clock::now() : Clock::time_point{};
    for (std::size_t b = 0; b < batch; ++b) {
      expect[issued + 1] = picks[issued];
      client.send_locate(slice.ids[picks[issued]], issued + 1);
      ++issued;
    }
    const auto wait_start = trace ? Clock::now() : Clock::time_point{};
    const auto replies = client.drain(issued - completed, kTimeoutMs);
    if (trace) {
      log.send_ns += std::chrono::duration<double, std::nano>(wait_start -
                                                              send_start)
                         .count();
      log.wait_ns += std::chrono::duration<double, std::nano>(Clock::now() -
                                                              wait_start)
                         .count();
    }
    if (replies.empty()) {
      log.failed += issued - completed;
      log.error = "pipelined locates timed out";
      return;
    }
    for (const auto& item : replies) {
      ++completed;
      if (!matches(item.reply, slice, expect[item.correlation])) {
        ++log.mismatches;
      }
    }
  }
}

/// Round trips per window of the tail estimate: 40 samples lie beyond each
/// window's p99.
constexpr std::size_t kTailWindow = 4000;

/// `p` over consecutive windows of `kTailWindow` samples, median over the
/// windows: a host stall that lands in one window moves that window only.
double windowed_percentile(const std::vector<double>& samples, double p) {
  std::vector<double> per_window;
  for (std::size_t at = 0; at + kTailWindow <= samples.size();
       at += kTailWindow) {
    util::Summary window;
    for (std::size_t k = at; k < at + kTailWindow; ++k) window.add(samples[k]);
    per_window.push_back(window.percentile(p));
  }
  if (per_window.empty()) return 0.0;
  std::sort(per_window.begin(), per_window.end());
  return per_window[per_window.size() / 2];
}

/// Confines this thread, and so the daemon and client threads started from
/// it, to one of the CPUs the process may use (the last). On a shared
/// virtual machine a round trip across two vCPUs waits for the host to wake
/// the halted one, and that wait follows the host's load; on one CPU some
/// thread of the closed loop is always runnable, so no vCPU halts between
/// request and reply and the round stays measurable.
void use_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(last, &chosen);
  ::sched_setaffinity(0, sizeof(chosen), &chosen);
}

struct Sizes {
  std::size_t agents_per_client;
  std::size_t locates_per_client;
  std::size_t rtt_per_client;
  std::size_t pings_per_client;
};

}  // namespace

Round run_wire_serve(const Options& options) {
  if (options.agentlocd.empty() || options.socket_path.empty()) {
    throw std::runtime_error("wire-serve needs --agentlocd and --socket");
  }
  const Sizes sizes = options.quick ? Sizes{10'000, 20'000, 4'000, 200}
                                    : Sizes{500'000, 1'000'000, 50'000, 2'000};

  // Inputs: disjoint id ranges per client, nodes and picks from the seed.
  std::vector<Slice> slices(kClients);
  std::vector<std::vector<std::uint32_t>> picks(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    util::Rng rng(util::mix64(options.seed * 0x9e3779b97f4a7c15ull + c + 1));
    Slice& slice = slices[c];
    slice.ids.resize(sizes.agents_per_client);
    slice.node.resize(sizes.agents_per_client);
    slice.seq.assign(sizes.agents_per_client, 1);
    const std::uint64_t base = rng.next();
    for (std::size_t i = 0; i < sizes.agents_per_client; ++i) {
      slice.ids[i] = util::mix64(base + c * sizes.agents_per_client + i) | 1;
      slice.node[i] = static_cast<std::uint32_t>(1 + rng.next_below(1024));
    }
    picks[c].resize(sizes.locates_per_client);
    for (auto& pick : picks[c]) {
      pick = static_cast<std::uint32_t>(rng.next_below(sizes.agents_per_client));
    }
  }
  // Distinct ids across clients (mix64 is a bijection, but the |1 is not).
  {
    std::vector<platform::AgentId> all;
    for (const Slice& slice : slices) {
      all.insert(all.end(), slice.ids.begin(), slice.ids.end());
    }
    std::sort(all.begin(), all.end());
    if (std::adjacent_find(all.begin(), all.end()) != all.end()) {
      throw std::runtime_error("generated agent ids collide");
    }
  }

  Round round;
  std::vector<ClientLog> logs(kClients);
  std::vector<Clock::time_point> marks;  // phase boundaries
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    marks.push_back(Clock::now());
  });
  std::barrier turns(static_cast<std::ptrdiff_t>(kClients));

  use_one_cpu();
  const auto start = Clock::now();
  Daemon daemon(options.agentlocd, options.socket_path);
  net::SocketAddress address;
  std::string parse_error;
  if (!net::SocketAddress::parse("unix:" + options.socket_path, address,
                                 &parse_error)) {
    throw std::runtime_error("bad socket path: " + parse_error);
  }

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      Slice& slice = slices[c];
      net::LocateClient client;
      std::string error;
      bool up = false;
      for (int attempt = 0; attempt < 1000 && !up; ++attempt) {
        up = client.connect_cluster(address, &error);
        if (!up) ::usleep(5000);
      }
      if (up && client.worker_count() != kWorkers) {
        error = "expected " + std::to_string(kWorkers) + " workers";
        up = false;
      }
      auto fence = [&] {
        client.flush();
        if (!client.ping(kTimeoutMs)) {
          log.error = "ping fence failed";
          return false;
        }
        return true;
      };
      auto transport_totals = [&](std::uint64_t& frames,
                                  std::uint64_t& syscalls) {
        const auto& s = client.transport().stats();
        frames = s.frames_sent + s.frames_received;
        syscalls = s.flush_syscalls + s.read_syscalls;
      };
      // Within each timed phase the clients take turns, one client's
      // traffic at a time: on one CPU a phase then costs the sum of each
      // client's share alone, whatever order the scheduler runs the four
      // threads in.
      auto in_turn = [&](auto&& work) {
        for (std::size_t turn = 0; turn < kClients; ++turn) {
          if (turn == c) work();
          turns.arrive_and_wait();
        }
      };

      // Register.
      bool ok = up;
      if (!up) log.error = "connect failed: " + error;
      in_turn([&] {
        if (!ok) return;
        for (std::size_t i = 0; i < slice.ids.size(); ++i) {
          client.send_update(slice.ids[i], slice.node[i], 1);
          if ((i & 4095) == 4095) client.flush();
        }
        log.ops += slice.ids.size();
        ok = fence();
      });
      sync.arrive_and_wait();

      // Locate.
      std::uint64_t frames0 = 0, syscalls0 = 0;
      transport_totals(frames0, syscalls0);
      in_turn([&] {
        if (!ok) return;
        pipelined(client, slice, picks[c], options.trace, log);
        log.ops += picks[c].size();
        log.locates += picks[c].size();
        ok = log.error.empty();
      });
      std::uint64_t frames1 = 0, syscalls1 = 0;
      transport_totals(frames1, syscalls1);
      log.locate_frames = frames1 - frames0;
      log.locate_syscalls = syscalls1 - syscalls0;
      sync.arrive_and_wait();

      // Write: every agent moves (seq 2), every second agent moves again
      // (seq 3); one in ten of those then receives a late update carrying
      // seq 2, which must not apply; one agent in twenty among the rest
      // deregisters (seq 3).
      std::vector<std::uint32_t> stale;
      in_turn([&] {
        if (!ok) return;
        util::Rng rng(util::mix64(options.seed + 77 * (c + 1)));
        auto move = [&](std::size_t i, std::uint64_t seq) {
          const auto to = static_cast<std::uint32_t>(
              1 + (slice.node[i] + rng.next_below(1023)) % 1024);
          client.send_update(slice.ids[i], to, seq);
          slice.node[i] = to;
          slice.seq[i] = seq;
          ++log.writes;
        };
        for (std::size_t i = 0; i < slice.ids.size(); ++i) {
          move(i, 2);
          if (i % 2 == 0) {
            move(i, 3);
            if (i % 20 == 0) {
              client.send_update(slice.ids[i],
                                 static_cast<std::uint32_t>(1 + i % 1024), 2);
              stale.push_back(static_cast<std::uint32_t>(i));
              ++log.writes;
            }
          } else if (i % 20 == 1) {
            client.send_deregister(slice.ids[i], 3);
            slice.seq[i] = 0;
            ++log.writes;
          }
          if ((i & 4095) == 4095) client.flush();
        }
        log.ops += log.writes;
        ok = fence();
      });
      sync.arrive_and_wait();

      // Round trips: one synchronous locate in flight.
      in_turn([&] {
        if (!ok) return;
        util::Rng rng(util::mix64(options.seed + 991 * (c + 1)));
        log.rtt_us.reserve(sizes.rtt_per_client);
        for (std::size_t k = 0; k < sizes.rtt_per_client; ++k) {
          const auto i = static_cast<std::size_t>(
              rng.next_below(slice.ids.size()));
          const auto t0 = Clock::now();
          const auto reply = client.locate(slice.ids[i], kTimeoutMs);
          log.rtt_us.push_back(seconds_since(t0) * 1e6);
          ++log.ops;
          if (!reply) {
            ++log.failed;
            log.error = "synchronous locate timed out";
            ok = false;
            break;
          }
          if (!matches(*reply, slice, i)) ++log.mismatches;
        }
      });
      sync.arrive_and_wait();

      // Verify every agent, and that no older-seq update took effect.
      if (ok) {
        std::vector<std::uint32_t> all(slice.ids.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
          all[i] = static_cast<std::uint32_t>(i);
        }
        pipelined(client, slice, all, false, log);
        log.ops += all.size();
        // The sweep covered these too; read them again to name the fault.
        ClientLog stale_log;
        pipelined(client, slice, stale, false, stale_log);
        log.ops += stale.size();
        log.failed += stale_log.failed;
        log.stale_applied = stale_log.mismatches;
        std::uint64_t syscalls = 0;
        transport_totals(log.frames, syscalls);
      }
      // Traced: the bare transport round trip, taken in turns as the
      // synchronous locates were.
      if (options.trace) {
        in_turn([&] {
          if (!ok) return;
          for (std::size_t k = 0; k < sizes.pings_per_client; ++k) {
            const auto t0 = Clock::now();
            if (!client.ping(kTimeoutMs)) break;
            log.ping_us.push_back(seconds_since(t0) * 1e6 /
                                  static_cast<double>(client.worker_count()));
          }
        });
      }
      sync.arrive_and_wait();
    });
  }
  for (std::thread& thread : threads) thread.join();
  daemon.stop();

  // marks: [registered, located, written, rtt done, verified]
  if (marks.size() != 5) throw std::runtime_error("client phases out of step");
  const double setup_s =
      std::chrono::duration<double>(marks[0] - start).count();
  const double locate_s =
      std::chrono::duration<double>(marks[1] - marks[0]).count();
  const double write_s =
      std::chrono::duration<double>(marks[2] - marks[1]).count();
  const double run_s =
      std::chrono::duration<double>(marks[3] - marks[0]).count();

  util::Summary rtt;
  std::vector<double> rtt_in_order;
  util::Summary ping;
  std::uint64_t locates = 0, writes = 0, frames = 0;
  std::uint64_t locate_frames = 0, locate_syscalls = 0;
  double send_ns = 0.0, wait_ns = 0.0;
  for (const ClientLog& log : logs) {
    round.check(log.error.empty(), log.error);
    round.check(log.mismatches == 0,
                std::to_string(log.mismatches) +
                    " locate replies differ from the ground truth");
    round.check(log.stale_applied == 0,
                std::to_string(log.stale_applied) +
                    " older-seq updates took effect after a newer one");
    round.attempted += log.ops;
    round.failed += log.failed;
    locates += log.locates;
    writes += log.writes;
    frames += log.frames;
    locate_frames += log.locate_frames;
    locate_syscalls += log.locate_syscalls;
    send_ns += log.send_ns;
    wait_ns += log.wait_ns;
    for (const double v : log.rtt_us) rtt.add(v);
    rtt_in_order.insert(rtt_in_order.end(), log.rtt_us.begin(),
                        log.rtt_us.end());
    for (const double v : log.ping_us) ping.add(v);
  }
  round.check(daemon.exited_cleanly(), "agentlocd did not exit cleanly");
  const std::vector<std::uint64_t> worker_ops = daemon.worker_ops();
  round.check(worker_ops.size() == kWorkers,
              "agentlocd reported no per-worker counts");
  round.check(!rtt.empty(), "no round trips measured");
  if (!round.correct) {
    std::fprintf(stderr, "agentlocd output:\n%s\n", daemon.output().c_str());
  }

  const double rtt_p50 = rtt.empty() ? 0.0 : rtt.percentile(50.0);
  round.e2e.num("setup_s", setup_s)
      .num("run_s", run_s)
      .num("locate_ms_p50", rtt_p50 / 1000.0)
      .num("locate_ms_p99", windowed_percentile(rtt_in_order, 99.0) / 1000.0)
      .count("messages", frames)
      .num("locate_ops_per_s", static_cast<double>(locates) / locate_s)
      .num("update_ops_per_s", static_cast<double>(writes) / write_s)
      .num("peak_rss_mib", static_cast<double>(daemon.peak_rss_kib()) / 1024.0);
  round.info.count("rtt_samples", rtt.count())
      .num("rtt_us_p99_whole_phase", rtt.empty() ? 0.0 : rtt.percentile(99.0))
      .count("locates", locates)
      .count("writes", writes);

  char digest[256];
  std::snprintf(digest, sizeof(digest), "ops=%llu frames=%llu",
                static_cast<unsigned long long>(round.attempted),
                static_cast<unsigned long long>(frames));
  round.digest = digest;
  if (!options.trace) return round;

  const DirectoryCost directory = directory_cost(
      kPartitions, kClients * sizes.agents_per_client / kWorkers);
  const double encode_ns = frame_encode_ns();
  const double decode_ns = frame_decode_ns();
  const double ping_p50 = ping.empty() ? 0.0 : ping.percentile(50.0);
  // Wire ladder for one synchronous locate: the transport round trip a
  // ping costs, plus routing and the directory probe.
  const double ladder_us =
      ping_p50 + (directory.route_ns + directory.locate_ns) / 1000.0;
  std::uint64_t ops_min = ~std::uint64_t{0}, ops_max = 0;
  for (const std::uint64_t ops : worker_ops) {
    ops_min = std::min(ops_min, ops);
    ops_max = std::max(ops_max, ops);
  }
  round.info.num("ladder_sum_us", ladder_us)
      .num("ladder_rtt_p50_us", rtt_p50)
      .num("ladder_ping_us", ping_p50);
  round.layers.num("net.frame_encode_ns", encode_ns)
      .num("net.frame_decode_ns", decode_ns)
      .num("net.syscalls_per_frame",
           locate_frames > 0 ? static_cast<double>(locate_syscalls) /
                                   static_cast<double>(locate_frames)
                             : 0.0)
      .num("net.client_send_ns", send_ns / static_cast<double>(locates))
      .num("net.client_wait_ns", wait_ns / static_cast<double>(locates))
      .num("net.worker_imbalance",
           ops_min > 0 && ops_max > 0
               ? static_cast<double>(ops_max) / static_cast<double>(ops_min)
               : 0.0)
      .num("net.route_ns", directory.route_ns)
      .num("net.directory_locate_ns", directory.locate_ns)
      .num("net.directory_update_ns", directory.update_ns)
      .num("net.ping_rtt_us", ping_p50)
      .num("net.ladder_residual_pct",
           rtt_p50 > 0 ? (rtt_p50 - ladder_us) / rtt_p50 * 100.0 : 0.0);
  return round;
}

}  // namespace perfbench
