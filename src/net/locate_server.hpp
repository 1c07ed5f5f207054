#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/locate_service.hpp"
#include "net/socket_transport.hpp"

namespace agentloc::net {

/// Sharded `agentlocd`: N worker threads, each owning one complete serving
/// stack — its own `SocketTransport` (event loop, buffer pool, listen
/// socket) plus a `LocateService` with a full `LocateDirectory`. Nothing
/// mutable is shared between workers: the only cross-thread state is the
/// immutable `PartitionMap` built before the threads spawn and a handful of
/// monotonic per-worker atomics for live observability (DESIGN.md §15).
///
/// Sharding contract:
///  - worker k listens on `worker_address(base, k)` — worker 0 on the base
///    address itself (so legacy single-connection clients keep working),
///    worker k>0 on `path + ".w<k>"` (unix) / `port + k` (tcp). TCP
///    listeners set SO_REUSEPORT so restarts and side-by-side shards bind
///    cleanly.
///  - the advertised map assigns leaf → worker round-robin
///    (`leaf % workers`), and every worker answers kPartitionMap with the
///    same map, so a client can bootstrap from any shard.
///  - each worker's directory covers *all* partitions: a client that ignores
///    the map and funnels everything down one connection stays fully
///    consistent (it is its own single writer). Routing exists to keep each
///    leaf single-writer across a *population* of routing clients — they all
///    derive the same owner for an agent, so a leaf's bindings are only ever
///    written through one worker's thread.
class LocateServer {
 public:
  struct Config {
    std::size_t workers = 1;      ///< clamped to [1, partitions]
    std::size_t partitions = 8;   ///< hash-tree leaves per directory
    EventLoop::Backend backend = EventLoop::Backend::kAuto;
    int poll_timeout_ms = 50;     ///< worker loop tick (stop-flag latency)
    /// Stop serving once the workers' summed locate count reaches this
    /// (0 = run until `stop`). Mirrors agentlocd --max-requests.
    std::uint64_t max_locates = 0;
  };

  /// Post-join snapshot of one worker's serving stack.
  struct WorkerStats {
    std::string address;
    SocketTransport::Stats transport;
    LocateService::Counters counters;
    std::size_t bindings = 0;
    std::string backend;  ///< readiness backend the worker actually ran
  };

  explicit LocateServer(Config config);
  ~LocateServer();  ///< stop() + join
  LocateServer(const LocateServer&) = delete;
  LocateServer& operator=(const LocateServer&) = delete;

  /// Listen address of worker `k` for a given base address: k == 0 is the
  /// base itself; unix gets ".w<k>" appended to the path, tcp gets port+k.
  static SocketAddress worker_address(const SocketAddress& base,
                                      std::size_t k);

  /// Bind every worker's listener (so address conflicts fail fast, before
  /// any thread exists), then spawn the worker threads. False + `error` on
  /// any bind failure (already-bound listeners are closed).
  bool start(const SocketAddress& base, std::string* error);

  /// Signal every worker to finish its current turn and join them. Safe to
  /// call twice; the destructor calls it.
  void stop();

  /// True from a successful start() until stop() completes. A max_locates
  /// server flips to false on its own once the quota is served.
  bool running() const noexcept;

  std::size_t worker_count() const noexcept { return config_.workers; }
  const Config& config() const noexcept { return config_; }
  const PartitionMap& partition_map() const noexcept { return map_; }

  /// Live per-worker locate counts (relaxed atomics — approximate while
  /// serving, exact after stop()). Index = worker.
  std::vector<std::uint64_t> live_locates() const;
  /// Live total ops (updates + locates + deregisters) across workers.
  std::uint64_t live_ops() const;

  /// Per-worker detail; meaningful after stop() (workers write their
  /// snapshot as they exit).
  const std::vector<WorkerStats>& stats() const noexcept { return stats_; }

 private:
  struct Worker;

  void run_worker(std::size_t index);
  std::uint64_t live_locates_total() const;

  Config config_;
  PartitionMap map_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::vector<WorkerStats> stats_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
};

}  // namespace agentloc::net
