#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace agentloc::net {

/// Readiness-notification seam under `SocketTransport` (DESIGN.md §15).
///
/// The transport's turn loop only ever asks one question — "which of my fds
/// are readable / writable right now?" — so the seam is exactly that: an
/// interest set (`add`/`modify`/`remove`) plus one blocking `wait` that
/// fills a caller-owned event vector. Both backends implement *level*
/// semantics (an fd stays ready until the condition is drained), which is
/// what the existing transport code assumes: `read_ready` may leave bytes
/// buffered in the kernel and must be called again on the next turn.
///
///  - `PollEventLoop`  — portable `poll(2)`; rebuilds its pollfd array from
///    the interest set each wait (the pre-seam behaviour, bit for bit).
///  - `EpollEventLoop` — Linux `epoll(7)`, level-triggered (no EPOLLET);
///    interest changes are O(1) `epoll_ctl` calls instead of a per-wait
///    array rebuild, which is what makes many-peer servers cheap.
///
/// Selection is runtime: `create(kAuto)` picks epoll where the kernel
/// supports it and falls back to poll elsewhere (macOS/CI parity), and the
/// `AGENTLOC_EVENT_BACKEND=poll|epoll` environment variable forces a
/// backend so the same test suite can pin each one.
class EventLoop {
 public:
  enum class Backend : std::uint8_t { kAuto, kPoll, kEpoll };

  /// One ready fd. `hangup` folds POLLHUP/POLLERR (EPOLLHUP/EPOLLERR):
  /// the consumer treats it like readability so the next read observes
  /// EOF/ECONNRESET and disconnects cleanly.
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  virtual ~EventLoop() = default;

  /// Backend tag for banners/tests: "poll" or "epoll".
  virtual const char* name() const noexcept = 0;

  /// Start watching `fd`. False if the fd cannot be registered (epoll_ctl
  /// failure); callers treat that as a dead fd.
  virtual bool add(int fd, bool want_read, bool want_write) = 0;

  /// Change the interest set of a watched fd.
  virtual bool modify(int fd, bool want_read, bool want_write) = 0;

  /// Stop watching `fd`. Safe to call for fds that were never added.
  virtual void remove(int fd) = 0;

  /// Block up to `timeout_ms` (-1 = forever) and append ready fds to
  /// `out` (cleared first). Returns the ready count, 0 on timeout, -1 on
  /// error (errno preserved; EINTR is retried internally).
  virtual int wait(int timeout_ms, std::vector<Event>& out) = 0;

  /// Watched fd count.
  virtual std::size_t watched() const noexcept = 0;

  /// Whether this kernel offers epoll (compile-time *and* runtime probe).
  static bool epoll_supported();

  /// Backend forced via AGENTLOC_EVENT_BACKEND ("poll"/"epoll"), or kAuto
  /// when unset/unrecognized.
  static Backend env_backend();

  /// Build a backend. kAuto resolves env_backend() first, then prefers
  /// epoll where supported. Asking for kEpoll where unsupported falls back
  /// to poll rather than failing — callers can check `name()`.
  static std::unique_ptr<EventLoop> create(Backend preference = Backend::kAuto);
};

}  // namespace agentloc::net
