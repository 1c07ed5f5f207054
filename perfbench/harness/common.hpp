// Shared pieces of the benchmark harness: the round's result record, a
// minimal JSON writer, and host timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Flat JSON object builder; keys keep insertion order. Numbers are written
/// with all their digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& count(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& object(const std::string& key, const JsonObject& value);
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& values);
  bool empty() const noexcept { return fields_.empty(); }
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Command-line options of one harness invocation (one round).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool quick = false;
  std::string agentlocd;    ///< wire-serve: path of the daemon binary
  std::string socket_path;  ///< wire-serve: Unix socket to serve on
};

/// What one round of a workload produced. `e2e` holds the end-to-end
/// figures the round measured (peak RSS of a simulator round is measured
/// by the caller, which owns the process); `layers` is filled by traced
/// rounds only; `digest` lists every simulated statistic, so a traced and
/// an untraced round can be compared for identity.
struct Round {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  JsonObject e2e;
  JsonObject layers;
  JsonObject info;
  std::string digest;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

Round run_paper_figs(const Options& options);
Round run_adaptive_rehash(const Options& options);
Round run_capacity(const Options& options);
Round run_wire_serve(const Options& options);

}  // namespace perfbench
