// perfbench_harness: runs ONE round of one workload and prints its result
// as a single JSON line on stdout. perfbench/run.py calls it once per round
// and aggregates rounds into the benchmark's metrics.
//
//   perfbench_harness --workload paper-figs --seed 3 [--trace 1] [--quick 1]
//   perfbench_harness --workload wire-serve --seed 3 --agentlocd PATH
//                     --socket PATH
//
// Exit status: 0 when the round ran to its end (whether or not its checks
// passed — see "correct"), 2 on bad arguments, 1 when the round could not
// run at all.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/logging.hpp"

namespace perfbench {

namespace {

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

JsonObject& JsonObject::num(const std::string& key, double value) {
  char buffer[64];
  if (std::isfinite(value)) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "null");
  }
  fields_.emplace_back(key, buffer);
  return *this;
}

JsonObject& JsonObject::count(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + escape(value) + "\"");
  return *this;
}

JsonObject& JsonObject::object(const std::string& key,
                               const JsonObject& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}

JsonObject& JsonObject::strings(const std::string& key,
                                const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + escape(values[i]) + "\"";
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + escape(fields_[i].first) + "\":" + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--quick") {
      options.quick = value == "1";
    } else if (key == "--agentlocd") {
      options.agentlocd = value;
    } else if (key == "--socket") {
      options.socket_path = value;
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown option %s\n",
                   key.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench_harness: options come in pairs\n");
    return 2;
  }

  // Every WARN line the program emits is counted by the workloads through
  // the logger's public sink; keep stderr for the harness's own messages.
  agentloc::util::Logger::instance().set_level(agentloc::util::LogLevel::kWarn);

  Round round;
  try {
    if (options.workload == "paper-figs") {
      round = run_paper_figs(options);
    } else if (options.workload == "adaptive-rehash") {
      round = run_adaptive_rehash(options);
    } else if (options.workload == "capacity") {
      round = run_capacity(options);
    } else if (options.workload == "wire-serve") {
      round = run_wire_serve(options);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }

  JsonObject out;
  out.str("workload", options.workload)
      .count("seed", options.seed)
      .boolean("correct", round.correct)
      .strings("errors", round.errors)
      .count("attempted", round.attempted)
      .count("failed", round.failed)
      .object("e2e", round.e2e)
      .object("info", round.info)
      .str("digest", round.digest);
  if (options.trace) out.object("layers", round.layers);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
