#!/usr/bin/env python3
"""The repository's benchmark: one command for the simulator and the daemon.

    python3 perfbench/run.py --workload paper-figs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload wire-serve --seed 1 --seconds 1 --trace 1 --quick

Run from the repository root. It builds the program and the harness from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs whole rounds of the
workload, one harness process per round, until --seconds have passed (at
least three rounds). Each round checks the program's outputs. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics of BENCHMARK.json as medians over the
rounds (--trace 0), or its per-layer metrics from a traced round
(--trace 1). --quick runs each workload at a small size with every check
on. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-figs", "adaptive-rehash", "capacity", "wire-serve")
MIN_ROUNDS = 3
# Per-layer metrics a workload does not reach read 0: the wire layer's on
# the simulator workloads, the simulator's layers on wire-serve.
WIRE_LAYER_PREFIX = "net."
SIM_NET_METRICS = {"net.sim_bytes_sent"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    out = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("perfbench: the program's sources (src/) are missing")
        return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return out


def cache_value(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_fingerprint(out):
    """CPU model, usable CPUs, last-level cache, compiler, build type and
    kernel of the host the figures come from."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc, level = "", -1
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_root)):
            path = os.path.join(cache_root, entry)
            try:
                with open(os.path.join(path, "level")) as handle:
                    lvl = int(handle.read())
                with open(os.path.join(path, "size")) as handle:
                    size = handle.read().strip()
            except (OSError, ValueError):
                continue
            if lvl > level:
                level, llc = lvl, size
    except OSError:
        pass
    compiler = cache_value(out, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc,
        "compiler": version or compiler,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "kernel": platform.release(),
    }


def run_round(out, args, trace):
    """One harness process = one round. Returns its JSON record, with the
    peak RSS of the harness process added (the simulator's host)."""
    command = [os.path.join(out, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", "1" if trace else "0",
               "--quick", "1" if args.quick else "0"]
    if args.workload == "wire-serve":
        socket_path = os.path.relpath(os.path.join(out, "wire.sock"))
        command += ["--agentlocd", os.path.join(out, "agentlocd"),
                    "--socket", socket_path]
    child = subprocess.Popen(command, stdout=subprocess.PIPE)
    stdout = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        log("perfbench: harness exited with %d" % child.returncode)
        return None
    lines = stdout.decode().strip().splitlines()
    if not lines:
        log("perfbench: harness printed nothing")
        return None
    record = json.loads(lines[-1])
    record["harness_peak_rss_mib"] = usage.ru_maxrss / 1024.0
    return record


def check_rounds(rounds):
    """Every round ran the same operations and reproduced the same
    simulated statistics; returns the error list."""
    errors = []
    for record in rounds:
        errors += record["errors"]
    if len({r["digest"] for r in rounds}) > 1:
        errors.append("rounds of one seed differ in their simulated "
                      "statistics or operation counts")
    if len({(r["attempted"], r["failed"]) for r in rounds}) > 1:
        errors.append("rounds differ in attempted or failed operations")
    return errors


def end_to_end(spec, rounds, workload):
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = []
        for record in rounds:
            if name == "peak_rss_mib" and workload != "wire-serve":
                values.append(record["harness_peak_rss_mib"])
            else:
                values.append(record["e2e"][name])
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    return metrics


def per_layer(spec, traced, untraced, workload):
    layers = dict(traced["layers"])
    untimed = untraced["e2e"]["run_s"]
    layers["trace.overhead_pct"] = (
        (traced["e2e"]["run_s"] - untimed) / untimed * 100.0)
    metrics, missing = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        wire_metric = (name.startswith(WIRE_LAYER_PREFIX)
                       and name not in SIM_NET_METRICS)
        reached = wire_metric == (workload == "wire-serve")
        if name in layers:
            value = layers[name]
        elif not reached or name.startswith("trace."):
            value = 0
        else:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics, missing


def print_report(host, rounds, metrics, traced):
    print("host: " + json.dumps(host, sort_keys=True))
    print("rounds: %d" % len(rounds))
    for number, record in enumerate(rounds, 1):
        print("  round %d: %s" % (number, json.dumps(record["e2e"])))
    for name, metric in metrics.items():
        print("  %-36s %18.6g %s" % (name, metric["value"], metric["unit"]))
    info = (traced or rounds[-1])["info"]
    for key in sorted(info):
        print("  info.%-31s %18.6g" % (key, info[key]))
    if traced is not None and "ladder_sum_s" in info:
        print("ladder: sum over layers %.4f s next to run_s %.4f s; "
              "residual %.1f%% (scheme logic, callbacks, allocation and "
              "cache misses the layer costs do not cover)"
              % (info["ladder_sum_s"], info["ladder_run_s"],
                 100.0 * (1 - info["ladder_sum_s"] / info["ladder_run_s"])))
    if traced is not None and "ladder_sum_us" in info:
        print("ladder: sum over layers %.2f us next to locate RTT p50 "
              "%.2f us; residual %.1f%% (client and server framing of the "
              "locate beyond a ping, and wakeup jitter)"
              % (info["ladder_sum_us"], info["ladder_rtt_p50_us"],
                 100.0 * (1 - info["ladder_sum_us"]
                          / info["ladder_rtt_p50_us"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one round, every check on")
    args = parser.parse_args()
    args.seed %= 2 ** 63

    os.chdir(ROOT)
    spec = load_spec()
    out = build()
    if out is None:
        return 1
    host = host_fingerprint(out)

    rounds, traced = [], None
    if args.trace:
        # A timed round, then the traced round; their run_s differ by the
        # tracing overhead, and their simulated statistics must not.
        for trace in (False, True):
            record = run_round(out, args, trace)
            if record is None:
                return 1
            rounds.append(record)
        traced = rounds[-1]
    else:
        start = time.monotonic()
        min_rounds = 1 if args.quick else MIN_ROUNDS
        while (len(rounds) < min_rounds
               or time.monotonic() - start < args.seconds):
            record = run_round(out, args, False)
            if record is None:
                return 1
            rounds.append(record)

    errors = check_rounds(rounds)
    if args.trace:
        metrics, missing = per_layer(spec, traced, rounds[0], args.workload)
        errors += ["per-layer metric not reported: " + m for m in missing]
    else:
        metrics = end_to_end(spec, rounds, args.workload)
    for name, metric in metrics.items():
        if not args.trace and not metric["value"] > 0:
            errors.append("end-to-end metric %s is not positive" % name)
    print_report(host, rounds, metrics, traced)
    for error in errors:
        print("CHECK FAILED: " + error)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
