#!/usr/bin/env python3
"""The benchmark's own test: every workload in --quick mode, timed and
traced, must build, pass its checks and print the metrics BENCHMARK.json
names, in the output format the benchmark promises.

    python3 perfbench/test_quick.py            # from the repository root

Takes about half a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload["name"], "--seed", "7",
                       "--seconds", "1", "--trace", str(trace), "--quick"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = "%s trace=%d" % (workload["name"], trace)
            failures_before = len(failures)
            if done.returncode != 0:
                failures.append("%s: exit %d\n%s" % (label, done.returncode,
                                                     done.stderr[-2000:]))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            wanted = spec["per_layer" if trace else "end_to_end"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append("%s: unexpected keys %s" % (label, sorted(result)))
            if not result["correct"]:
                failures.append("%s: checks failed\n%s" % (label, done.stdout))
            if not result["attempted"] >= 1:
                failures.append("%s: nothing attempted" % label)
            names = sorted(m["name"] for m in wanted)
            if sorted(result["metrics"]) != names:
                failures.append("%s: metrics %s, expected %s"
                                % (label, sorted(result["metrics"]), names))
            for metric in wanted:
                got = result["metrics"].get(metric["name"], {})
                if got.get("unit") != metric["unit"]:
                    failures.append("%s: %s has unit %s" % (
                        label, metric["name"], got.get("unit")))
                if not trace and not got.get("value", 0) > 0:
                    failures.append("%s: %s is not positive" % (
                        label, metric["name"]))
            print(("ok   " if len(failures) == failures_before else "FAIL ")
                  + label, flush=True)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
