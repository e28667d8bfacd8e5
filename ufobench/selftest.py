#!/usr/bin/env python3
"""Self-test of the benchmark: quick mode on every workload, plain and
traced, then a deliberately corrupted answer and count on every workload,
each of which must be flagged, counted as failed and make run.py exit 1.

    python3 ufobench/selftest.py      # from the repository root
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--quick"] + list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, universal_newlines=True,
                       timeout=600)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def main():
    errors = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            errors.append(what)

    for w in (x["name"] for x in SPEC["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            rc, res = bench(w, "--trace", trace)
            names = {m["name"] for m in SPEC[group]}
            check(rc == 0 and res["correct"] and res["failed"] == 0 and
                  res["attempted"] > 0 and set(res["metrics"]) == names,
                  "%s --trace %s: correct, every %s metric" % (w, trace, group))
        for what in ("answer", "count"):
            rc, res = bench(w, "--trace", "0", "--corrupt", what)
            check(rc == 1 and not res["correct"] and res["failed"] >= 1,
                  "%s: corrupted %s is flagged and counted" % (w, what))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
