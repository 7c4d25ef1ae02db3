#!/usr/bin/env python3
"""Shortened-length self-test of the repo benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the default seed for one second,
untraced and traced, through perfbench/run.py, and asserts that each run
passes its correctness checks, that its JSON result carries exactly the
end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json with
their units, that the table printed every one of them with its unit, and
that a traced run wrote a loadable Chrome trace. Finally it checks that the
benchmark refuses to run from a copy holding only BENCHMARK.json and
perfbench/ (no program sources). Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1  # the default seed: the golden checks run too


def check(ok, message):
    if not ok:
        print("selftest FAILED: " + message)
        sys.exit(1)


def run(cwd, workload, trace, seconds="1"):
    command = ["python3", os.path.join("perfbench", "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", seconds, "--trace",
               trace]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            label = "%s trace=%s" % (workload, trace)
            result = run(ROOT, workload, trace)
            check(result.returncode == 0,
                  "%s exited %d\n%s%s" % (label, result.returncode,
                                          result.stdout, result.stderr))
            lines = result.stdout.strip().splitlines()
            final = json.loads(lines[-1])
            check(set(final) == {"correct", "attempted", "failed", "metrics"},
                  label + ": result keys " + str(sorted(final)))
            check(final["correct"] is True and final["failed"] == 0 and
                  final["attempted"] >= 1, label + ": run not correct")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            check(got == wanted, "%s: metrics %s, BENCHMARK.json lists %s" %
                  (label, got, wanted))
            table = {}
            for line in lines[:-1]:
                fields = line.split()
                if len(fields) == 5 and fields[4] in ("end-to-end", "layer"):
                    table[fields[0]] = fields[2]
            for name, unit in wanted.items():
                check(table.get(name) == unit,
                      "%s: table row for %s lacks unit %s" % (label, name, unit))
            if trace == "1":
                path = os.path.join(ROOT, ".bench_build", "perfbench", "traces",
                                    "%s-seed%d.json" % (workload, SEED))
                with open(path) as handle:
                    events = json.load(handle)["traceEvents"]
                check(any(e["name"] == "round" for e in events),
                      label + ": Chrome trace has no round spans")
            print("ok  " + label)

    # Without the program's sources the benchmark must fail, quickly and
    # without printing a result.
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        result = run(bare, spec["workloads"][0]["name"], "0")
        check(result.returncode != 0 and '"metrics"' not in result.stdout,
              "a copy without src/ still produced a result")
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the program sources")


if __name__ == "__main__":
    main()
