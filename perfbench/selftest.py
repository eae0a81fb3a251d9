"""Self-test of the benchmark; exits non-zero on the first failed check.

Usage (from the repository root): python3 perfbench/selftest.py

For the smallest job of each workload it runs one untraced and two traced
cold sessions and checks that all three reproduce the reference digest and
exit code (tracing must not change results), that every per-layer metric
the benchmark promises is reported, and that call counts repeat exactly
between the two traced sessions.  It also checks that ``BENCHMARK.json``
lists exactly the per-layer metrics that ``run.py --trace 1`` prints.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
sys.path.insert(0, HERE)

from layertrace import ENTRY_POINTS  # noqa: E402

SMALLEST = {
    "tower": ["tower", "check", "--p", "2", "--n", "2", "--r", "1", "--s", "1"],
    "value": ["green", "value", "--group", "S4", "--p", "3", "--n", "3"],
    "audit": ["audit", "mackey", "--group", "C2xC4", "--p", "2", "--n", "1"],
}

# the per-layer metrics each workload's traced run must report
REQUIRED = [
    "fgl.honda_fgl.self_s", "fgl.honda_fgl.calls", "fgl.formal_inverse.self_s",
    "fgl.m_series.self_s",
    "hopftower.honda_level.self_s", "hopftower.hopf_check.self_s",
    "hopftower.is_hopf_map.self_s", "hopftower.pdiv_check.self_s",
    "hopftower.honda_level.calls",
    "borel.mul_vec.self_s", "borel.mul_vec.calls", "borel.check_module_map.self_s",
    "borel.check_module_map.calls", "borel.Subalgebra.self_s",
    "borel.from_generator_images.self_s", "borel.check_multiplicative.self_s",
    "borel.tensor.self_s", "borel.BorelAlgebra.self_s",
    "frobform.gysin.self_s", "frobform.gysin.calls", "frobform.canonical_form.self_s",
    "exactkernel.rref.self_s", "exactkernel.rref.calls", "exactkernel.subspace_contains.calls",
    "green.restrict.self_s", "green.restrict.calls", "green.stable_elements.self_s",
    "green.functor.self_s",
    "grp.self_s", "audit.self_s", "cli.self_s",
]


def check(ok: bool, message: str) -> None:
    if not ok:
        sys.exit("selftest FAILED: " + message)


def session(argv, trace: bool) -> dict:
    request = json.dumps({"jobs": [argv], "trace": trace})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), request],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def metric_names(layers) -> set:
    return {name + suffix for name in layers for suffix in (".self_s", ".calls")}


def main() -> None:
    with open(os.path.join(HERE, "jobs.json")) as fh:
        workloads = json.load(fh)
    promised = metric_names([*ENTRY_POINTS, "grp"]) | {"trace.overhead"}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    check(listed == promised, "BENCHMARK.json per_layer differs from the traced metrics: %s"
          % sorted(listed ^ promised))
    check(set(REQUIRED) <= promised, "missing %s" % sorted(set(REQUIRED) - promised))
    for name, argv in SMALLEST.items():
        (ref,) = [job for job in workloads[name] if job["argv"] == argv]
        runs = [session(argv, trace) for trace in (False, True, True)]
        for run, label in zip(runs, ("untraced", "traced", "traced again")):
            (got,) = run["jobs"]
            check(got["error"] is None, "%s %s: %s" % (name, label, got["error"]))
            check((got["exit"], got["sha256"]) == (ref["exit"], ref["sha256"]),
                  "%s %s: output differs from the reference" % (name, label))
        first, second = runs[1]["layers"], runs[2]["layers"]
        check(set(REQUIRED) <= metric_names(first),
              "%s: traced run lacks %s" % (name, sorted(set(REQUIRED) - metric_names(first))))
        calls = [{k: v["calls"] for k, v in layers.items()} for layers in (first, second)]
        check(calls[0] == calls[1], "%s: call counts differ between traced runs" % name)
        busy = sorted(first, key=lambda k: -first[k]["self_s"])[:3]
        print("ok %-6s %-45s exit %d; top self time: %s" % (
            name, " ".join(argv), ref["exit"],
            ", ".join("%s %.3f s" % (k, first[k]["self_s"]) for k in busy)))
    print("selftest passed")


if __name__ == "__main__":
    main()
