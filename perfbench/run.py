"""greenkernel benchmark: cold CLI sessions, output-checked, optionally traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload tower|value|audit --seed N --seconds S --trace 0|1

A workload is a fixed list of CLI jobs (``jobs.json``); the seed permutes its
order, which changes what the module caches share between jobs.  One
repetition runs the whole list in a fresh interpreter (``worker.py``), cold,
single-threaded, in-process through ``greenkernel.cli.dispatch``.  Every
job's exit code and output digest must equal the reference in ``jobs.json``.

Repetitions run back to back for about ``--seconds``, at least one per job
so that every rotation of the seed's order runs; the timings are medians
over them.  ``--trace 0`` reports the end-to-end metrics:

  wall_s        time to finish the job list, from the first job to the last
  setup_s       interpreter start plus ``import greenkernel.cli``; sampled in
                extra start-up-only interpreters too
  peak_rss_mb   peak resident memory of the session processes (their
                maximum: it depends on job order, which repetitions rotate)
  success_rate  jobs that passed the output gate over jobs attempted
                (1 - error_rate; a rate of 0 cannot carry a relative bound)

``--trace 1`` alternates untraced and traced repetitions and reports, per
span name of ``layertrace.ENTRY_POINTS``, ``<name>.self_s`` and
``<name>.calls`` from the traced ones, plus ``trace.overhead`` (traced over
untraced wall time).  Call counts must repeat exactly between traced
repetitions.

Human-readable lines come first, including a host-speed probe that is a
diagnostic, not a metric; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9
MIN_TRACED = 2  # call counts are compared between traced repetitions
HARD_LIMIT_S = 165.0  # the whole run, start-up samples included, ends by then
CHILD_ENV_DROP = ("PYTHONPATH", "GREENKERNEL_BUDGET")
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunAborted(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_probe() -> tuple[float, float]:
    """Seconds for a fixed pure-Python loop and a fixed int64 numpy loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    t1 = time.perf_counter()
    m = np.arange(160 * 160, dtype=np.int64).reshape(160, 160) % 7
    for _ in range(30):
        m = (m @ m + 1) % 7
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


class Session:
    """Spawns worker interpreters and keeps the run inside its time limit."""

    def __init__(self, started: float):
        self.deadline = started + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
        self.env.update(ONE_THREAD)

    def spawn(self, jobs, trace=False) -> tuple[dict, float, float]:
        """Run one worker; return its report, its setup time and its total time."""
        request = json.dumps({"jobs": jobs, "trace": trace})
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise RunAborted("time limit reached before a repetition could start")
        t0 = monotonic()
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), request],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunAborted("a repetition ran past the time limit")
        t1 = monotonic()
        if proc.returncode != 0:
            raise RunAborted("worker exited with %d: %s" % (proc.returncode, proc.stderr.strip()))
        report = json.loads(proc.stdout.splitlines()[-1])
        return report, report["imported_at"] - t0, t1 - t0


def gate(jobs, report) -> int:
    """Number of jobs whose exit code or output digest differs from the reference."""
    failed = 0
    for job, got in zip(jobs, report["jobs"]):
        if got["error"] or got["exit"] != job["exit"] or got["sha256"] != job["sha256"]:
            failed += 1
            print("FAILED %s: exit %s, error %s" % (" ".join(job["argv"]), got["exit"],
                                                     got["error"]), file=sys.stderr)
    return failed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "greenkernel", "cli.py")):
        print("no greenkernel sources at %s/src/greenkernel" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "jobs.json")) as fh:
        workloads = json.load(fh)
    if args.workload not in workloads:
        print("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)),
              file=sys.stderr)
        return 2
    order = random.Random(args.seed).sample(workloads[args.workload],
                                            len(workloads[args.workload]))
    session = Session(started)
    probe_before = host_probe()

    attempted = failed = 0
    setups, walls, rss, traced_walls, traced_layers = [], [], [], [], []
    try:
        session.spawn([])  # writes the bytecode caches; not a sample
        for _ in range(SETUP_SAMPLES):
            setups.append(session.spawn([])[1])
        loop_start = monotonic()
        kinds = [False, True] if args.trace else [False]
        for rep in itertools.count():
            # Untraced repetitions rotate the seed's order, so that each job
            # takes each position once per len(order) repetitions; traced runs
            # keep one order, so that call counts can be compared.
            shift = 0 if args.trace else rep % len(order)
            jobs = order[shift:] + order[:shift]
            cycle_s = 0.0
            for trace in kinds:
                report, setup_s, total_s = session.spawn([job["argv"] for job in jobs], trace)
                cycle_s += total_s
                attempted += len(jobs)
                failed += gate(jobs, report)
                setups.append(setup_s)
                if trace:
                    traced_walls.append(report["wall_s"])
                    traced_layers.append(report["layers"])
                else:
                    walls.append(report["wall_s"])
                    rss.append(report["peak_rss_mb"])
            enough = len(traced_layers) >= MIN_TRACED if args.trace else rep + 1 >= len(order)
            if enough and monotonic() - loop_start + cycle_s > args.seconds:
                break
    except RunAborted as ex:
        print("run aborted: %s" % ex, file=sys.stderr)
        failed += len(order)
        attempted += len(order)
    probe_after = host_probe()

    correct = failed == 0
    print("workload %s, seed %d, job order: %s" % (
        args.workload, args.seed, " | ".join(" ".join(job["argv"]) for job in order)))
    print("repetitions: %d untraced, %d traced; %d start-up samples" % (
        len(walls), len(traced_walls), len(setups)))
    print("wall_s per repetition: untraced %s; traced %s" % (
        " ".join("%.3f" % w for w in walls), " ".join("%.3f" % w for w in traced_walls)))
    print("host probe (diagnostic): python %.4f s, numpy %.4f s before; "
          "python %.4f s, numpy %.4f s after" % (*probe_before, *probe_after))
    print("error_rate %.4f (%d of %d jobs failed)" % (failed / attempted, failed, attempted))
    metrics = {}
    if walls and not args.trace:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(rss), "MB"),
            "success_rate": ((attempted - failed) / attempted, "share"),
        }
    elif traced_layers:
        calls = [{name: v["calls"] for name, v in layers.items()} for layers in traced_layers]
        if any(c != calls[0] for c in calls[1:]):
            print("call counts differ between traced repetitions", file=sys.stderr)
            correct = False
        for name in traced_layers[0]:
            metrics[name + ".self_s"] = (
                statistics.median(layers[name]["self_s"] for layers in traced_layers), "s")
            metrics[name + ".calls"] = (calls[0][name], "count")
        metrics["trace.overhead"] = (
            statistics.median(traced_walls) / statistics.median(walls), "ratio")
    correct = correct and bool(metrics)
    for name, (value, unit) in metrics.items():
        print("%-40s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
