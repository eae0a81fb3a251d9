"""One cold greenkernel session: a fresh interpreter runs a list of CLI jobs.

Usage: python3 perfbench/worker.py '<request json>'

The request is {"jobs": [[arg, ...], ...], "trace": false}.  Each job runs
in-process through ``greenkernel.cli.dispatch(argv + JSON_FLAGS)`` with stdout
captured, so the jobs share the module caches as one user session would.  An
empty job list measures start-up only.

The last stdout line is one JSON object: ``imported_at`` (CLOCK_MONOTONIC
seconds when ``import greenkernel.cli`` returned), ``wall_s`` of the job list,
``peak_rss_mb`` of this process, per-job ``exit``/``sha256``/``error`` and,
when traced, ``layers`` (self time and calls per span name).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import greenkernel.cli as cli  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

JSON_FLAGS = ["--format", "json", "--no-timing"]


def run_jobs(jobs):
    outputs = []
    start = time.perf_counter()
    for argv in jobs:
        buf = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.dispatch(list(argv) + JSON_FLAGS)
        except Exception as ex:  # a crash is a failed job, reported to the parent
            code, error = None, "%s: %s" % (type(ex).__name__, ex)
        outputs.append((code, buf.getvalue(), error))
    wall_s = time.perf_counter() - start
    return wall_s, [
        {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest(), "error": error}
        for code, text, error in outputs
    ]


def main() -> None:
    if not os.path.realpath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit("greenkernel was imported from %s, not from this checkout" % cli.__file__)
    request = json.loads(sys.argv[1])
    tracer = None
    if request.get("trace"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    wall_s, results = run_jobs(request["jobs"])
    report = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
