"""Record the reference answer of every benchmark job: exit code and the
SHA-256 of its ``--format json --no-timing`` output.

Usage (from the repository root): python3 perfbench/record.py

Each job runs alone in a fresh interpreter, and ``jobs.json`` is rewritten
with the results.  Run it only at a commit whose outputs are known to be
right; the benchmark then fails every job whose output differs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
JOBS = os.path.join(HERE, "jobs.json")


def main() -> None:
    with open(JOBS) as fh:
        workloads = json.load(fh)
    for name, jobs in workloads.items():
        for job in jobs:
            request = json.dumps({"jobs": [job["argv"]], "trace": False})
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), request],
                                  capture_output=True, text=True, check=True)
            (result,) = json.loads(proc.stdout.splitlines()[-1])["jobs"]
            if result["error"]:
                sys.exit("%s %s: %s" % (name, " ".join(job["argv"]), result["error"]))
            job["exit"], job["sha256"] = result["exit"], result["sha256"]
            print(name, " ".join(job["argv"]), "->", result["exit"], result["sha256"][:16])
    lines = []
    for name, jobs in workloads.items():
        rows = ",\n".join("    " + json.dumps(job) for job in jobs)
        lines.append('  "%s": [\n%s\n  ]' % (name, rows))
    with open(JOBS, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
