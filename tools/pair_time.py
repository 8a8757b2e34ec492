#!/usr/bin/env python3
"""Time the same command lines on two ewbench checkouts, in alternating pairs.

    python3 tools/pair_time.py OLD NEW ['lift --case heisenberg ...' ...]

Each checkout's ``src/ewbench`` is copied into a temporary directory as the
packages ``ewbench_old`` and ``ewbench_new``, and WORKERS worker processes
each import both ``cli`` modules, so the two sides of a pair share one
interpreter, one numpy and one machine state.  Half of the workers import
OLD first and half NEW first: in one process, the package imported first
ran 2-3% faster on jobs of about 1 ms.  The argvs are the command lines
given after the two checkouts or, if none is, the ``ewbench ...`` command
lines of README.md (the README-size runs, which perfbench does not time,
matched by ``tools/report_diff.py``'s ``README_ARGV``)
followed by the jobs of one seed-1 cycle of each perfbench workload, which
NEW's perfbench lists in a subprocess, as for ``tools/report_diff.py``; so
a per-job change is sized without the perfbench harness.

Each argv is run once on each side of every worker to warm it, then in
PAIRS pairs dealt to the workers in turn, one worker running at a time.
A pair runs ``cli.main`` in process, with its output discarded, once
untimed on the side that goes first, then timed on first, second, second,
first (which side goes first alternates from pair to pair); a side's time
is the mean of its two runs.  The run that follows the other side's, or a
wait for the next pair, is slower by up to 15% on a 1 ms job, and this
order gives both sides that cost alike.  For each argv the tool prints
both exit codes, each side's median time, and the median over the pairs
of new time / old time.  It uses only the standard library.
"""
from __future__ import annotations

import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

PAIRS = 64
WORKERS = 4
README = Path(__file__).resolve().parent.parent / "README.md"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report_diff  # noqa: E402

# run with the package directory and the side to import first: read one
# JSON [argv, (first, second)] a line, and answer one JSON line
# {side: [exit code, mean seconds of its two timed runs]} of one pair
WORKER = r"""
import contextlib, importlib, io, json, sys, time
packages, first = sys.argv[1:]
sys.path.insert(0, packages)
sides = ("old", "new") if first == "old" else ("new", "old")
clis = {side: importlib.import_module(f"ewbench_{side}.cli") for side in sides}


def run(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        return rc, time.perf_counter() - start


for line in sys.stdin:
    argv, order = json.loads(line)
    run(clis[order[0]], argv)
    out = {side: [None, 0.0] for side in order}
    for side in order + order[::-1]:
        rc, seconds = run(clis[side], argv)
        out[side][0] = rc
        out[side][1] += seconds / 2
    print(json.dumps(out), flush=True)
"""


def start_worker(packages, first):
    """A worker that imports the side ``first`` of ``packages`` first."""
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, packages, first], text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )


def run_pair(worker, argv, order):
    """{side: (exit code, seconds)} of one pair of ``cli.main(argv)`` runs
    on each side of ``worker``, in ``order`` and back."""
    worker.stdin.write(json.dumps([list(argv), order]) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        sys.exit(f"error: a worker stopped at {shlex.join(argv)}")
    return json.loads(line)


# run inside a checkout: the argvs of one seed-1 cycle of each workload
JOBS = r"""
import json, sys
sys.path[:0] = ["src", "perfbench"]
import bench_jobs
print(json.dumps([list(job.argv) for workload in bench_jobs.WORKLOADS
                  for job in bench_jobs.make_jobs(workload, 1, 1)]))
"""


def readme_argvs():
    lines = re.findall(report_diff.README_ARGV, README.read_text(encoding="utf-8"), re.M)
    return [shlex.split(line)[1:] for line in lines]


def perfbench_argvs(checkout):
    proc = subprocess.run(
        [sys.executable, "-c", JOBS], cwd=checkout, capture_output=True, text=True
    )
    if proc.returncode:
        sys.exit(f"error: cannot read the perfbench jobs of {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(args):
    if len(args) < 2:
        sys.exit(__doc__)
    argvs = [shlex.split(a) for a in args[2:]] or readme_argvs() + perfbench_argvs(args[1])
    with tempfile.TemporaryDirectory() as tmp:
        for checkout, side in zip(args[:2], ("old", "new")):
            shutil.copytree(Path(checkout) / "src" / "ewbench", Path(tmp) / f"ewbench_{side}")
        workers = [start_worker(tmp, ("old", "new")[k % 2]) for k in range(WORKERS)]
        try:
            for argv in argvs:
                for worker in workers:
                    warm = run_pair(worker, argv, ("old", "new"))
                times = {"old": [], "new": []}
                for i in range(PAIRS):
                    order = ("old", "new") if i // WORKERS % 2 == 0 else ("new", "old")
                    for side, (_, seconds) in run_pair(workers[i % WORKERS], argv, order).items():
                        times[side].append(seconds)
                ratio = median(n / o for o, n in zip(times["old"], times["new"]))
                print(f"ewbench {shlex.join(argv)}")
                print(
                    f"  exit {warm['old'][0]} -> {warm['new'][0]}; median "
                    f"{median(times['old']):.4f} -> {median(times['new']):.4f} s; "
                    f"new/old median of {PAIRS} pairs {ratio:.3f}"
                )
        finally:
            for worker in workers:
                worker.stdin.close()
                worker.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
