#!/usr/bin/env python3
"""Time the same command lines on two ewbench checkouts, in one process.

    python3 tools/pair_time.py OLD NEW ['lift --case heisenberg ...' ...]

Each checkout's ``src/ewbench`` is copied into a temporary directory as the
packages ``ewbench_old`` and ``ewbench_new``, and both ``cli`` modules are
imported into this process, so the two sides share one interpreter, one
numpy and one machine state.  The argvs are the command lines given after
the two checkouts or, if none is, the ``ewbench ...`` command lines of
README.md (the README-size runs, which perfbench does not time) followed by
the jobs of one seed-1 cycle of each perfbench workload, which NEW's
perfbench lists in a subprocess, as for ``tools/report_diff.py``; so a
per-job change is sized without the perfbench harness.  Each argv is run
once on each side to warm it, then PAIRS times on each side in alternating
order (old first in even pairs, new first in odd ones), calling
``cli.main`` in process with its output discarded.  For each argv the tool
prints both exit codes, each side's median wall time, and the median over
the pairs of new time / old time.  It uses only the standard library.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

PAIRS = 15
README = Path(__file__).resolve().parent.parent / "README.md"


def load_cli(checkout, name, into):
    """The ``cli`` module of ``checkout``'s ewbench, imported as ``name``."""
    shutil.copytree(Path(checkout) / "src" / "ewbench", Path(into) / name)
    return importlib.import_module(f"{name}.cli")


def run_once(cli, argv):
    """(exit code, seconds) of one in-process ``cli.main(argv)``."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        return rc, time.perf_counter() - start


# run inside a checkout: the argvs of one seed-1 cycle of each workload
JOBS = r"""
import json, sys
sys.path[:0] = ["src", "perfbench"]
import bench_jobs
print(json.dumps([list(job.argv) for workload in bench_jobs.WORKLOADS
                  for job in bench_jobs.make_jobs(workload, 1, 1)]))
"""


def readme_argvs():
    lines = re.findall(r"^ewbench +[a-z].*$", README.read_text(encoding="utf-8"), re.M)
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
        sys.path.insert(0, tmp)
        old, new = load_cli(args[0], "ewbench_old", tmp), load_cli(args[1], "ewbench_new", tmp)
        for argv in argvs:
            rc_old, _ = run_once(old, argv)
            rc_new, _ = run_once(new, argv)
            times_old, times_new = [], []
            for i in range(PAIRS):
                sides = ((old, times_old), (new, times_new))
                for cli, times in sides if i % 2 == 0 else sides[::-1]:
                    times.append(run_once(cli, argv)[1])
            ratio = median(n / o for o, n in zip(times_old, times_new))
            print(f"ewbench {shlex.join(argv)}")
            print(
                f"  exit {rc_old} -> {rc_new}; median {median(times_old):.4f} -> "
                f"{median(times_new):.4f} s; new/old median of {PAIRS} pairs {ratio:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
