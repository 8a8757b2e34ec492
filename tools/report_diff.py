#!/usr/bin/env python3
"""Compare the reports of two ewbench checkouts, argv by argv.

    python3 tools/report_diff.py OLD NEW ['lift --case heisenberg ...' ...]

The argvs are every perfbench job of seeds 1-3, as
``perfbench/run.py --seconds 30`` makes them, the ``ewbench ...`` command
lines of README.md, the command lines of the sets in ``ARGV_SETS`` (the
comment above each set says what it covers), and any extra command lines
given after the two checkouts.
One subprocess per checkout runs them all through
``ewbench.cli.main`` in process, with that checkout's ``src`` first on the
path.  The tool prints
each argv whose exit code, stdout (without its ``wall_time_s`` line) or
stderr differs, and exits 1 on any difference, 0 when there is none.  Over
the argvs whose exit codes match and whose stdout is a JSON report on both
sides, it then sums up the shift: each leaf path that differs
(``checks.monopole.max``; the entries of a list share its path), the argvs
it differs in, and its largest |delta|, which for a check's ``max`` and
``mean`` is a fraction of the check's ``tol`` and for its ``worst_point``
is left out (the point only moved); then the number of changed
verdicts.  It uses only the standard library; each checkout's perfbench
reads its jobs.
"""
from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
SECONDS = 30
# a command line of README.md, one a line (``tools/pair_time.py`` reads it too)
README_ARGV = r"^ewbench +[a-z].*$"

# expression data without coordinates, residuals the same at every point,
# and guards that constant data fails everywhere: constants that must fold
# (or fail) with the bits of a per-point evaluation, and exhaust sampling
# with the numbers of a run to the draw cap
CONSTANT_DATA = (
    "verify --case class-b --F -1/4",
    "verify --case class-b --F 2^0.5 --checks gt,monopole,psi --c 0.3",
    "verify --case class-b --F 1/1e-300",
    "verify --case class-b --F 1/0",
    "verify --case class-b --F 1e308",
    "lift --case class-b --F -1/4 --ell -1 --checks em,maxwell,invariants",
    "lift --case class-b --F 1 --chart alpha --checks em,maxwell,invariants",
    "verify --case from-H --H 5",
    "verify --case class-c --K 2",
    "verify --case class-a --beta 5",
    "verify --case class-a --beta y-2",
    "limit --case class-b --ells -100,-200",
    "limit --case class-b --ells 100,200 --c 0.7",
    "verify --case from-H --H x+y --checks hypercr --points 2000",
    "verify --case from-H --H 5 --checks hypercr,gt,monopole --points 50",
    "verify --case class-b --F 1e-3 --points 2",
    "lift --case class-b --F 1e-3 --points 2",
    "verify --case from-G --points 2 --A p",
)

# every catalog case at its defaults, the lift and limit families, each
# subcommand at all its defaults (so its default echo is compared), and the
# error paths of case lookup, the ell choice and the flags a case reads
CATALOG = (
    "verify --case class-c",
    "lift --case heisenberg --ell -1",
    "limit",
    "verify --case heisenberg --points 5",
    "verify --case class-a --points 5",
    "verify --case class-b --points 5",
    "verify --case class-c --points 5",
    "verify --case from-H --points 5",
    "verify --case from-G --points 5",
    "lift --case heisenberg --points 5",
    "lift --case class-b --points 5",
    "limit --case heisenberg --ells 100,200",
    "limit --case class-b --ells 100,200",
    "limit --ells 100,200",
    "verify --case nope",
    "verify --checks gt",
    "limit --case class-a",
    "lift --case class-b --F 1e200 --points 3",
    "lift --case class-a --points 3",
    "lift --case heisenberg --ell 1 --points 3",
    "verify --case heisenberg --F 1",
    "verify --case class-a --ell 2",
    "lift --case class-b --K s",
    "verify --case class-c --H x",
    "lift --case from-H --A p",
    "verify --case from-G --beta y",
)

# every check of verify and lift on both fibre charts, the alpha chart's ell
# bound under the invariants check, a check its structure cannot build, and
# the choice of ell for a small, a vanishing and an overflowing -2/V
CHECKS = (
    "lift --case heisenberg --checks gt,monopole,hypercr,psi,weyl --points 5",
    "verify --case heisenberg --checks gt,monopole,hypercr,psi,weyl --c 0.5 --points 5",
    "lift --case class-b --chart alpha --checks invariants,em --points 5",
    "lift --case heisenberg --ell 1e151 --checks em,invariants --points 3",
    "lift --case class-b --checks hypercr --points 3",
    "verify --case heisenberg --f x --checks hypercr --points 3",
    "lift --case class-b --F 1e12 --points 3",
    "lift --case from-H --H y --points 3",
    "lift --case class-b --F 1e308 --points 3",
)

# a check its chart cannot serve, refused before sampling; limit ratios that
# overflow; negative numbers in exponent form; heisenberg at the ends of the
# float range of ell, whose u = 4x/ell scales by an infinite, a huge or a
# tiny factor; the alpha chart just inside its ell bound; order-3 jets under
# eval; a sample size past the float range; a non-ASCII digit; an infinite
# literal inside a failing subexpression; an option given "=--"; heisenberg's
# V overflowing under lift; expression constants that are not finite, --f's
# included; and the --tol and --checks that limit does not read
EDGES = (
    "verify --case class-a --checks gt,hypercr",
    "lift --case class-b --checks em,hypercr",
    "limit --case heisenberg --ells 1,1e154",
    "limit --case class-b --ells 1,1e300",
    "verify --case heisenberg --tol -1e-9",
    "verify --case heisenberg --ell -1e-9",
    "verify --case heisenberg --checks gt,psi --c -1e308",
    "verify --case heisenberg --ell 1e-308",
    "verify --case heisenberg --ell 5e-324",
    "verify --case heisenberg --ell 1e308",
    "verify --case heisenberg --ell -3e-200 --checks gt,monopole,weyl,psi --c 0.7",
    "lift --case heisenberg --ell 1e140 --chart alpha --checks em,maxwell,invariants",
    "verify --case heisenberg --checks ''",
    "lift --case heisenberg --checks '' --points 3",
    "limit --case ''",
    "limit --ells ''",
    "verify --case heisenberg --f '' --checks gt --points 3",
    "verify --case heisenberg --checks gt --points 3 --out ''",
    "limit --ells '100,,200'",
    "limit --case class-b --ells ',100,200'",
    "limit --ells '100,200,'",
    "limit --case nope",
    "limit --ells 100,200,0",
    "limit --case class-a --ells 100,0",
    "eval --expr 1/x --at x=1e100 --order 3",
    "eval --expr x^3*y --at x=1,y=2 --order 3",
    "verify --case heisenberg --points 1" + "0" * 399,
    "eval --expr 'y^²' --at y=2",
    "verify --case from-H --H 'x^1e999' --points 3",
    "verify --case class-b --F '1e999/1e-320' --points 3",
    "verify --case heisenberg --checks=-- --points 3",
    "verify --case heisenberg --config=--",
    "lift --case heisenberg --ell 5e-324 --points 3",
    "verify --case class-a --beta 1e999 --points 3",
    "verify --case from-H --H 1e999 --points 3",
    "lift --case class-b --F 1e999 --points 3",
    "verify --case class_b --points 2",
    "limit --case class_b",
    "lift --case Heisenberg",
    "limit --case heisenberg --ells 1,2 --tol 1e-300",
    "limit --checks limit",
    "verify --case heisenberg --f 1e999 --checks gt --points 3",
)

# what each job packs once, at the highest order its checks read: every
# lift check alone and maxwell before em, on both fibre charts; weyl alone
# and before gt; from-G, whose coframe metric cannot be packed to order 2;
# hypercr's u and w beside monopole's and psi's omega; and psi = c omega at
# c = 0 of either sign and at c = 0.5, under each subcommand
PLANS = tuple(
    f"lift --case heisenberg --ell {ell} --c {c} --chart {chart} --checks {checks} --points 5"
    for chart, ell, c in (("p", -1, 0.5), ("alpha", -2, 0.3))
    for checks in ("em", "maxwell", "invariants", "maxwell,em")
) + (
    "verify --case class-c --checks weyl --points 5",
    "verify --case class-c --checks weyl,gt --points 5",
    "verify --case from-G --checks gt,monopole,weyl --points 5",
    "verify --case from-H --checks monopole,hypercr --points 5",
    "verify --case from-H --checks psi,hypercr --c 0.5 --points 5",
) + tuple(
    argv.format(c=c)
    for argv in (
        "verify --case class-a --checks gt,psi --c {c} --points 5",
        "lift --case heisenberg --checks em,maxwell,psi --c {c} --points 5",
        "limit --case heisenberg --ells 100,200 --c {c}",
        "limit --case class-b --ells 100,200,1000 --c {c}",
    )
    for c in ("0", "-0.0", "0.5")
)

# each job handed one batch: psi = 0 omega of either sign on every catalog
# case, checked by its coframe alone; a batch that raises (a singular
# coframe) and one with a non-finite row, each evaluated again point by
# point; and a sparse-guard sample of 50 points
BATCHES = tuple(
    f"verify --case {case} --checks psi --c {c} --points 5"
    for case in ("heisenberg", "class-a", "class-b", "class-c", "from-H", "from-G")
    for c in ("0", "-0.0")
) + (
    "verify --case from-H --H 1e308*x^3 --checks psi --points 5",
    "verify --case from-H --H 'x^2*(1e308*y-2.5e308)' --checks psi --points 20",
    "verify --case class-b --F '0.0102*(p-1)' --checks gt --points 50 --seed 5",
)

# the checks that read the frame arrays: gt, monopole and psi = c omega on
# every catalog case after a gauge transform, beside em in one lift job, on
# a from-H coframe that overflows, and on a singular class-b coframe
FRAMES = tuple(
    f"verify --case {case} --checks gt,monopole,psi --c 0.5 --f 0.3*t --points 5"
    for case in ("heisenberg", "class-a", "class-b", "class-c", "from-H", "from-G")
) + (
    "lift --case heisenberg --checks gt,monopole,psi,em --points 5",
    "verify --case from-H --H 1e308*x^3 --checks gt --points 5",
    "verify --case from-H --H 1e308*x^3 --checks monopole --points 5",
    "verify --case from-H --H 1e308*x^3 --checks psi --c 0.5 --points 5",
    "verify --case class-b --F 1e-13 --checks monopole --points 5",
)

# both limit families with one ell at each extreme scale of
# tests/test_exit_codes.py and at +-1e-80, where class B's 1/F folds at
# order 0 but not through order 3, after 100 and before it, so that the ell
# that fails comes first and last; ells of both signs; and, at c = 0.5, the
# default ells and three ells in one pass
EXTREME_SCALES = (
    "0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e-80", "-1e-80", "1e150", "1e154",
    "1e200", "1e300", "-1e300", "1e308", "-1e308",
)
LIMITS = tuple(
    f"limit --case {case} --ells {ells}"
    for case in ("heisenberg", "class-b")
    for v in EXTREME_SCALES
    for ells in (f"100,{v}", f"{v},100")
) + tuple(
    f"limit --case {case} {flags}"
    for case in ("heisenberg", "class-b")
    for flags in ("--ells -100,100", "--c 0.5", "--c 0.5 --ells 100,200,1000")
)

# expressions whose literals are constant jets: in sums, products, quotients
# and powers, past the float range, dividing by zero, and under eval, where
# the parts are printed with the sign of each zero (2*(-x) at x=-1 has the
# second derivative +0.0), including the seven signed-zero evaluations that
# tests/test_numpy_calls.py pins; and from-H's default H and class-c's
# t*p^2, which raise a jet to an integer power at every point
LITERALS = (
    "verify --case from-H --H '1/sqrt(y^2-4*x*t)' --checks hypercr,gt,monopole,weyl --points 20",
    "verify --case class-c --checks gt,monopole,weyl --points 20",
    "verify --case from-H --H '0.5*x^2-3*y*t+1/(2+x^2)' --checks hypercr,gt,monopole --points 5",
    "verify --case from-H --H '2*x-y*t/3+4' --checks hypercr,gt,monopole,psi --c 0.5 --points 5",
    "verify --case class-b --F '2^p' --checks gt,monopole,weyl --points 5",
    "verify --case class-b --F '1e308*p' --points 5",
    "verify --case class-b --F 'p/0' --points 5",
    "verify --case class-b --F '3-1/p' --checks gt,monopole,psi --c 0.3 --points 5",
    "verify --case class-a --beta '3-2*y' --points 5",
    "verify --case class-c --K '2*s+1' --checks gt,monopole,weyl --points 5",
    "lift --case class-b --F '0.5+p^2/4' --checks em,maxwell,invariants --points 3",
    "eval --expr '2*x^3-x/4' --at x=1.5 --order 3",
    "eval --expr 'x^0+x^1' --at x=2 --order 3",
    "eval --expr '2*(-x)' --at x=-1 --order 3",
    "eval --expr '2*(-sin(y))' --at x=-1,y=1 --order 3",
    "eval --expr '2+(-x)' --at x=-1 --order 3",
    "eval --expr '1-y' --at x=-1,y=1 --order 3",
    "eval --expr 'y^2' --at x=1,y=-1 --order 3",
    "eval --expr '1/(-y)+3*(x-y)' --at x=1,y=-2 --order 3",
    "eval --expr '1*(-(y-x))' --at x=-1,y=1 --order 3",
    "eval --expr '2*(-x)' --at x=-1,y=0 --order 3",
    "eval --expr '2+(-x)' --at x=-1,y=1 --order 3",
    "eval --expr '1/(-y)' --at x=1,y=-2 --order 3",
    "eval --expr '(-x)^3-1e308*x' --at x=-1 --order 3",
    "eval --expr 'x/0' --at x=1 --order 2",
    "eval --expr '1/0+x' --at x=1",
    "eval --expr '0^-1' --at x=1",
    "eval --expr 'exp(800)*x' --at x=1",
)

# every lift check on both fibre charts over each lift base: heisenberg,
# class-b at three F (on whose chart the fibre is named q) and class-c;
# class-a, which exits at the gauge; and heisenberg past the alpha chart's
# ell bound, on the alpha chart and on the p chart
FIBRES = tuple(
    f"lift --case {case} --chart {chart} --checks em,maxwell,invariants --points 5"
    for case in (
        "heisenberg", "class-b --F 1", "class-b --F 2", "class-b --F 1+p^2", "class-c", "class-a",
    )
    for chart in ("p", "alpha")
) + (
    "lift --case heisenberg --chart alpha --ell 1e151 --points 3",
    "lift --case heisenberg --chart p --ell 1e151 --points 3",
)

# the psi check beside the lift checks that embed psi, on each lift base
# and both fibre charts, at a psi with components and at the zero psi
PSI = tuple(
    f"lift --case {case} --chart {chart} --c {c} --checks psi,em,maxwell --points 5"
    for case in ("heisenberg", "class-b --F 1", "class-c")
    for chart in ("p", "alpha")
    for c in ("0.5", "-0.0")
)

# the paths that differentiate a form on its packed jets: gt, monopole and
# weyl after a gauge transform, F = dA under em, maxwell and invariants on
# both fibre charts, and the limit's F terms
FORMS = (
    "verify --case heisenberg --f 'x*y' --checks gt,monopole,weyl --points 20",
    "verify --case class-b --F '1+p^2' --f 'sin(p*t)' --checks gt,monopole,weyl --points 20",
    "verify --case class-a --beta 'exp(t)*sin(y)' --f 'y*t' --checks gt,monopole,weyl --points 20",
    "lift --case heisenberg --ell -1 --c 0.5 --chart alpha --checks maxwell,invariants --points 200",
    "lift --case class-b --F 1 --c 0.5 --chart p --checks em,maxwell,invariants --points 200",
    "limit --case heisenberg --ells 1e6,1e7,1e8 --c 0.5",
)

# fields whose derivatives are constants, taken from their jets: a gauge f
# that is a constant (of either zero sign) or affine, and heisenberg's
# u = 4/ell x at an ell where 4/ell overflows and one where it is huge
AFFINE = tuple(
    f"verify --case {case} --f {f} --checks gt,monopole,psi,weyl --c 0.5 --points 20"
    for case, f in (
        ("heisenberg", "2"),
        ("heisenberg", "-0.0"),
        ("heisenberg", "'0.5*x-1'"),
        ("heisenberg", "-t"),
        ("class-b --F 2", "'0*p'"),
    )
) + tuple(
    f"lift --case heisenberg --ell {ell} --checks em,maxwell,invariants --points 20"
    for ell in ("5e-324", "-1e-300")
)

# batches past perfbench's sizes, where rounding shifts of the batched
# contractions and any dependence of a row on the others would show
LARGE = (
    "lift --case class-b --checks em,maxwell,invariants --points 1000 --seed 3",
    "verify --case class-c --checks gt,monopole,weyl --points 2000 --seed 3",
    "lift --case heisenberg --chart alpha --checks em,maxwell,invariants --points 500 --seed 3",
)

# every argv set above, in the order they run
ARGV_SETS = (
    CONSTANT_DATA + CATALOG + CHECKS + EDGES + LARGE + PLANS + BATCHES + FRAMES + LIMITS
    + LITERALS + FIBRES + PSI + FORMS + AFFINE
)

# run inside a checkout with ``runner_args``: one JSON line [argv, exit
# code, stdout, stderr] per distinct argv, in order
RUNNER = r"""
import contextlib, io, json, re, shlex, sys
sys.path[:0] = ["src", "perfbench"]
import run
from ewbench import cli

seeds, seconds, readme_argv, extra = json.loads(sys.argv[1])
argvs = []
for workload in run.bench_jobs.WORKLOADS:
    cycles, _ = run.cycles_for(workload, seconds, min_jobs=run.MIN_JOBS)
    for seed in seeds:
        argvs += [list(job.argv) for job in run.bench_jobs.make_jobs(workload, seed, cycles)]
with open("README.md", encoding="utf-8") as fh:
    lines = re.findall(readme_argv, fh.read(), re.M)
argvs += [shlex.split(line)[1:] for line in lines] + [shlex.split(e) for e in extra]
seen = set()
for argv in argvs:
    if tuple(argv) in seen:
        continue
    seen.add(tuple(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc, err = "raised", io.StringIO(f"{type(exc).__name__}: {exc}")
    text = re.sub(r'^ *"wall_time_s": .*\n', "", out.getvalue(), flags=re.M)
    print(json.dumps([argv, rc, text, err.getvalue()]), flush=True)
"""


def runner_args(extra):
    """The JSON argument of RUNNER, with the extra command lines ``extra``."""
    return json.dumps([SEEDS, SECONDS, README_ARGV, extra])


def reports(checkout, extra):
    """{argv: (exit code, stdout, stderr)} of every argv in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, runner_args(extra)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"error: the runner failed in {checkout}:\n{proc.stderr}")
    rows = (json.loads(line) for line in proc.stdout.splitlines())
    return {tuple(argv): tuple(rest) for argv, *rest in rows}


def report_of(stdout):
    """The JSON report printed as ``stdout``, or None; dropping the
    ``wall_time_s`` line leaves a trailing comma, which is removed first."""
    try:
        return json.loads(re.sub(r",(\s*[}\]])", r"\1", stdout))
    except ValueError:
        return None


def leaves(node, path=()):
    """{path: value} of every leaf of a JSON value; a path holds dict keys
    and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(leaves(value, path + (key,)))
    return out


def shift_summary(old, new):
    """Lines summing up how the JSON reports of argvs with equal exit codes
    differ, per leaf path (list indices dropped): for a check's ``max`` and
    ``mean``, the largest shift as a fraction of that check's ``tol``; for
    its ``worst_point``, only that it moved, since a rounding-level change
    may move the argmax to another row; for any other leaf, the largest
    |delta|; each with the number of argvs it differs in.  Then the number
    of changed verdicts."""
    largest, argvs, verdicts, compared = {}, {}, 0, 0
    for key in old.keys() & new.keys():
        if old[key][0] != new[key][0]:
            continue
        report, b = report_of(old[key][1]), report_of(new[key][1])
        if report is None or b is None:
            continue
        compared += 1
        a, b = leaves(report), leaves(b)
        names = set()
        for path in a.keys() | b.keys():
            x, y = a.get(path), b.get(path)
            if x == y:
                continue
            name = ".".join(p for p in path if isinstance(p, str))
            names.add(name)
            verdicts += path[-1:] == ("verdict",)
            if _check_field(name) == "worst_point":
                continue
            numbers = all(type(v) in (int, float) for v in (x, y))
            delta = abs(x - y) if numbers else float("inf")
            if _check_field(name) in ("max", "mean"):
                tol = report["checks"][path[1]].get("tol")
                delta = delta / tol if type(tol) in (int, float) and tol > 0 else float("inf")
            largest[name] = max(largest.get(name, 0.0), delta)
        for name in names:
            argvs[name] = argvs.get(name, 0) + 1
    lines = [f"shift over {compared} JSON reports with equal exit codes:"]
    for name in sorted(argvs):
        if name not in largest:
            lines.append(f"  {name}: moved in {argvs[name]} argvs")
            continue
        size = "not numeric" if largest[name] == float("inf") else f"{largest[name]:.3g}"
        if _check_field(name) in ("max", "mean"):
            size = f"shift {size} of its tol"
        else:
            size = f"|delta| {size}"
        lines.append(f"  {name}: largest {size}, in {argvs[name]} argvs")
    lines.append(f"  {verdicts} verdicts changed")
    return lines


def _check_field(name):
    """The field of a check that the leaf path ``name`` is, or None."""
    parts = name.split(".")
    return parts[2] if len(parts) == 3 and parts[0] == "checks" else None


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    extra = list(ARGV_SETS) + argv[2:]
    old, new = reports(old_dir, extra), reports(new_dir, extra)
    names = ("exit code", "stdout", "stderr")
    differ = 0
    for key in list(old) + [k for k in new if k not in old]:
        if key not in old or key not in new:
            differ += 1
            print(f"only in {old_dir if key in old else new_dir}: {shlex.join(key)}")
            continue
        what = [n for n, a, b in zip(names, old[key], new[key]) if a != b]
        if what:
            differ += 1
            print(f"{', '.join(what)} differ: {shlex.join(key)}")
            for n, a, b in zip(names, old[key], new[key]):
                if a != b:
                    print(f"  {n} old: {str(a).strip()!r:.300}\n  {n} new: {str(b).strip()!r:.300}")
    print(f"{len(set(old) | set(new))} argvs, {differ} differ")
    if differ:
        print("\n".join(shift_summary(old, new)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
