"""Command-line driver.

Subcommands:

  verify  build a catalog structure and check its defining equations
  lift    build a four-dimensional lift and check the field equations
  limit   track a lift family toward its large-ell limit form
  eval    evaluate a text expression and its derivatives at a point

Configuration comes from flags or a JSON file (flags override).  Every
configuration key is one ``Key`` row of ``KEYS``: its default, the
subcommands whose flag sets it, what the flag parses to and what a file
value must be.  The driver maps flags to a catalog case and its
parameters: the cases, their expression flags and defaults come from
``families.CASES``; the fibre charts, their sample points, the ``limit``
families and the choice of ell from ``lift``.  Every check is one
``Check`` row of ``CHECKS``: the flags it reads, the packed arrays it reads,
whether it runs on the base or on the lift, and its builder;
``_run_checks`` packs each array once per job.
Reports are JSON with a fixed key order and a ``schema`` version; for a
fixed configuration and seed they are byte-identical apart from wall time.
Exit codes: 0 all checks pass, 1 a check fails, 2 configuration problem,
3 sampling, guard or domain problem (a non-finite value or an overflow
included, in every subcommand), 4 an unexpected internal error.
``main`` parses with one parser per process, built on its first call, so
in-process callers build it once; a one-shot ``ewbench`` process is
unaffected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import threading
import time
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
from . import families as fam
from . import jets
from . import lift as lift_mod
from .curv import em_residual, field_strength, maxwell_residual, weyl_ricci_residual
from .errors import ConfigError, DomainError, EwbenchError
from .ew import (
    gauge_transform,
    gt_residual,
    hypercr_residual,
    monopole_residual,
    psi_residual,
    require_x,
)
from .forms import metric_from_coframe
from .jets import ChartPoint, sample
from .report import CheckResult, build_report, report_json, run_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SAMPLING = 3
EXIT_INTERNAL = 4


def _hypercr(s, cfg):
    if s.u is None or s.w is None:
        raise ConfigError(
            "hypercr check needs the hydrodynamic pair (u, w), "
            "which this structure does not carry"
        )
    require_x(s.chart)
    return lambda q: hypercr_residual(s.u, s.w, q)


class Check(NamedTuple):
    """One row of ``CHECKS``: whether the check runs on the base structure
    or on the lift, the packed arrays it reads (a ``PACKERS`` name -> jet
    order), its builder, the flags it reads under verify beyond its case's,
    and the arrays it reads besides when one of those flags is nonzero.

    ``build(structure, cfg)`` of a base check gives its residual over the
    base sample points; ``build(lift config, lift)`` of a lift check gives
    the lift on whose chart its points lie, and its residual there."""

    on: str
    reads: dict
    build: Callable
    flags: tuple = ()
    flag_reads: dict = {}

    def reads_under(self, cfg):
        if any(cfg[flag] for flag in self.flags):
            return {**self.reads, **self.flag_reads}
        return self.reads


# every check; psi = c omega packs its own psi through 1, so it reads omega
# there when c != 0 (a zero psi reads no omega)
CHECKS = {
    "gt": Check(
        "base", {"frame": 1, "omega": 0, "V": 0}, lambda s, cfg: lambda q: gt_residual(s, q)
    ),
    "monopole": Check(
        "base", {"frame": 0, "omega": 1, "V": 1}, lambda s, cfg: lambda q: monopole_residual(s, q)
    ),
    "hypercr": Check("base", {}, _hypercr),
    "psi": Check(
        "base",
        {"frame": 0, "V": 0},
        lambda s, cfg: functools.partial(psi_residual, fam.psi_const(s, cfg["c"]), s),
        flags=("c",),
        flag_reads={"omega": 1},
    ),
    "weyl": Check(
        "base", {"h": 2, "omega": 1}, lambda s, cfg: lambda q: weyl_ricci_residual(s, q)
    ),
    "em": Check(
        "lift",
        {"g": 2, "F": 0},
        lambda lcfg, data: (data, lambda q: em_residual(data.g, data.potential, data.ell, q)),
    ),
    "maxwell": Check(
        "lift",
        {"g": 1, "F": 1},
        lambda lcfg, data: (data, lambda q: maxwell_residual(data.potential, data.g, q)),
    ),
    "invariants": Check("lift", {"g": 2, "F": 0}, lift_mod.invariants_check),
}
# the packed arrays a check may read, each of the structure or lift whose
# points it runs on, through a jet order: the coframe metric h and the
# frame pass arrays of a base (omega and V, which differentiate coframe
# fields, before the coframe), and the metric g and F = dA of a lift
PACKERS = {
    "h": lambda s, q, order: metric_from_coframe(s.frame).jets_at(q, order),
    "omega": lambda s, q, order: s.pass_at(q).arrays("omega", order),
    "V": lambda s, q, order: s.pass_at(q).arrays("V", order),
    "frame": lambda s, q, order: s.pass_at(q).arrays("frame", order),
    "g": lambda data, q, order: data.g.jets_at(q, order),
    "F": lambda data, q, order: field_strength(data.potential, q, order),
}
# the checks each subcommand offers
OFFERED_CHECKS = {
    "verify": tuple(name for name, check in CHECKS.items() if check.on == "base"),
    "lift": tuple(CHECKS),
    "limit": ("limit",),
}
CHECK_NAMES = OFFERED_CHECKS["lift"] + OFFERED_CHECKS["limit"]
CHARTS = tuple(lift_mod.FIBRE_WINDOWS)

DEFAULT_CHECKS = {"verify": "gt,monopole", "lift": "em,maxwell", "limit": "limit"}
# the expression flags each catalog case reads
CASE_EXPRS = {case: tuple(row.exprs) for case, row in fam.CASES.items()}
_CASE_EXPR_FLAGS = tuple(f for flags in CASE_EXPRS.values() for f in flags)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _finite(v):
    # an int is finite; merge_config refuses one past the float range
    return _number(v) and (isinstance(v, int) or math.isfinite(v))


def _text(v):
    return isinstance(v, str)


class Key(NamedTuple):
    """One row of ``KEYS``: a configuration key's default; the subcommands
    whose flag sets it (none for a key the program sets); what the flag
    parses to (argparse's ``type`` and ``choices``) and what a config-file
    value must be (``valid``, named ``what`` in its error: a bool is not a
    number, and JSON's Infinity and NaN are no ell or c); whether the flag's
    value may start with "-"; and the flag's help."""

    default: object = None
    commands: tuple = ()
    help: str = ""
    type: Callable = None
    choices: tuple = None
    valid: Callable = _text
    what: str = "text"
    dash: bool = False


_ALL = ("verify", "lift", "limit")
_CASE = ("verify", "lift")
_FINITE = dict(type=float, valid=_finite, what="a finite number")
_INTEGER = dict(type=int, valid=_integer, what="an integer")

# every configuration key, in report echo order.  The verify, lift and limit
# parsers take every flag, and a subcommand that a flag's row does not name
# refuses it (a config file is not held to this: one file may serve all).
# Within verify and lift, a case reads only its own expression flags, and
# verify reads --ell only for a case whose structure reads it (heisenberg)
# and --c only for a check that reads it (psi, per its row of CHECKS).  A
# value that may start with "-" is an expression, the ells sequence, whose
# first ell may be negative, or a number, which argparse alone takes for an
# option in exponent form (-1e-9).
KEYS = {
    "command": Key(),
    "case": Key(None, _ALL, "catalog case name"),
    "ell": Key(None, _CASE, "scale parameter", dash=True, **_FINITE),
    "ell_used": Key(),
    "sign_fixed": Key(False),
    "checks": Key(None, _ALL, "comma-separated check names"),
    "points": Key(None, _CASE, "sample size", **_INTEGER),
    "seed": Key(7, _CASE, "sampling seed", **_INTEGER),
    "tol": Key(None, _ALL, "residual tolerance", float, valid=_number, what="a number", dash=True),
    **{f: Key(None, _CASE, f"expression for {f}", dash=True) for f in _CASE_EXPR_FLAGS},
    "c": Key(0.0, _ALL, "psi = c*omega coefficient", dash=True, **_FINITE),
    "f": Key(None, ("verify",), "expression for f", dash=True),
    "ells": Key(
        None, ("limit",), "comma-separated ell sequence (limit)",
        valid=lambda v: _text(v) or isinstance(v, list) and all(map(_finite, v)),
        what="text or a list of finite numbers", dash=True,
    ),
    "chart": Key(
        lift_mod.LiftConfig.chart, ("lift",), "fibre chart", choices=CHARTS,
        valid=lambda v: v in CHARTS, what=" or ".join(map(repr, CHARTS)),
    ),
    "out": Key(None, _ALL, "also write the report to this path"),
}
DEFAULTS = {key: row.default for key, row in KEYS.items()}
_DASH_VALUE_OPTIONS = frozenset(
    ("--expr",) + tuple(f"--{key}" for key, row in KEYS.items() if row.dash)
)


class _Parser(argparse.ArgumentParser):
    """Reads the word after an option of ``_DASH_VALUE_OPTIONS`` as its
    value even when it starts with "-": argparse alone takes ``--expr -x``,
    ``--ells -100,-200`` or ``--tol -1e-9`` for two options.  A word that
    names an option of a subcommand (of ``commands``), or abbreviates one,
    is left to argparse, so ``--expr --at x=1`` still lacks its argument;
    so does ``--X=--``, from which argparse alone strips the "--"."""

    commands = {}  # subcommand name -> its parser

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        joined = []
        i = 0
        while i < len(args):
            word = args[i]
            nxt = args[i + 1] if i + 1 < len(args) else ""
            if word in _DASH_VALUE_OPTIONS and nxt.startswith("-") and not self._names_option(nxt):
                joined.append(f"{word}={nxt}")
                i += 2
            else:
                joined.append(word)
                i += 1
        parsed, extras = super().parse_known_args(joined, namespace)
        for dest, value in vars(parsed).items():
            if isinstance(value, list):  # what argparse leaves of --X=--
                self.commands[parsed.command].error(f"argument --{dest}: expected one argument")
        return parsed, extras

    def _names_option(self, word):
        name = word.split("=", 1)[0]
        words = [o for p in self.commands.values() for o in p._option_string_actions]
        if name.startswith("--"):
            return any(o.startswith(name) for o in words)
        return name in words


def make_parser():
    ap = _Parser(
        prog="ewbench",
        description="numerical workbench for dispersionless integrable "
        "geometries and their cosmological lifts",
    )
    sub = ap.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )

    for command, blurb in (
        ("verify", "check a structure's defining equations"),
        ("lift", "check the lifted field equations"),
        ("limit", "study the large-ell limit of a lift family"),
    ):
        p = sub.add_parser(command, help=blurb)
        for key, row in KEYS.items():
            if row.commands:
                p.add_argument(f"--{key}", type=row.type, choices=row.choices, help=row.help)
        p.add_argument("--config", help="JSON file with the same keys")

    pe = sub.add_parser("eval", help="evaluate an expression at a point")
    pe.add_argument("--expr", required=True, help="expression text")
    pe.add_argument("--at", required=True, help="point, e.g. x=1,y=3,t=2")
    pe.add_argument("--order", type=int, default=1, help="jet order (0..3)")
    pe.add_argument("--out", help="also write the result to this path")
    ap.commands = sub.choices
    return ap


# parsing never changes a parser (namespaces are per call, usage errors
# raise SystemExit), so every main call and thread shares one; the lock
# makes concurrent first calls build it once
_parser_lock = threading.Lock()


@functools.cache
def _built_parser():
    return make_parser()


def merge_config(args):
    """defaults <- JSON config file <- explicit flags."""
    cfg = dict(DEFAULTS)
    cfg["command"] = args.command
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config file is not JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in loaded.items():
            row = KEYS.get(key, Key())
            if not row.commands:
                raise ConfigError(f"unknown config key {key!r}")
            if not row.valid(val):
                raise ConfigError(
                    f"config key {key!r} must be {row.what}, got {json.dumps(val)}"
                )
            cfg[key] = val
    flags = []
    for key, row in KEYS.items():
        val = getattr(args, key, None)
        if val is None or not row.commands:
            continue
        if args.command not in row.commands:
            raise ConfigError(f"--{key} is not used by {args.command}")
        cfg[key] = val
        flags.append(key)
    # a config file, or --points, may give an int that no float holds
    for key in ("ell", "c", "tol", "points", "ells"):
        for v in cfg[key] if isinstance(cfg[key], list) else [cfg[key]]:
            if _integer(v) and abs(v) > sys.float_info.max:
                raise ConfigError(
                    f"{key} must lie in the float range (magnitude at most {sys.float_info.max:.6g})"
                )
    if cfg["points"] is not None and cfg["points"] > jets._MAX_DRAWS:
        raise ConfigError(f"points must be at most {jets._MAX_DRAWS}")
    if cfg["tol"] is not None and not 0 < cfg["tol"] < math.inf:
        raise ConfigError("tol must be positive and finite")
    for key in ("ell", "c"):
        if cfg[key] is not None and not math.isfinite(cfg[key]):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    if cfg["points"] is not None and cfg["points"] < 1:
        raise ConfigError("points must be at least 1")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    _refuse_unread_flags(cfg, flags)
    return cfg


def _refuse_unread_flags(cfg, flags):
    """Refuse a command-line flag that the chosen case or checks do not
    read; an unknown case is left for ``build_case`` to name."""
    command, case = cfg["command"], cfg["case"]
    key = (case or "").replace("-", "_")
    if key not in CASE_EXPRS:
        return
    unread = [f for f in _CASE_EXPR_FLAGS if f not in CASE_EXPRS[key]]
    if command == "verify" and not fam.CASES[key].reads_ell:
        unread.append("ell")
    for flag in flags:
        if flag in unread:
            raise ConfigError(f"--{flag} is not used by {command} --case {case}")
        readers = [n for n, check in CHECKS.items() if flag in check.flags]
        if command == "verify" and readers and not set(readers) & set(_check_names(cfg)):
            raise ConfigError(
                f"--{flag} is not used by verify without the {' or '.join(readers)} check"
            )


def _check_names(cfg):
    raw = DEFAULT_CHECKS[cfg["command"]] if cfg["checks"] is None else cfg["checks"]
    return tuple(dict.fromkeys(s.strip() for s in raw.split(",") if s.strip()))


def parse_checks(cfg):
    """The requested check names, each once, in the order first given;
    each must be one the subcommand offers."""
    names = _check_names(cfg)
    command = cfg["command"]
    for n in names:
        if n not in CHECK_NAMES:
            raise ConfigError(f"unknown check {n!r}")
        if n not in OFFERED_CHECKS[command]:
            raise ConfigError(f"check {n!r} is not available under {command}")
    if not names:
        raise ConfigError("no checks requested")
    return names


def build_case(cfg):
    """Catalog structure plus its pinned sampling domain."""
    case = cfg["case"]
    if case is None:
        raise ConfigError("--case is required")
    key = case.replace("-", "_")
    if key not in fam.CASES:
        raise ConfigError(f"unknown case {case!r}")
    return fam.build(key, cfg, ell=cfg["ell"], seed=cfg["seed"], count=cfg["points"] or 200)


def cmd_verify(cfg):
    names = parse_checks(cfg)
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-7
    s, dom = build_case(cfg)
    if cfg["f"] is not None:
        f = ex.refuse_nonfinite(ex.parse(cfg["f"], s.chart), "f")
        s = gauge_transform(s, ex.to_field(f))
    fns = {n: CHECKS[n].build(s, cfg) for n in names}
    pts = sample(dom)
    results = _run_checks([(n, fns[n], pts, s, CHECKS[n].reads_under(cfg)) for n in names], tol)
    return build_report(_echo(cfg), s.chart, len(pts), results)


def _run_checks(checks, tol):
    """The results of the checks ``(name, fn, points, on, reads)``, run in
    request order in one evaluation scope, so that they share their field
    and metric work; ``points`` is a PointBatch.

    Before the first check runs, each packed array that some check reads
    (``reads`` maps a ``PACKERS`` name to a jet order, of the structure or
    lift ``on`` over the check's points) is packed once, at the highest
    order any check reads it there, and every read after that slices what
    is held: em's F serves maxwell, and monopole's omega and V serve gt.
    The highest orders are packed first, then in ``PACKERS`` order, so a
    field that two arrays read is evaluated once, at the higher order (the
    coframe jets of weyl's h serve the frame pass).  A packing that raises
    is dropped; the check that reads the array packs it again in its turn
    and raises the same error there, so a job still stops at the first
    check, in request order, that meets one.
    """
    plan = {}
    for _, _, pts, on, reads in checks:
        for array, order in reads.items():
            held = plan.setdefault((array, id(on), id(pts)), [array, on, pts, order])
            held[3] = max(held[3], order)
    with jets.evaluation_scope():
        rank = list(PACKERS).index
        for array, on, pts, order in sorted(plan.values(), key=lambda p: (-p[3], rank(p[0]))):
            try:
                PACKERS[array](on, pts, order)
            except EwbenchError:
                pass
        return [run_check(name, fn, pts, tol) for name, fn, pts, _, _ in checks]


def cmd_lift(cfg):
    names = parse_checks(cfg)
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-6
    cfg["points"] = cfg["points"] or 100
    base, dom = build_case(cfg)
    # the base checks are built before sampling, as under verify
    base_fns = {n: CHECKS[n].build(base, cfg) for n in names if CHECKS[n].on == "base"}
    base_pts = sample(dom)
    cfg["ell_used"], cfg["sign_fixed"] = lift_mod.fix_ell_sign(base, cfg["ell"], base_pts[0])
    lcfg = lift_mod.LiftConfig(
        base=base,
        psi=fam.psi_const(base, cfg["c"]),
        ell=cfg["ell_used"],
        chart=cfg["chart"],
        probes=base_pts[:8],
    )
    data = lift_mod.build(lcfg)
    # every check is built before any runs (so the alpha chart's ell bound
    # refuses the job first), and each chart's points are drawn once
    drawn, checks = {}, []
    for name in names:
        reads = CHECKS[name].reads_under(cfg)
        if name in base_fns:
            checks.append((name, base_fns[name], base_pts, base, reads))
            continue
        on, fn = CHECKS[name].build(lcfg, data)
        if on.chart not in drawn:
            drawn[on.chart] = lift_mod.fibre_points(on, cfg["seed"], base_pts)
        checks.append((name, fn, drawn[on.chart], on, reads))
    results = _run_checks(checks, tol)
    return build_report(_echo(cfg), data.chart, len(base_pts), results)


def cmd_limit(cfg):
    parse_checks(cfg)
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-6
    if cfg["case"] is None:
        cfg = dict(cfg, case="heisenberg")  # the family that runs, as the report echoes it
    raw = "100,200,1000,10000" if cfg["ells"] is None else cfg["ells"]
    if isinstance(raw, str):
        try:
            # blank text is no ells; an empty entry between commas is an error
            ells = [float(s) for s in raw.split(",")] if raw.strip() else []
        except ValueError as exc:
            raise ConfigError(f"ells must be comma-separated numbers, got {raw!r}") from exc
    else:
        ells = [float(v) for v in raw]
    if not all(map(math.isfinite, ells)):
        raise ConfigError(f"ells must be finite, got {raw!r}")
    if 0.0 in ells:  # -0.0 too
        raise ConfigError(f"ells must be nonzero, got {raw!r}")

    factory, chart = lift_mod.limit_family(cfg["case"], cfg["c"])
    rep = lift_mod.flat_limit(factory, ells)
    result = CheckResult(
        name="limit",
        max=rep["form_gap"][-1],
        mean=sum(rep["form_gap"]) / len(rep["form_gap"]),
        worst_point=(),
        tol=tol,
        failed=rep["diverges"],
    )
    report = build_report(_echo(cfg), chart, 0, [result], detail=rep)
    return report


def cmd_eval(args):
    pairs = []
    for item in args.at.split(","):
        if "=" not in item:
            raise ConfigError(f"bad coordinate assignment {item!r}")
        name, _, val = item.partition("=")
        name = name.strip()
        try:
            value = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad coordinate value {val!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"coordinate {name!r} must be finite, got {val.strip()!r}")
        if any(name == n for n, _ in pairs):
            raise ConfigError(f"coordinate {name!r} is given more than once")
        pairs.append((name, value))
    chart = tuple(n for n, _ in pairs)
    coords = tuple(v for _, v in pairs)
    order = args.order
    if not 0 <= order <= jets.MAX_ORDER:
        raise ConfigError(f"order must lie in 0..{jets.MAX_ORDER}")
    ast = ex.parse(args.expr, chart)
    pt = ChartPoint.make(chart, coords)
    jet = ex.eval_jet(ast, pt, order)
    if not all(np.isfinite(part).all() for part in jet.parts):
        raise DomainError(f"'{args.expr}' is not finite through order {order}")
    out = {
        "schema": 1,
        "expr": args.expr,
        "point": {n: v for n, v in pairs},
        "order": order,
        "value": jet.value,
    }

    def nested(part):  # one level of dicts by coordinate per derivative axis
        return dict(zip(chart, map(nested, part) if np.ndim(part) > 1 else part))

    for k, key in enumerate(("gradient", "hessian", "third")[:order], 1):
        out[key] = nested(jet.parts[k])
    return out


def _echo(cfg):
    return {k: cfg[k] for k in KEYS}


def _emit(text, out_path):
    """Write the report to ``out_path``, then to stdout, so a path that
    cannot be written prints nothing but its error line."""
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _run(args):
    """Run the parsed command, print its report; return the exit code."""
    started = time.monotonic()
    if args.command == "eval":
        payload = cmd_eval(args)
        _emit(report_json(payload), args.out)
        return EXIT_PASS
    cfg = merge_config(args)
    if args.command == "verify":
        report = cmd_verify(cfg)
    elif args.command == "lift":
        report = cmd_lift(cfg)
    else:
        report = cmd_limit(cfg)
    report["wall_time_s"] = round(time.monotonic() - started, 3)
    _emit(report_json(report), cfg["out"])
    return EXIT_PASS if report["verdict"] == "pass" else EXIT_FAIL


# run_check and cmd_eval turn a non-finite value into exit 3; numpy's
# floating-point warnings would only repeat that on stderr
@np.errstate(all="ignore")
def main(argv=None):
    with _parser_lock:
        parser = _built_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except EwbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a fault of the program, not of its input
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
