"""Command-line driver.

Subcommands:

  verify  build a catalog structure and check its defining equations
  lift    build a four-dimensional lift and check the field equations
  limit   track a lift family toward its large-ell limit form
  eval    evaluate a text expression and its derivatives at a point

Configuration comes from flags or a JSON file (flags override).  Reports
are JSON with a fixed key order and a ``schema`` version; for a fixed
configuration and seed they are byte-identical apart from wall time.
Exit codes: 0 all checks pass, 1 a check fails, 2 configuration problem,
3 sampling, guard or domain problem (a non-finite value or an overflow
included, in every subcommand).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import expr as ex
from . import families as fam
from . import jets
from . import lift as lift_mod
from .curv import (
    em_residual,
    f_squared,
    kretschmann,
    maxwell_residual,
    weyl_ricci_residual,
)
from .errors import (
    ConfigError,
    DomainError,
    EwbenchError,
    GuardViolationError,
    SamplingExhaustedError,
    SingularFrameError,
    SingularMetricError,
)
from .ew import (
    from_H,
    gauge_transform,
    gt_residual,
    hypercr_residual,
    monopole_residual,
    psi_residual,
)
from .jets import ChartPoint, Guard, SampleDomain, sample
from .report import CheckResult, build_report, report_json, run_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SAMPLING = 3

# the checks each subcommand offers
_VERIFY_CHECKS = ("gt", "monopole", "hypercr", "psi", "weyl")
OFFERED_CHECKS = {
    "verify": _VERIFY_CHECKS,
    "lift": ("em", "maxwell", "invariants") + _VERIFY_CHECKS,
    "limit": ("limit",),
}
CHECK_NAMES = OFFERED_CHECKS["lift"] + OFFERED_CHECKS["limit"]
CHARTS = ("alpha", "p")

# merged configuration, in report echo order
DEFAULTS = {
    "command": None,
    "case": None,
    "ell": None,
    "ell_used": None,
    "sign_fixed": False,
    "checks": None,
    "points": None,
    "seed": 7,
    "tol": None,
    "beta": None,
    "F": None,
    "K": None,
    "H": None,
    "A": None,
    "B": None,
    "c": 0.0,
    "f": None,
    "ells": None,
    "chart": "p",
    "out": None,
}

_EXPR_FLAGS = ("beta", "F", "K", "H", "A", "B", "f")

# options whose value is an expression, which may start with "-"
_EXPR_OPTIONS = frozenset(("--expr",) + tuple(f"--{name}" for name in _EXPR_FLAGS))


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _text(v):
    return isinstance(v, str)


# what a config-file value must be: what its flag parses to (a bool is not
# a number); a key not named here takes text
_FILE_VALUES = {
    "ell": (_number, "a number"),
    "tol": (_number, "a number"),
    "c": (_number, "a number"),
    "points": (_integer, "an integer"),
    "seed": (_integer, "an integer"),
    "ells": (
        lambda v: _text(v) or isinstance(v, list) and all(map(_number, v)),
        "text or a list of numbers",
    ),
    "chart": (lambda v: v in CHARTS, " or ".join(map(repr, CHARTS))),
}


class _Parser(argparse.ArgumentParser):
    """Reads the word after an expression option as its value even when it
    starts with "-": argparse alone takes ``--expr -x`` for two options.  A
    word that names an option of a subcommand (``option_words``), or
    abbreviates one, is left to argparse, so ``--expr --at x=1`` still
    lacks its argument."""

    option_words = frozenset()

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        joined = []
        i = 0
        while i < len(args):
            word = args[i]
            nxt = args[i + 1] if i + 1 < len(args) else ""
            if word in _EXPR_OPTIONS and nxt.startswith("-") and not self._names_option(nxt):
                joined.append(f"{word}={nxt}")
                i += 2
            else:
                joined.append(word)
                i += 1
        return super().parse_known_args(joined, namespace)

    def _names_option(self, word):
        name = word.split("=", 1)[0]
        if name.startswith("--"):
            return any(o.startswith(name) for o in self.option_words)
        return name in self.option_words


def make_parser():
    ap = _Parser(
        prog="ewbench",
        description="numerical workbench for dispersionless integrable "
        "geometries and their cosmological lifts",
    )
    sub = ap.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )

    def common(p):
        p.add_argument("--case", help="catalog case name")
        p.add_argument("--ell", type=float, help="scale parameter")
        p.add_argument("--checks", help="comma-separated check names")
        p.add_argument("--points", type=int, help="sample size")
        p.add_argument("--seed", type=int, help="sampling seed")
        p.add_argument("--tol", type=float, help="residual tolerance")
        for name in _EXPR_FLAGS:
            p.add_argument(f"--{name}", help=f"expression for {name}")
        p.add_argument("--c", type=float, help="psi = c*omega coefficient")
        p.add_argument("--ells", help="comma-separated ell sequence (limit)")
        p.add_argument("--chart", choices=CHARTS, help="fibre chart")
        p.add_argument("--out", help="also write the report to this path")
        p.add_argument("--config", help="JSON file with the same keys")

    for name, blurb in (
        ("verify", "check a structure's defining equations"),
        ("lift", "check the lifted field equations"),
        ("limit", "study the large-ell limit of a lift family"),
    ):
        common(sub.add_parser(name, help=blurb))

    pe = sub.add_parser("eval", help="evaluate an expression at a point")
    pe.add_argument("--expr", required=True, help="expression text")
    pe.add_argument("--at", required=True, help="point, e.g. x=1,y=3,t=2")
    pe.add_argument("--order", type=int, default=1, help="jet order (0..3)")
    pe.add_argument("--out", help="also write the result to this path")
    ap.option_words = frozenset(
        word for p in sub.choices.values() for word in p._option_string_actions
    )
    return ap


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
            if key not in DEFAULTS or key in ("command", "ell_used", "sign_fixed"):
                raise ConfigError(f"unknown config key {key!r}")
            valid, what = _FILE_VALUES.get(key, (_text, "text"))
            if not valid(val):
                raise ConfigError(
                    f"config key {key!r} must be {what}, got {json.dumps(val)}"
                )
            cfg[key] = val
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if cfg["tol"] is not None and not 0 < cfg["tol"] < math.inf:
        raise ConfigError("tol must be positive and finite")
    if cfg["points"] is not None and cfg["points"] < 1:
        raise ConfigError("points must be at least 1")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be non-negative")
    return cfg


def parse_checks(cfg, default):
    """The requested check names; each must be one the subcommand offers."""
    raw = cfg["checks"] or default
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    command = cfg["command"]
    for n in names:
        if n not in CHECK_NAMES:
            raise ConfigError(f"unknown check {n!r}")
        if n not in OFFERED_CHECKS[command]:
            raise ConfigError(f"check {n!r} is not available under {command}")
    if not names:
        raise ConfigError("no checks requested")
    return names


def _expr_or(cfg, key, fallback):
    return cfg[key] if cfg[key] is not None else fallback


def build_case(cfg):
    """Catalog structure plus its pinned sampling domain."""
    case = cfg["case"]
    if case is None:
        raise ConfigError("--case is required")
    seed, count = cfg["seed"], cfg["points"] or 200
    ell = cfg["ell"] if cfg["ell"] is not None else 1.0
    key = case.replace("-", "_")
    if key == "heisenberg":
        s = fam.heisenberg(ell)
        dom = fam.default_domain("heisenberg", seed=seed, count=count)
    elif key == "class_a":
        beta = _expr_or(cfg, "beta", fam.CLASS_A_BETAS[0])
        s = fam.class_a(beta)
        dom = fam.default_domain("class_a", seed=seed, count=count, beta=beta)
    elif key == "class_b":
        F = _expr_or(cfg, "F", "1")
        s = fam.class_b(F)
        dom = fam.default_domain("class_b", seed=seed, count=count, F=F)
    elif key == "class_c":
        K = _expr_or(cfg, "K", "s")
        s = fam.class_c(K)
        dom = fam.default_domain("class_c", seed=seed, count=count, K=K)
    elif key == "from_H":
        H = _expr_or(cfg, "H", "1/sqrt(y^2-4*x*t)")
        s = from_H(ex.parse_field(H, ("x", "y", "t")))
        dom = fam.default_domain("from_H", seed=seed, count=count, H=H)
    elif key == "from_G":
        A = _expr_or(cfg, "A", "p*ln(p)-p")
        B = _expr_or(cfg, "B", "0")
        gen = fam.GeneratorG(A, B)
        s = fam.from_generator(gen)
        a_pp = gen.a_field().d("p").d("p")
        dom = SampleDomain(
            ("p", "y", "t"),
            ((0.5, 2.0), (-1.0, 1.0), (0.3, 1.5)),
            (Guard(a_pp * a_pp, 1e-6, "G_pp^2 > 1e-6"),),
            seed,
            count,
        )
    else:
        raise ConfigError(f"unknown case {case!r}")
    return s, dom


def _verify_fns(s, cfg, names):
    fns = {}
    for name in names:
        if name == "gt":
            fns[name] = lambda q: gt_residual(s, q)
        elif name == "monopole":
            fns[name] = lambda q: monopole_residual(s, q)
        elif name == "hypercr":
            if s.u is None or s.w is None:
                raise ConfigError(
                    "hypercr check needs the hydrodynamic pair (u, w), "
                    "which this structure does not carry"
                )
            fns[name] = lambda q: hypercr_residual(s.u, s.w, q)
        elif name == "psi":
            psi = fam.psi_const(s, cfg["c"])
            fns[name] = lambda q: psi_residual(psi, s, q)
        elif name == "weyl":
            fns[name] = lambda q: weyl_ricci_residual(s, q)
    return fns


def cmd_verify(cfg):
    names = parse_checks(cfg, "gt,monopole")
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-7
    s, dom = build_case(cfg)
    if cfg["f"]:
        s = gauge_transform(s, ex.parse_field(cfg["f"], s.chart))
    fns = _verify_fns(s, cfg, names)
    pts = sample(dom)
    results = [run_check(n, fns[n], pts, tol) for n in names]
    report = build_report(_echo(cfg), s.chart, len(pts), results)
    return report


def _lift_points(chart4, seed, base_pts):
    """Base points extended by seeded fibre values for the fibre chart."""
    rng = np.random.default_rng(seed + 101)
    if chart4[0] == "alpha":
        lo, hi = lift_mod.ALPHA_WINDOW
    else:
        lo, hi = -1.2, 1.2
    fibres = rng.uniform(lo, hi, size=len(base_pts))
    return tuple(
        ChartPoint.make(chart4, (fv,) + q.coords)
        for fv, q in zip(fibres, base_pts)
    )


def _lift_data(cfg):
    """Base structure, lift config, and lifted data for both charts."""
    base, dom = build_case(cfg)
    base_pts = sample(dom)
    probe = base_pts[0]
    requested = cfg["ell"]
    if requested is None:
        v = base.V(probe, 0).value
        if abs(v) < 1e-12:
            raise ConfigError("V = 0 at the probe; supply --ell explicitly")
        ell_used, flipped = -2.0 / v, False
    else:
        ell_used, flipped = lift_mod.fix_ell_sign(base, requested, probe)
    psi = fam.psi_const(base, cfg["c"])
    lcfg = lift_mod.LiftConfig(
        base=base,
        psi=psi,
        ell=ell_used,
        c=cfg["c"],
        chart=cfg["chart"],
        probes=tuple(base_pts[: min(8, len(base_pts))]),
    )
    cfg["ell_used"] = ell_used
    cfg["sign_fixed"] = flipped
    return base, base_pts, lcfg


def cmd_lift(cfg):
    names = parse_checks(cfg, "em,maxwell")
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-6
    cfg["points"] = cfg["points"] or 100
    base, base_pts, lcfg = _lift_data(cfg)
    data = lift_mod.build(lcfg)
    pts4 = _lift_points(data.chart, cfg["seed"], base_pts)
    results = []
    for name in names:
        if name == "em":
            fn = lambda q: em_residual(data.g, data.potential, data.ell, q)
            results.append(run_check(name, fn, pts4, tol))
        elif name == "maxwell":
            fn = lambda q: maxwell_residual(data.potential, data.g, q)
            results.append(run_check(name, fn, pts4, tol))
        elif name == "invariants":
            data_p, fn = _invariant_fn(lcfg, data)
            pts_p = _lift_points(data_p.chart, cfg["seed"], base_pts)
            results.append(run_check(name, fn, pts_p, tol))
        else:
            fn = _verify_fns(base, cfg, (name,))[name]
            results.append(run_check(name, fn, base_pts, tol))
    report = build_report(_echo(cfg), data.chart, len(pts4), results)
    return report


def _invariant_fn(lcfg, data):
    """Chart covariance of the scalar invariants, plus signature.

    ``data`` is the lift already built on the configured chart; the other
    chart is built from the same config without validating it again.
    Returns the p-chart lift, whose points the check runs on, and the check.
    """
    other = dataclasses.replace(lcfg, validate=False)
    if lcfg.chart == "alpha":
        data_p, data_a = lift_mod.build_p(other), data
    else:
        data_p, data_a = data, lift_mod.build_alpha(other)

    def fn(q):
        qa = lift_mod.matched_alpha_point(q, data_p.ell)
        plus, minus = data_p.g.signature_at(q)
        return (
            kretschmann(data_p.g, q) - kretschmann(data_a.g, qa),
            f_squared(data_p.potential, data_p.g, q)
            - f_squared(data_a.potential, data_a.g, qa),
            np.where((plus == 3) & (minus == 1), 0.0, 1.0),
        )

    return data_p, fn


def cmd_limit(cfg):
    parse_checks(cfg, "limit")
    tol = cfg["tol"] if cfg["tol"] is not None else 1e-6
    case = (cfg["case"] or "heisenberg").replace("-", "_")
    c = cfg["c"]
    raw = cfg["ells"] or "100,200,1000,10000"
    if isinstance(raw, str):
        try:
            ells = [float(s) for s in raw.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"ells must be comma-separated numbers, got {raw!r}") from exc
    else:
        ells = [float(v) for v in raw]

    if case == "heisenberg":

        def factory(e):
            base = fam.heisenberg(e)
            ell_used, _ = lift_mod.fix_ell_sign(base, e)
            return lift_mod.LiftConfig(
                base=base, psi=fam.psi_const(base, c), ell=ell_used, c=c
            )

    elif case == "class_b":

        def factory(e):
            base = fam.class_b(repr(e / 4.0))
            return lift_mod.LiftConfig(
                base=base, psi=fam.psi_const(base, c), ell=e, c=c
            )

    else:
        raise ConfigError(f"case {case!r} has no ell-parameterized lift family")

    rep = lift_mod.flat_limit(factory, ells)
    result = CheckResult(
        name="limit",
        max=rep["form_gap"][-1],
        mean=sum(rep["form_gap"]) / len(rep["form_gap"]),
        worst_point=(),
        tol=tol,
        failed=rep["diverges"],
    )
    chart = ("p",) + fam.heisenberg(ells[0]).chart if case == "heisenberg" else ("q", "p", "y", "t")
    report = build_report(_echo(cfg), chart, 0, [result], detail=rep)
    return report


def cmd_eval(args):
    pairs = []
    for item in args.at.split(","):
        if "=" not in item:
            raise ConfigError(f"bad coordinate assignment {item!r}")
        name, _, val = item.partition("=")
        try:
            pairs.append((name.strip(), float(val)))
        except ValueError as exc:
            raise ConfigError(f"bad coordinate value {val!r}") from exc
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
    if order >= 1:
        out["gradient"] = dict(zip(chart, jet.parts[1]))
    if order >= 2:
        out["hessian"] = {n: dict(zip(chart, row)) for n, row in zip(chart, jet.parts[2])}
    return out


def _echo(cfg):
    echo = {k: cfg[k] for k in DEFAULTS}
    return echo


def _emit(text, out_path):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# run_check and cmd_eval turn a non-finite value into exit 3; numpy's
# floating-point warnings would only repeat that on stderr
@np.errstate(all="ignore")
def main(argv=None):
    args = make_parser().parse_args(argv)
    started = time.monotonic()
    try:
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
    except (
        SamplingExhaustedError,
        GuardViolationError,
        DomainError,
        SingularFrameError,
        SingularMetricError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except EwbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report["wall_time_s"] = round(time.monotonic() - started, 3)
    _emit(report_json(report), cfg["out"])
    return EXIT_PASS if report["verdict"] == "pass" else EXIT_FAIL
