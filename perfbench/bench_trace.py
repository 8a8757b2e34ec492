"""Outside-in tracing of ewbench through its public functions.

``Tracer.install()`` replaces public functions of each ewbench module, and
every alias of them that another module imported by name (``cli`` imports
``run_check``, ``sample``, ``em_residual`` and others that way), with
wrappers that record spans.  It also replaces a few ``Jet`` methods at class
level with wrappers that only count calls.  ``restore()`` puts every
original back.  Nothing inside ewbench is edited.

Spans are folded into per-name totals as they close, so memory stays flat
however many points a pass evaluates.  For a span of duration ``d`` whose
children cover ``c`` of its interval:

    self[name]      += d - c
    inclusive[name] += d        (only for the outermost open span of a name)
    layer_incl[L]   += d        (only for the outermost open span of layer L)
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span targets by module; the span is named "<module>.<attribute>"
FUNCTION_SPANS = {
    "cli": ("main",),
    "families": (
        "heisenberg",
        "class_a",
        "class_b",
        "class_c",
        "from_generator",
        "psi_const",
        "default_domain",
    ),
    "lift": ("build_p", "build_alpha", "validate_config", "flat_limit"),
    "jets": ("sample",),
    "expr": ("eval_jet",),
    "forms": ("jet_det", "jet_inv"),
    "ew": ("gt_residual", "monopole_residual", "hypercr_residual", "psi_residual"),
    "curv": (
        "weyl_ricci_residual",
        "weyl_ricci_residual_metric",
        "ricci",
        "riemann",
        "kretschmann",
        "em_residual",
        "maxwell_residual",
        "f_squared",
    ),
    "report": ("report_json",),
}
# recursive functions: inner calls are counted but open no span of their own
RECURSIVE = frozenset({"expr.eval_jet", "forms.jet_det"})
METHOD_SPANS = {("forms", "MetricField"): ("jets_at", "matrix_at")}
# functions returning a PForm whose component closures do the work; the span
# covers the closures' evaluation, named after the builder
FORM_BUILDERS = (("forms", "hodge3"), ("curv", "hodge4"))
# Jet methods counted at class level, and the counter each one feeds
JET_COUNTS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "compose": "compose",
    "variable": "variable",
    "partial": "partial",
}
JET_OPS = ("mul", "add", "compose", "variable", "partial")
LAYERS = ("cli", "families", "lift", "jets", "expr", "forms", "ew", "curv", "report")


def _ewbench_modules():
    return [
        m
        for n, m in sorted(sys.modules.items())
        if m is not None and (n == "ewbench" or n.startswith("ewbench."))
    ]


class Tracer:
    """Span and count aggregation; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()  # span-target calls, recursion included
        self.ops = Counter()  # Jet method calls by JET_OPS name
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_incl = defaultdict(float)
        # per check name: [run_check calls, points, seconds, mul count]
        self.checks = defaultdict(lambda: [0, 0, 0.0, 0])
        # sampling: [calls, draws, accepted, seconds]
        self.sampling = [0, 0, 0, 0.0]
        self._stack = []
        self._open = Counter()
        self._open_layer = Counter()
        self._patches = []
        self._first_guard = None

    # -- span bookkeeping ----------------------------------------------------

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] += 1
        self._open_layer[name.split(".", 1)[0]] += 1

    def exit(self):
        """Close the innermost span; return its duration."""
        name, start, child = self._stack.pop()
        d = self.clock() - start
        self.self_time[name] += d - child
        self._open[name] -= 1
        if not self._open[name]:
            self.inclusive[name] += d
        layer = name.split(".", 1)[0]
        self._open_layer[layer] -= 1
        if not self._open_layer[layer]:
            self.layer_incl[layer] += d
        if self._stack:
            self._stack[-1][2] += d
        return d

    def span(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        recursive = name in RECURSIVE
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if recursive and self._open[name]:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def snapshot(self):
        """Every count the tracer keeps, for exact repeat checks."""
        return {
            "calls": dict(self.calls),
            "ops": dict(self.ops),
            "checks": {k: (v[0], v[1], v[3]) for k, v in self.checks.items()},
            "sampling": tuple(self.sampling[:3]),
        }

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, wrapper):
        """Replace ``fn`` in every ewbench module that holds it."""
        for mod in _ewbench_modules():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, key, wrapper)

    def install(self):
        """Wrap the targets; absent ones are skipped, so a later refactor
        that removes a name only empties the metric that reads it."""
        import ewbench.cli  # noqa: F401  (loads every module to be patched)

        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _ewbench_modules()}
        for modname, attrs in FUNCTION_SPANS.items():
            for attr in attrs:
                fn = getattr(mods.get(modname), attr, None)
                if fn is None:
                    continue
                if (modname, attr) == ("jets", "sample"):
                    wrapper = self._sample_wrapper(fn)
                else:
                    wrapper = self.span(f"{modname}.{attr}", fn)
                self._patch_function(fn, wrapper)
        run_check = getattr(mods.get("report"), "run_check", None)
        if run_check is not None:
            self._patch_function(run_check, self._run_check_wrapper(run_check))
        for modname, attr in FORM_BUILDERS:
            fn = getattr(mods.get(modname), attr, None)
            if fn is not None:
                self._patch_function(fn, self._form_builder_wrapper(f"{modname}.{attr}", fn))
        for (modname, clsname), attrs in METHOD_SPANS.items():
            cls = getattr(mods.get(modname), clsname, None)
            for attr in attrs:
                if cls is not None and attr in cls.__dict__:
                    self._patch(cls, attr, self.span(f"{modname}.{attr}", cls.__dict__[attr]))
        self._install_counts(mods["jets"])

    def _install_counts(self, jets):
        ops = self.ops
        for attr, op in JET_COUNTS.items():
            raw = jets.Jet.__dict__.get(attr)
            if raw is None:
                continue
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw

            def counted(*args, _fn=fn, _op=op, **kwargs):
                ops[_op] += 1
                return _fn(*args, **kwargs)

            self._patch(jets.Jet, attr, classmethod(counted) if is_cm else counted)
        accepts = jets.Guard.__dict__.get("accepts")
        if accepts is not None:
            sampling = self.sampling

            def counted_accepts(guard, pt):
                if guard is self._first_guard:
                    sampling[1] += 1
                return accepts(guard, pt)

            self._patch(jets.Guard, "accepts", counted_accepts)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers with extra accounting ---------------------------------------

    def _run_check_wrapper(self, fn):
        span = self.span("report.run_check", fn)

        @functools.wraps(fn)
        def wrapper(name, check_fn, points, *args, **kwargs):
            points = list(points)
            mul0 = self.ops["mul"]
            t0 = self.clock()
            try:
                return span(name, check_fn, points, *args, **kwargs)
            finally:
                row = self.checks[name]
                row[0] += 1
                row[1] += len(points)
                row[2] += self.clock() - t0
                row[3] += self.ops["mul"] - mul0

        return wrapper

    def _sample_wrapper(self, fn):
        span = self.span("jets.sample", fn)

        @functools.wraps(fn)
        def wrapper(domain, *args, **kwargs):
            guards = getattr(domain, "guards", ())
            self._first_guard = guards[0] if guards else None
            draws0 = self.sampling[1]
            t0 = self.clock()
            try:
                pts = span(domain, *args, **kwargs)
            finally:
                self._first_guard = None
                self.sampling[3] += self.clock() - t0
            self.sampling[0] += 1
            self.sampling[2] += len(pts)
            if not guards:
                self.sampling[1] = draws0 + len(pts)
            return pts

        return wrapper

    def _form_builder_wrapper(self, name, fn):
        from ewbench.forms import PForm
        from ewbench.jets import Field

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            form = fn(*args, **kwargs)
            comps = {idx: Field(self.span(name, f.fn)) for idx, f in form.comps.items()}
            return PForm(form.chart, form.degree, comps)

        return wrapper


def self_of(tracer, *names):
    return sum(tracer.self_time.get(n, 0.0) for n in names)


def incl_of(tracer, *names):
    return sum(tracer.inclusive.get(n, 0.0) for n in names)


CHECK_NAMES = ("gt", "monopole", "hypercr", "psi", "weyl", "em", "maxwell", "invariants")
CURVATURE_SPANS = (
    "curv.ricci",
    "curv.riemann",
    "curv.kretschmann",
    "curv.weyl_ricci_residual",
    "curv.weyl_ricci_residual_metric",
)


def layer_metrics(tr, n_jobs, n_points):
    """Per-layer metrics of one traced pass.

    ``*_per_point`` divides by the points the pass evaluated, ``*_s`` and
    ``*_calls`` by the jobs it ran.  A check the workload never runs reads 0.
    """
    pts = max(n_points, 1)
    out = {}
    for op in JET_OPS:
        out[f"jets.{op}_per_point"] = tr.ops[op] / pts
    for name in CHECK_NAMES:
        calls, npts, secs, muls = tr.checks.get(name, (0, 0, 0.0, 0))
        out[f"check.{name}.us_per_point"] = secs / npts * 1e6 if npts else 0.0
        out[f"check.{name}.mul_per_point"] = muls / npts if npts else 0.0
    _, draws, accepted, sample_s = tr.sampling
    out["jets.sample.draws_per_s"] = draws / sample_s if sample_s else 0.0
    out["jets.sample.draws"] = draws / n_jobs
    out["jets.sample.accept_ratio"] = accepted / draws if draws else 0.0
    out["jets.sample_s"] = sample_s / n_jobs
    out["expr.eval_jet_nodes_per_point"] = tr.calls["expr.eval_jet"] / pts
    out["forms.jet_inv_calls"] = tr.calls["forms.jet_inv"] / n_jobs
    out["forms.jet_inv_s"] = incl_of(tr, "forms.jet_inv") / n_jobs
    out["forms.metric_jets_s"] = incl_of(tr, "forms.jets_at") / n_jobs
    out["forms.matrix_at_s"] = incl_of(tr, "forms.matrix_at") / n_jobs
    out["curv.curvature_self_s"] = self_of(tr, *CURVATURE_SPANS) / n_jobs
    out["families.build_s"] = tr.layer_incl["families"] / n_jobs
    out["lift.build_s"] = self_of(tr, "lift.build_p", "lift.build_alpha") / n_jobs
    out["lift.validate_s"] = incl_of(tr, "lift.validate_config") / n_jobs
    out["lift.flat_limit_s"] = incl_of(tr, "lift.flat_limit") / n_jobs
    out["report.run_check_self_s"] = self_of(tr, "report.run_check") / n_jobs
    out["report.json_s"] = incl_of(tr, "report.report_json") / n_jobs
    out["cli.self_s"] = self_of(tr, "cli.main") / n_jobs
    for layer in LAYERS:
        secs = sum(v for k, v in tr.self_time.items() if k.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = secs / n_jobs
    return out
