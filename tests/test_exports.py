"""Every exported name resolves, and the code that only tests reach (now in
``tests/oracle.py``) is neither defined nor exported by the package."""
import importlib
import pkgutil

import pytest

import ewbench
from ewbench.forms import MetricField, PForm
from ewbench.jets import ChartPoint, Field, PointBatch

MODULES = ["ewbench"] + [
    f"ewbench.{m.name}" for m in pkgutil.iter_modules(ewbench.__path__) if m.name != "__main__"
]
# module-level names that moved to the oracle module, or were removed
MOVED = (
    "hodge3",
    "frame_expand",
    "weighted_d",
    "from_value_matrix",
    "p_of_alpha",
    "dalpha_dp",
    "require_guards",
    "_field_strength",
    "curvature_report",
    "CurvatureReport",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_defines_or_exports_a_moved_name(name):
    module = importlib.import_module(name)
    assert [n for n in MOVED if hasattr(module, n)] == []
    assert [n for n in MOVED if n in getattr(module, "__all__", ())] == []


def test_no_class_keeps_a_moved_method():
    assert not hasattr(PForm, "max_abs_at")
    assert not hasattr(MetricField, "signature_at")
    assert not hasattr(MetricField, "from_value_matrix")
    assert not hasattr(MetricField, "pass_at") and not hasattr(MetricField, "inverse_at")


def test_the_metric_pass_is_declared_in_curv_only():
    from ewbench import curv, forms

    names = ("MetricPass", "metric_pass", "metric_det", "METRIC_DET_TOL")
    assert all(hasattr(curv, n) for n in names)
    assert [n for n in names if hasattr(forms, n)] == []


def test_points_carry_no_parameters():
    assert not hasattr(Field, "param")
    assert not hasattr(ChartPoint, "params") and not hasattr(ChartPoint, "param")
    assert not hasattr(PointBatch, "params") and not hasattr(PointBatch, "param")
    assert not hasattr(ChartPoint.make(("x",), (1.0,)), "params")
