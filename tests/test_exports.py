"""Every exported name resolves, the package exports exactly the names its
imports bind, and the code that only tests reach (now in
``tests/oracle.py``) is neither defined nor exported by the package."""
import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import ewbench
from ewbench.ew import EWStructure
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
    "require_guard",
    "GuardViolationError",
    "_field_strength",
    "curvature_report",
    "CurvatureReport",
    "MetricPass",
    "metric_pass",
    "_metric_pass",
    "_fd_arrays",
    "class_a_closed",
    "class_b_closed",
    "class_c_closed",
    "_dy_p_dt",
    "g_equation_residual",
    "branch_residual",
    "star_frame",
    "fd_oracle",
    "_fd_step",
    "FD_STEP_SCALE",
    "build_p",
    "build_alpha",
    "p_chart",
    "_embedded",
    "FIBRE_WINDOWS",
    "ALPHA_WINDOW",
    "ALPHA_ELL_MAX",
    "hcr_residual",
    "constraints_residual",
    "_hxyt",
    "heisenberg_psi",
    "fundamental_H",
    "FUNDAMENTAL_H",
    "CLASS_B_FS",
    "k_from_phi",
    "FramePass",
    "pass_at",
    "WeightedForm",
    "ZERO_FIELD",
    "_Coordinates",
    "ext_d",
    "wedge",
    "scalar_form",
    "literal_op",
    "_literal_product",
    "Param",
    "_number_op",
    "_tiled",
    "_RowConstant",
    "_folded",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_no_submodule_restates_the_public_api():
    """The imports of ``__init__.py`` are the one statement of the public
    API: no submodule carries an ``__all__`` of its own."""
    submodules = [importlib.import_module(name) for name in MODULES[1:]]
    assert [m.__name__ for m in submodules if hasattr(m, "__all__")] == []


def test_the_package_exports_the_names_its_imports_bind():
    """``ewbench.__all__`` is the names that the ``from .x import ...``
    statements of ``__init__.py`` bind, each once: no module, no ``_`` name,
    and nothing that another import (``from __future__`` included) binds."""
    tree = ast.parse(Path(ewbench.__file__).read_text(encoding="utf-8"))
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(bound)) == len(bound)
    assert sorted(ewbench.__all__) == sorted(bound)
    assert [n for n in bound if n.startswith("_")] == []
    assert [n for n in bound if isinstance(getattr(ewbench, n), types.ModuleType)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_defines_or_exports_a_moved_name(name):
    module = importlib.import_module(name)
    assert [n for n in MOVED if hasattr(module, n)] == []
    assert [n for n in MOVED if n in getattr(module, "__all__", ())] == []


def test_no_class_keeps_a_moved_method():
    assert not hasattr(PForm, "max_abs_at") and not hasattr(PForm, "values_at")
    assert not hasattr(MetricField, "signature_at")
    assert not hasattr(MetricField, "from_value_matrix")
    assert not hasattr(MetricField, "pass_at") and not hasattr(MetricField, "inverse_at")
    assert not hasattr(EWStructure, "pass_at") and not hasattr(PForm, "comp")
    for cls in (ChartPoint, PointBatch):
        assert not hasattr(cls, "coord") and not hasattr(cls, "with_coord")


def test_the_metric_work_is_declared_in_curv_only():
    from ewbench import curv, forms

    names = ("inverse", "metric_det", "METRIC_DET_TOL")
    assert all(hasattr(curv, n) for n in names)
    assert [n for n in names if hasattr(forms, n)] == []


def test_a_lift_config_has_no_validate_knob():
    from ewbench.lift import LiftConfig

    assert "validate" not in LiftConfig.__dataclass_fields__


def test_points_carry_no_parameters():
    assert not hasattr(Field, "param")
    assert not hasattr(ChartPoint, "params") and not hasattr(ChartPoint, "param")
    assert not hasattr(PointBatch, "params") and not hasattr(PointBatch, "param")
    assert not hasattr(ChartPoint.make(("x",), (1.0,)), "params")
