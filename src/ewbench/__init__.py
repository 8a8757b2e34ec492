"""Numerical verification workbench for hyper-CR Einstein-Weyl structures.

The package certifies a catalog of three-dimensional Einstein-Weyl
structures of hyper-CR type, their generating scalar solutions, and the
four-dimensional Einstein-Maxwell space-times they lift to, by evaluating
every defining equation pointwise on seeded samples.
"""
from .curv import (
    christoffel,
    em_residual,
    f_squared,
    kretschmann,
    maxwell_residual,
    ricci,
    riemann,
    weyl_ricci_residual,
)
from .errors import (
    ConfigError,
    DegenerateLegendreError,
    DomainError,
    EwbenchError,
    ExprSyntaxError,
    GaugeViolationError,
    HeatResidualError,
    JetOrderError,
    PsiResidualError,
    SamplingExhaustedError,
    SingularFrameError,
    SingularMetricError,
    UnknownIdentifierError,
)
from .ew import (
    EWStructure,
    from_H,
    from_uw,
    gauge_transform,
    gt_residual,
    hypercr_residual,
    monopole_residual,
    psi_residual,
)
from .expr import eval_jet, parse, parse_field, to_source
from .families import (
    class_a,
    class_b,
    class_c,
    from_generator,
    GeneratorG,
    heisenberg,
    psi_const,
)
from .forms import (
    Coframe3,
    MetricField,
    PForm,
    metric_from_coframe,
)
from .jets import ChartPoint, Field, Guard, Jet, SampleDomain, point, sample
from .lift import LiftConfig, SpacetimeData, flat_limit

__all__ = [
    "ChartPoint",
    "Coframe3",
    "EWStructure",
    "Field",
    "GeneratorG",
    "Guard",
    "Jet",
    "LiftConfig",
    "MetricField",
    "PForm",
    "SampleDomain",
    "SpacetimeData",
    "christoffel",
    "class_a",
    "class_b",
    "class_c",
    "em_residual",
    "eval_jet",
    "f_squared",
    "flat_limit",
    "from_H",
    "from_generator",
    "from_uw",
    "gauge_transform",
    "gt_residual",
    "heisenberg",
    "hypercr_residual",
    "kretschmann",
    "maxwell_residual",
    "metric_from_coframe",
    "monopole_residual",
    "parse",
    "parse_field",
    "point",
    "psi_const",
    "psi_residual",
    "ricci",
    "riemann",
    "sample",
    "to_source",
    "weyl_ricci_residual",
    "ConfigError",
    "DegenerateLegendreError",
    "DomainError",
    "EwbenchError",
    "ExprSyntaxError",
    "GaugeViolationError",
    "HeatResidualError",
    "JetOrderError",
    "PsiResidualError",
    "SamplingExhaustedError",
    "SingularFrameError",
    "SingularMetricError",
    "UnknownIdentifierError",
]

__version__ = "0.1.0"
