"""Numerical verification workbench for hyper-CR Einstein-Weyl structures.

The package certifies a catalog of three-dimensional Einstein-Weyl
structures of hyper-CR type, their generating scalar solutions, and the
four-dimensional Einstein-Maxwell space-times they lift to, by evaluating
every defining equation pointwise on seeded samples.
"""
from types import ModuleType as _ModuleType

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

# The imports above are the public API: every name they bind, and no
# submodule they bind along the way.
__all__ = [
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)
]

__version__ = "0.1.0"
