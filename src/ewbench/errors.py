"""Exception types shared across the workbench.

Each class states the exit code of the CLI in its ``exit_code``: 2 for
configuration problems (bad flags, unparseable expressions, inputs that
fail their certificates), 3 for sampling, domain and singular frame or
metric problems.  Ordinary check failures exit with 1.  These classes own
the codes 2 and 3: ``cli.EXIT_CONFIG`` and ``cli.EXIT_SAMPLING`` read them.
"""


class EwbenchError(Exception):
    """Base class for all workbench errors."""

    exit_code = 2


class ConfigError(EwbenchError):
    """Invalid run configuration (bad flag combination, malformed JSON, ...)."""


class ExprError(ConfigError):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}' at offset {offset}")
        self.name = name
        self.offset = offset


class DomainError(EwbenchError):
    """Evaluation left the domain of a function (log of a negative, 1/0, ...).

    ``subexpr`` carries the offending subexpression when evaluation went
    through the expression layer.
    """

    exit_code = 3

    def __init__(self, message, subexpr=None):
        if subexpr is not None:
            message = f"{message} in '{subexpr}'"
        super().__init__(message)
        self.subexpr = subexpr


class JetOrderError(EwbenchError):
    """A derivative beyond the supported jet order was requested."""


class SamplingExhaustedError(EwbenchError):
    """Rejection sampling accepted fewer than 1% of draws after the cap."""

    exit_code = 3


class SingularFrameError(EwbenchError):
    """Coframe determinant too close to zero for a frame expansion."""

    exit_code = 3


class SingularMetricError(EwbenchError):
    """Metric determinant too close to zero to invert."""

    exit_code = 3


class DegenerateLegendreError(EwbenchError):
    """|G_pp| below threshold: the generator's Legendre transform degenerates."""


class HeatResidualError(EwbenchError):
    """Class A parameter beta does not satisfy beta_t + beta_yy = 0."""


class GaugeViolationError(EwbenchError):
    """Lift input violates the constant-gauge requirement V*ell = -2."""


class PsiResidualError(EwbenchError):
    """Lift input psi does not satisfy its weighted monopole equation."""
