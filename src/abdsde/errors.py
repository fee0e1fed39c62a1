"""Exception types shared across the package.

Every error raised by the library derives from :class:`AbdsdeError`, so
callers (in particular the CLI) can distinguish domain failures from bugs.
"""


class AbdsdeError(Exception):
    """Base class for all library errors."""


class NonCommensurate(AbdsdeError):
    """A horizon is not an integer multiple of the grid step."""


class ShapeMismatch(AbdsdeError):
    """An array argument has the wrong shape for the declared dimensions."""


class NonFinite(AbdsdeError):
    """A computation produced (or received) NaN or infinity."""


class A1Violation(AbdsdeError):
    """An anticipation map exits the horizon: t + delay(t) > T + K somewhere."""


class NonPositiveDelay(AbdsdeError):
    """An anticipation map is not strictly positive on [0, T]."""


class NonTermination(AbdsdeError):
    """The segmentation scan failed to reach 0 within the node budget."""


class UnknownName(AbdsdeError):
    """A builtin catalog lookup failed."""


class Infeasible(AbdsdeError):
    """Lipschitz metadata violates the contraction feasibility condition."""


class SingularDesign(AbdsdeError):
    """Unridged least squares met a rank-deficient design matrix."""


class BackendMismatch(AbdsdeError):
    """An exact backend was used with paths it does not enumerate."""


class TooLarge(AbdsdeError):
    """A requested exact tree exceeds the enumeration budget."""


class NotMeasurable(AbdsdeError):
    """Terminal data vary on increments their node's information field does not see."""


class NoConvergence(AbdsdeError):
    """Fixed-point iteration hit its iteration cap above tolerance."""


class TerminalOrderViolated(AbdsdeError):
    """A comparison run received terminal data that is not ordered."""


class ParseError(AbdsdeError):
    """A scenario file could not be parsed."""


class ValidationError(AbdsdeError):
    """A scenario file parsed but failed semantic validation."""
