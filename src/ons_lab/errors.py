"""Exception types shared across the library."""


class OnsLabError(Exception):
    """Base class for all library-specific errors."""


class InvalidInterval(OnsLabError):
    """Integration interval is empty, reversed, or outside [0, 1]."""


class NonFiniteIntegrand(OnsLabError):
    """Integrand returned NaN or infinity away from declared breakpoints."""


class IndexOutOfRange(OnsLabError):
    """Requested partial-sum order exceeds the stored coefficient table."""


class MissingDerivative(OnsLabError):
    """Operation requires a function spec with a derivative evaluator."""


class UnknownSystem(OnsLabError):
    """System name not present in the catalog."""


class UnknownFunction(OnsLabError):
    """Function name not present in the catalog."""


class InvalidConfig(OnsLabError, ValueError):
    """Experiment configuration failed validation."""
