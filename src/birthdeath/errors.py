"""Exception types shared across the package."""


class BirthDeathError(Exception):
    """Base class for all package errors."""


class SizeLimitError(BirthDeathError):
    """A configuration exceeds the cardinality limit of a combinatorial routine."""


class ModelValidationError(BirthDeathError):
    """Model parameters violate a structural requirement."""


class ConditionError(BirthDeathError):
    """A sufficient condition needed by an algorithm does not hold."""


class TruncationError(BirthDeathError):
    """A computation needs correlation orders beyond the truncation and no
    closure rule was enabled."""


class ConstantOverflowError(BirthDeathError, OverflowError):
    """A condition constant exp(x) lies beyond the float range."""


class KernelBoundError(BirthDeathError):
    """Numerically measured kernel integrals exceed the declared constants."""


class StabilityError(BirthDeathError):
    """Requested time step violates the explicit-integrator stability guard."""


class BlowUpError(BirthDeathError):
    """A trajectory left the admissible region (norm or density blow-up)."""


class SimulationAbort(BirthDeathError):
    """The event simulation hit the population cap or another hard limit."""


class ConfigError(BirthDeathError):
    """A run configuration file is malformed or inconsistent."""
