"""Exception types shared across the package."""

__all__ = ["UsableInfoError", "DataError", "NumericalError", "InfiniteLogDensityError"]


class UsableInfoError(Exception):
    """Base class for errors raised by this package."""


class DataError(UsableInfoError):
    """Malformed or inconsistent input data (bad CSV, shape mismatch on disk)."""


class NumericalError(UsableInfoError):
    """A computation failed numerically (divergence, unbounded log-density)."""


class InfiniteLogDensityError(NumericalError):
    """A fitted predictor assigned zero density to an observed sample.

    Raised when an entropy average would be infinite.  Configure a clip
    bound on the family (``FamilyConfig.clip_b``) to keep log-densities
    bounded instead.
    """
