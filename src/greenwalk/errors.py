"""Exception hierarchy shared by all greenwalk modules, and the one input gate that raises InvalidInputError."""

from numbers import Integral

import numpy as np


class GreenwalkError(Exception):
    """Base class for all errors raised by greenwalk."""


class InvalidInputError(GreenwalkError, ValueError):
    """An argument lies outside the domain on which the quantity is defined."""


class InvalidKernelError(GreenwalkError):
    """A jump kernel violates one of its construction preconditions."""


class GridMismatchError(GreenwalkError):
    """Two grid-sampled fields do not live on the same grid."""


class AliasingError(GreenwalkError):
    """A kernel carries too much mass at the box boundary for FFT convolution."""


class DivergentGreenMeasureError(GreenwalkError):
    """The Green measure does not exist (d <= alpha) or alpha is unknown."""


class TruncationError(GreenwalkError):
    """A series or sampler exceeded its configured cap before converging."""


class InversionInstabilityError(GreenwalkError):
    """Two Laplace-inversion orders disagree beyond the instability threshold."""


class ConfigError(GreenwalkError):
    """An experiment configuration failed validation."""


def _require(ok, name: str, requirement: str) -> None:
    """Raise InvalidInputError("<name> must be <requirement>") unless ok holds everywhere; NaN must fail ok."""
    if ok is not True and not np.all(ok):
        raise InvalidInputError(f"{name} must be {requirement}")


def _require_count(n, name: str, least: int) -> None:
    """Raise InvalidInputError unless n is an integer >= least; a bool is no integer."""
    if not (isinstance(n, Integral) and not isinstance(n, bool) and n >= least):
        raise InvalidInputError(f"{name} must be an integer with {name} >= {least}")


def _require_mc(n, seed) -> None:
    """The gate of every Monte Carlo estimate: n >= 2 replicas, so that it has a standard error, and a seed >= 0."""
    _require_count(n, "n", 2)
    _require_count(seed, "seed", 0)
