"""Exception hierarchy shared by all greenwalk modules."""


class GreenwalkError(Exception):
    """Base class for all errors raised by greenwalk."""


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


class MissingNormsError(GreenwalkError):
    """A CL function has neither an evaluator nor grid samples, or has only samples on another grid."""


class ConfigError(GreenwalkError):
    """An experiment configuration failed validation."""
