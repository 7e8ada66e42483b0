"""Semantic exceptions shared across the package."""


class PerflowError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomainError(PerflowError):
    """A state lies outside the box on which a model is defined.

    ``state`` and ``box`` are kept as given; the message spells both as
    plain lists of numbers.
    """

    def __init__(self, state, box):
        self.state = state
        self.box = box
        bounds = [box.lower.tolist(), box.upper.tolist()]
        super().__init__(f"state {state.tolist()} outside domain box {bounds}")


class NumericIntegrationError(PerflowError):
    """A vector field or iterate became non-finite during integration."""

    def __init__(self, message, state=None):
        self.state = state
        super().__init__(message)


class NotAnEquilibriumError(PerflowError):
    """Classification was requested at a point where neither field vanishes."""


class NotAMinimizerError(PerflowError):
    """The reference point of a curvature estimate is not a local risk minimizer."""


class InvalidCertificateError(PerflowError):
    """A downstream computation needs certificate constants that are degenerate."""


class MissingConstantsError(PerflowError):
    """A bound formula needs smoothness constants that were not provided."""


class ConfigError(PerflowError):
    """An experiment configuration is malformed or out of range."""
