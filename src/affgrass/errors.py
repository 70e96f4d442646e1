"""Shared exception types."""


class AffgrassError(Exception):
    pass


class PrecisionLoss(AffgrassError):
    """A valuation or coefficient could not be determined at the working precision."""


class DivisionByZero(AffgrassError):
    pass


class SingularMatrix(AffgrassError):
    pass


class GaussFailure(AffgrassError):
    """A BFZ parameter t_i vanishes up to precision, so y_word(t) has no
    Gauss decomposition (a leading principal minor vanishes)."""


class InconsistentFamily(AffgrassError):
    """Support numbers do not define a positive orthogonal vertex family.

    ``rootdata`` rejects many candidate families whose message nobody reads,
    so it raises a ``str.format`` template followed by its fields, and the
    message is formatted only when ``str`` reads it."""

    def __str__(self):
        return self.args[0].format(*self.args[1:]) if len(self.args) > 1 else self.args[0]


class NotMV(AffgrassError):
    """No Weyl twist makes the two edge-path data braid-consistent."""


class ShapeMismatch(AffgrassError):
    pass


class NormalPositionRequired(AffgrassError):
    pass


class PatternMismatch(AffgrassError):
    pass


class RetryExhausted(AffgrassError):
    pass


class PreconditionViolated(AffgrassError):
    pass


class BudgetExceeded(AffgrassError):
    pass


class PavingVerificationFailed(AffgrassError):
    """A paving step or point-count check failed; the instance is in the message."""
