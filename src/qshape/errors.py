"""Exception types shared across the package."""


class QShapeError(Exception):
    """Base class for domain errors raised by this package."""


class VerificationFailed(QShapeError):
    """A post-hoc consistency check failed (e.g. nilpotency bound too small)."""


class NonHomogeneousRelation(QShapeError):
    """A quiver relation mixes degrees or is not composable."""


class UnknownFamily(QShapeError):
    """Unrecognized builtin algebra family name."""


class UnsupportedCharacteristic(QShapeError):
    """No valid radical method for this field characteristic."""


class NonSplitSemisimpleQuotient(QShapeError):
    """A declared idempotent e is not primitive with a split top: e (A/rad) e
    is not one-dimensional."""


class NotNonNegativelyGraded(QShapeError):
    """Operation requires the algebra to live in non-negative degrees."""


class NotSelfInjective(QShapeError):
    """Operation requires a self-injective algebra."""


class HypothesisViolated(QShapeError):
    """One of the standing hypotheses on the input algebra fails.  `which`
    names it; `verdicts`, when the gate raised, are all of its verdicts."""

    def __init__(self, which, verdicts=None):
        self.which = which
        self.verdicts = verdicts
        super().__init__(f"hypothesis violated: {which}")
