"""Exception hierarchy. Every domain error derives from McycleError so the
CLI can map them uniformly to exit status 1 with a machine-readable payload."""


class McycleError(Exception):
    """Base class for all domain errors."""

    def payload(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


# arithmetic
class DegenerateQuadratic(McycleError):
    """Leading coefficient is zero; caller must handle the linear case."""


class InsufficientPrecision(McycleError):
    """Guaranteed digits cannot certify a result at the requested accuracy."""


class IncompatibleRadicands(McycleError):
    """Exact arithmetic attempted between values in different quadratic fields."""


# projective geometry
class DegenerateConfiguration(McycleError):
    """Point configuration too degenerate (e.g. four or more collinear)."""


class LineOnConic(McycleError):
    """The restriction of the conic to the line vanishes identically."""


# Kummer plane
class InvalidModuli(McycleError):
    """Moduli parameters violate the distinctness constraints."""


class NotOnH4(McycleError):
    """Operation requires a2 = a1*a3."""


# cycle / regulator
class OnH5Locus(McycleError):
    """The two s6 points coincide: the cycle degenerates."""


class ZeroDenominator(McycleError):
    """A denominator required by the construction vanishes."""


class PoleEvaluation(McycleError):
    """Evaluation at the pole of the rational function."""


class RepeatedRoot(McycleError):
    """The pipeline quadratic has a double root."""


class BranchAtRamification(McycleError):
    """An intersection point sits on the ramification locus."""


# NS lattice
class IncompatibleModules(McycleError):
    """NS classes built over different endomorphism modules."""


# Green's functions
class SingularArgument(McycleError):
    """Legendre argument outside the domain t > 1."""


class OnSingularLocus(McycleError):
    """Evaluation point lies (numerically) on the singular divisor."""

    def __init__(self, message, m=None):
        super().__init__(message)
        self.m = m

    def payload(self) -> dict:
        d = super().payload()
        if self.m is not None:
            d["m"] = self.m
        return d


class BudgetExceeded(McycleError):
    """Adaptive refinement exceeded the configured cap."""
