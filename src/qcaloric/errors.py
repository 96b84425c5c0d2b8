"""Exception hierarchy for the qcaloric package.

All package-specific failures derive from :class:`QCaloricError` so callers
can catch one base class; subclasses distinguish physics preconditions,
numerical non-convergence, and I/O problems.
"""


class QCaloricError(Exception):
    """Base class for all qcaloric errors."""


# --- linear algebra ---------------------------------------------------------

class NonHermitianError(QCaloricError):
    """Matrix fails the Hermiticity tolerance."""


class NoConvergenceError(QCaloricError):
    """LAPACK's Hermitian eigensolver (``eigh``) failed to converge."""


# --- model construction -----------------------------------------------------

class GridTooSmallError(QCaloricError):
    """Tabulated spectrum needs at least 3 grid points."""


class NonMonotoneGridError(QCaloricError):
    """Tabulated parameter grid must be strictly increasing."""


class OutOfRangeError(QCaloricError):
    """Requested parameter value lies outside the tabulated grid."""


class NoZeemanTermError(QCaloricError):
    """Operation needs a magnetization operator / field parameter."""


# --- thermal engine ---------------------------------------------------------

class NonPositiveTemperatureError(QCaloricError):
    """Temperature must be finite and strictly positive."""


class NonFiniteParameterError(QCaloricError):
    """The working parameter lambda must be finite (not NaN or +-inf)."""


class DimensionMismatchError(QCaloricError):
    """Operator dimension does not match the state's Hilbert space."""


class EmptyPathError(QCaloricError):
    """Process path needs at least two points."""


# --- caloric potentials -----------------------------------------------------

class QuadratureNoConvergenceError(QCaloricError):
    """Node-doubling Clenshaw-Curtis quadrature exhausted its refinement budget."""


class OdeNoConvergenceError(QCaloricError):
    """Chebyshev-Picard adiabat exhausted its iteration or refinement budget
    on the deepest half of a piece."""


class DegenerateVarianceError(QCaloricError):
    """Energy variance vanished along an adiabat; Eq.-of-motion is singular."""


class BracketFailureError(QCaloricError):
    """Entropy level not attained inside the bisection bracket."""


class ZeroTotalHeatError(QCaloricError):
    """Magnetic plus lattice specific heat vanished in a classical adiabat."""


# --- correlations / discord -------------------------------------------------

class AnisotropicStateError(QCaloricError):
    """Correlation functions violate the isotropy this formula requires."""


class NegativeSusceptibilityError(QCaloricError):
    """Susceptibility input must be non-negative."""


class SignCrossingError(QCaloricError):
    """Coupling sweep may not straddle J = 0 (|c| is not differentiable)."""


# --- scenario / IO ----------------------------------------------------------

class ScenarioSyntaxError(QCaloricError):
    """Scenario text is not well-formed JSON (carries line/column)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(QCaloricError):
    """A scenario field failed validation."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class UnknownKeyError(QCaloricError):
    """Scenario object contains a key the schema does not define."""


class HeaderMismatchError(QCaloricError):
    """Exchange-table CSV header differs from the required one."""


class NonMonotonePressureError(QCaloricError):
    """Exchange-table pressures must be strictly increasing."""


class TableParseError(QCaloricError):
    """Exchange-table row could not be parsed (carries row number)."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class IoError(QCaloricError):
    """Filesystem write failed."""


class TooFewPointsError(QCaloricError):
    """SVG emission needs at least one curve with at least two points."""


class ComputationError(QCaloricError):
    """A sweep grid point failed; message carries the grid coordinates."""
