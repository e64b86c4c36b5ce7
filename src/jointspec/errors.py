"""Exception types shared across the library."""


class JointSpecError(Exception):
    """Base class for all library errors."""


class InvalidOperator(JointSpecError):
    """Matrix is not a valid operator (non-finite entries, not Hermitian, ...)."""


class DimensionMismatch(JointSpecError):
    """Operands have incompatible dimensions."""


class NumericalFailure(JointSpecError):
    """An iterative solver failed to converge.

    Carries solver diagnostics in ``details`` when available.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class UnsupportedDimension(JointSpecError):
    """Requested Clifford representation dimension is out of range."""


class RepMismatch(JointSpecError):
    """Clifford representation size does not match the observable tuple."""


class ChiralSymmetryViolation(JointSpecError):
    """Grading operator does not anticommute with H / commute with X."""


class NotRealMatrix(JointSpecError):
    """Matrix expected to be real has significant imaginary parts."""


class SymmetryHypothesisViolated(JointSpecError):
    """Unitary S does not satisfy the assumed (anti)commutation relations."""


class ParameterOutOfRange(JointSpecError):
    """Model or operation parameter outside its admissible range."""


class ZNotInvertible(JointSpecError):
    """Distance operator has a (near-)zero diagonal entry.

    A site sits at the probe origin; shift the probe slightly (the gap is
    1-Lipschitz in the probe, so the estimate degrades gracefully).
    """


class CTooLarge(JointSpecError):
    """Perturbation constant C >= 1; the truncation sandwich is vacuous."""


class EmptyBall(JointSpecError):
    """No lattice site lies within the requested truncation radius."""


class ModelConfigError(JointSpecError):
    """Malformed model configuration or matrix file."""
