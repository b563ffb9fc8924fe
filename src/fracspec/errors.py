"""Exception types shared across the package."""


class FracspecError(Exception):
    """Base class for all library errors."""


class SingularAngle(FracspecError):
    """Operation requires a regular angle but got a delta-branch one."""


class UndersampledChirp(FracspecError):
    """Sample spacing too coarse for the kernel oscillation at this angle."""


class DomainError(FracspecError):
    """Requested evaluation outside the data's grid (no extrapolation)."""


class NonPositiveScale(FracspecError):
    pass


class MomentOrderTooHigh(FracspecError):
    pass


class NotAWavelet(FracspecError):
    """Window fails the vanishing-zeroth-moment gate."""


class DivergentAdmissibility(FracspecError):
    """Admissibility integral fails the small-frequency convergence check."""


class ZeroAdmissibility(FracspecError):
    """Admissibility constant too small to normalize a reconstruction."""


class DerivativeOrderTooHigh(FracspecError):
    pass


class GridTooCoarse(FracspecError):
    """Grid does not support the requested stencil or quadrature."""


class PairingDiverged(FracspecError):
    """Distribution pairing refused: its value is not finite, or the
    tanh-sinh rule's error estimate exceeds its budget."""


class InvalidExponent(FracspecError):
    pass


class AngleOutsideTheoremRange(FracspecError):
    """Checker rejects angles outside the theorem's stated interval."""


class MalformedCSV(FracspecError):
    pass


class NonUniformGrid(FracspecError):
    pass
