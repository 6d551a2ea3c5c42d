"""Exception types shared across the package."""


class MotError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(MotError):
    pass


class EmptyList(InvalidInput):
    pass


class InvalidParameter(InvalidInput):
    pass


class DimensionMismatch(MotError):
    pass


class MassMismatch(MotError):
    pass


class NotInConvexOrder(MotError):
    """Raised when no martingale coupling between the two measures exists."""


class SolverError(MotError):
    """The LP solver ended without a definite answer, or its answer
    failed the certificate check; the message says which."""


class PointOutsidePolytope(MotError):
    pass


class PointOutsideBox(MotError):
    pass


class AtomOutsideD(MotError):
    pass
