"""Exception types shared across the package."""


class RotorSpecError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveMassError(RotorSpecError):
    """A particle mass is zero or negative."""


class AllCoincidentError(RotorSpecError):
    """Every particle sits at the center of mass; no rotational degrees of freedom."""


class NotRigidVelocityError(RotorSpecError):
    """A velocity list is not compatible with any rigid rotation of the body."""


class RepresentationClosureError(RotorSpecError):
    """An operator image left the space it must preserve (indicates a bug)."""


class SchemaError(RotorSpecError):
    """A job configuration document violates the input schema."""


class OutOfRangeError(RotorSpecError, ValueError):
    """A cutoff, momentum, hbar0, center-of-charge norm, relative position or tol.rel out of range."""


class BundleRequestError(RotorSpecError, ValueError):
    """A bundle (or mode) request is inadmissible for this body."""


class HamiltonianOverflowError(RotorSpecError):
    """A float Hamiltonian entry or a float energy left the float range
    (hbar or k too large); every route reports it with the same message."""

    def __init__(self, message: str = "hbar or k too large: the float Hamiltonian leaves the float range"):
        super().__init__(message)
