"""Exception types shared across the package."""


class LieseNavError(Exception):
    """Base class for all package-specific errors."""


class NearPiRotation(LieseNavError):
    """Rotation angle too close to pi for a well-conditioned logarithm."""


class NotPSD(LieseNavError):
    """A covariance matrix is not positive semi-definite."""


class PoleSingularity(LieseNavError):
    """Latitude too close to a pole for the local-level mechanization."""


class NonMonotoneTime(LieseNavError):
    """Timestamps are not strictly increasing."""


class UnsupportedVariant(LieseNavError):
    """The requested frame/error-definition combination is not available."""


class IncompatibleMode(LieseNavError):
    """The requested filter mode cannot be used with the selected variant."""


class SingularPredCov(LieseNavError):
    """A predicted covariance is numerically singular during smoothing."""


class ConfigError(LieseNavError):
    """Invalid or inconsistent configuration input."""


class Divergence(LieseNavError):
    """The filter left the numbers it can represent: a state or covariance
    turned non-finite or singular during the forward pass."""


class NonFiniteInput(LieseNavError):
    """An IMU sample or a GNSS fix holds a NaN or an infinity."""


class IoError(LieseNavError):
    """Failure reading or writing scenario files."""
