"""SE_2(3)-based inertial-integrated navigation: filtering and smoothing."""

from liese_nav.errors import (
    ConfigError,
    Divergence,
    IncompatibleMode,
    IoError,
    LieseNavError,
    NearPiRotation,
    NonFiniteInput,
    NonMonotoneTime,
    NotPSD,
    PoleSingularity,
    SingularPredCov,
    UnsupportedVariant,
)

__all__ = [
    "ConfigError",
    "Divergence",
    "IncompatibleMode",
    "IoError",
    "LieseNavError",
    "NearPiRotation",
    "NonFiniteInput",
    "NonMonotoneTime",
    "NotPSD",
    "PoleSingularity",
    "SingularPredCov",
    "UnsupportedVariant",
]

__version__ = "0.1.0"
