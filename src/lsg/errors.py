"""Exception hierarchy.

Every failure mode the library reports deliberately gets its own class so
callers (and the CLI exit-code mapping) can dispatch on type rather than
parse messages.
"""


class LsgError(Exception):
    """Base class for all library errors."""


class ConfigError(LsgError):
    """Invalid configuration text, key, or constraint violation."""


# --- root systems ---------------------------------------------------------

class UnsupportedRootSystem(ConfigError):
    """Requested root-system identifier is not in the supported whitelist."""


class ClosureOverflow(LsgError):
    """Reflection closure exceeded the hard cap; the root set is malformed."""


class DimensionError(LsgError):
    """Vector length does not match the root-system rank."""


# --- spherical machinery --------------------------------------------------

class SingularSpectralParameter(LsgError):
    """Spectral parameter lies on a Weyl wall where the c-function blows up."""


class ChamberWallEvaluation(LsgError):
    """Spherical-function evaluation requested too close to a chamber wall."""


class GridTooSmall(LsgError):
    """Grid fails a tail or resolution check for the requested operation."""


# --- propagation ----------------------------------------------------------

class InvalidTime(LsgError):
    """Nonpositive (or negative, for spectral synthesis) evolution time."""


class UnderResolvedPhase(LsgError):
    """Spectral grid spacing cannot resolve the evolution chirp."""


class ForcingNotAntisymmetrizable(LsgError):
    """Forcing term's conjugated profile fails the Weyl antisymmetry check."""


# --- envelopes and estimates ----------------------------------------------

class InsufficientDecaySamples(LsgError):
    """Too few usable nodes in the envelope-fit annulus."""


class NotGaussianDecay(LsgError):
    """Envelope fit produced a nonpositive Gaussian rate."""


class UnsupportedExponent(LsgError):
    """Lebesgue exponent outside the supported range."""


class InsufficientTimes(LsgError):
    """Decay fit needs at least five times spanning a decade."""


class ZeroData(LsgError):
    """An estimate is a ratio or a logarithm of norms that vanish."""


# --- Heisenberg explorer ---------------------------------------------------

class QuadratureFailure(LsgError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class EvaluationAtSingularity(LsgError):
    """Integrand evaluation requested at (or too near) a true singularity."""
