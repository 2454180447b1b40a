"""Exception types raised across the package.

Every predictable failure mode gets its own class so callers (and the CLI
exit-code logic) can dispatch on type instead of parsing messages.
"""


class ChainCodesError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ChainCodesError, ValueError):
    """Ring parameters violate an invariant (p not prime, bad t, bad f, ...)."""


class RingMismatchError(ChainCodesError, ValueError):
    """Two elements from different rings were combined."""


class NotAUnitError(ChainCodesError, ArithmeticError):
    """Inversion was requested for a non-unit."""


class NonCoprimeError(ChainCodesError, ValueError):
    """A coprimality precondition failed (gcd(N, p) != 1, Hensel factors, ...)."""


class RankNotPrimeError(ChainCodesError, ValueError):
    """Coset classification needs the Galois rank to be 1 or a prime."""


class CoercionFailedError(ChainCodesError, ArithmeticError):
    """An extension-ring value could not be expressed over the base ring."""


class SpecShapeError(ChainCodesError, ValueError):
    """A code spec matrix does not match the coset classification shape."""


class RankNotOneError(ChainCodesError, ValueError):
    """An operation restricted to rank-1 rings got a ring with r > 1."""


class LengthMismatchError(ChainCodesError, ValueError):
    """Two vectors of different lengths were paired."""


class UnknownComponentError(ChainCodesError, KeyError):
    """A component basis was requested for a component that does not exist."""


class NotCyclicError(ChainCodesError, ValueError):
    """A code handle fails the cyclic-shift closure check."""


class NotDecomposableError(ChainCodesError, ValueError):
    """A code is cyclic and S-linear but its rebuild does not match the input."""


class ClosureChangedCodeError(ChainCodesError, ValueError):
    """Index closure of an Eisenstein spec changed the built code."""


class TooLargeError(ChainCodesError, ValueError):
    """An enumeration was requested beyond the configured cap."""


class NonFreeModuleError(ChainCodesError, TypeError):
    """Trace machinery was requested where the ring is not free over the base."""


class ProductMismatchError(ChainCodesError, ValueError):
    """Hensel input factors do not multiply to the target polynomial mod p."""


class CertificateError(ChainCodesError, ArithmeticError):
    """A computed object failed a check of the identities that define it."""
