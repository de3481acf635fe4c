"""Exception types shared across the package."""


class HochcapError(Exception):
    """Base class for everything raised on purpose by this package."""


class ParseError(HochcapError):
    """Malformed input file or scalar literal."""


class ValidationError(HochcapError):
    """Structure constants, actions or morphisms violate an axiom."""


class DegreeError(HochcapError):
    """Operation invoked at a degree where it is not defined."""


class InclusionViolation(HochcapError):
    """Claimed subspace is not contained where it must be."""


class NotACycle(HochcapError):
    """Vector fails the cycle condition (or lies outside the cycle space)."""


class NotCentral(HochcapError):
    """Element is not in the center of the algebra."""


class NotInvariant(HochcapError):
    """Element is not fixed by both actions."""


class NotExact(HochcapError):
    """Sequence fails exactness where it is required."""


class LiftFailed(HochcapError):
    """A linear system that should be solvable turned out not to be."""


class Unsolvable(HochcapError):
    """Linear system has no solution."""


class WrongModule(HochcapError):
    """Module is not one the operation accepts (another algebra's, say)."""


class MemoryGuardError(HochcapError):
    """A chain space would exceed the configured coordinate budget."""
