"""Ground fields: the rationals and prime fields.

Field elements are plain Python objects.  Over Q they are integer
first: an `int` whenever the value is integral, a `Fraction` only when
its denominator exceeds 1.  Over F_p they are ints in [0, p).  A field
object only bundles the arithmetic, parsing and formatting conventions;
it never wraps the scalars themselves, so the rest of the package can
use native operators through these helpers without boxing overhead.

The canonical form over Q is set where scalars enter (`coerce`, `inv`)
and where the elimination kernel emits them, not by `add` or `mul`.
Python's `int`/`Fraction` mixing is exact, and an `int` equals its
integral `Fraction` with the same hash and `str()`, so a sum that comes
out as `Fraction(2, 1)` compares, hashes and prints like `2`.
"""

import re
from fractions import Fraction

from .errors import ParseError


# Miller-Rabin with the first 13 prime bases decides primality exactly
# for every n below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = t * 2**s, t odd
    t = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# `Fraction("1e10000000")` builds a ten-million-digit integer before
# anything can refuse it.  Decimal exponents are bounded by the
# interpreter's default int-string limit, which already bounds the
# digits of an integer literal.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _exponent_too_large(s):
    m = _EXPONENT.search(s)
    if m is None:
        return False
    digits = m.group(1).lstrip("+-").replace("_", "").lstrip("0")
    return len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT


class Rationals:
    """The field Q.  Elements are `int`s, or `Fraction`s that are not integral."""

    kind = "Q"
    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            if _exponent_too_large(x):
                raise ParseError(f"exponent of {x!r} exceeds {_MAX_EXPONENT} in magnitude")
            try:
                x = Fraction(x.strip())
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"bad rational literal {x!r}") from e
        elif not isinstance(x, Fraction):
            raise ParseError(f"cannot coerce {x!r} into Q")
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        q = Fraction(1, a)
        return q.numerator if q.denominator == 1 else q

    def format(self, x):
        return str(x)

    def to_json(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p.  Elements are ints in [0, p)."""

    kind = "Fp"

    def __init__(self, p):
        if isinstance(p, int) and p >= _MR_BOUND:
            raise ParseError(f"p must be below {_MR_BOUND}, got {p}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ParseError(f"p must be prime, got {p!r}")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            try:
                return int(x.strip(), 10) % self.p
            except ValueError as e:
                raise ParseError(f"bad integer literal {x!r}") from e
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ParseError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise ParseError(f"cannot coerce {x!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def format(self, x):
        return str(x % self.p)

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()

_gf_cache = {}


def GF(p):
    # a JSON p may be a list or an object, which cannot be a dict key
    field = _gf_cache.get(p) if isinstance(p, int) else None
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field


def field_from_json(obj):
    """Builds a field from {"kind": "Q"} or {"kind": "Fp", "p": <prime>}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad field description {obj!r}")
    if obj["kind"] == "Q":
        return QQ
    if obj["kind"] == "Fp":
        if "p" not in obj:
            raise ParseError("field of kind Fp needs a prime p")
        return GF(obj["p"])
    raise ParseError(f"unknown field kind {obj['kind']!r}")
