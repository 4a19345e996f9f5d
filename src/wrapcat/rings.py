"""Exact coefficient fields: the rationals and the prime fields.

Scalars are plain Python objects (``Fraction`` for Q, ``int`` for F_p),
normalised through the field so that equality is literal equality.  No floats
appear anywhere in the engine.  Every coefficient ring is a field, so every
elimination in the engine is Gaussian elimination (``matrices.Echelon``);
over Q the echelon keeps its rows as integer vectors and eliminates on
Python ints, turning back to Fractions only for what it returns.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaError

_ZERO, _ONE = Fraction(0), Fraction(1)     # shared: a Fraction is immutable


# Miller-Rabin to the bases 2..41 decides primality exactly below the
# bound: it is the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015).  Without 41 the least is 318665857834031151167461.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Exact for p below PRIME_BOUND."""
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):      # a^d, a^2d, .., a^(2^(s-1) d)
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class CoefficientRing:
    """Q or F_p (p prime), with exact scalar arithmetic.  Two rings are
    equal when they are the same field."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int = 0):
        if kind not in ("Q", "Fp"):
            raise SchemaError(f"unknown ring kind {kind!r}")
        if kind == "Fp" and p >= PRIME_BOUND:
            raise SchemaError(f"characteristic {p} is not below {PRIME_BOUND}, "
                              "where primality is decided exactly")
        if kind == "Fp" and not _is_prime(p):
            raise SchemaError(f"characteristic {p} is not prime")
        self.kind = kind    # "Q" | "Fp"
        self.p = p

    def __eq__(self, other):
        return (isinstance(other, CoefficientRing)
                and (self.kind, self.p) == (other.kind, other.p))

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"CoefficientRing(kind={self.kind!r}, p={self.p!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals() -> "CoefficientRing":
        return CoefficientRing("Q")

    @staticmethod
    def prime_field(p: int) -> "CoefficientRing":
        return CoefficientRing("Fp", p)

    @staticmethod
    def from_token(token: str) -> "CoefficientRing":
        """Parse a coefficient token: "Q", "F2", "Fp:<p>"."""
        if token == "Q":
            return CoefficientRing.rationals()
        if token == "Z":
            raise SchemaError("coefficient token 'Z' is not supported: the "
                              "engine works over fields; use 'Q'")
        if token == "F2":
            return CoefficientRing.prime_field(2)
        if isinstance(token, str) and token.startswith("Fp:"):
            return CoefficientRing.prime_field(int(token[3:]))
        raise SchemaError(f"unknown coefficient token {token!r}")

    def token(self) -> str:
        if self.kind == "Q":
            return "Q"
        return "F2" if self.p == 2 else f"Fp:{self.p}"

    # -- scalar arithmetic -------------------------------------------------

    def zero(self):
        return _ZERO if self.kind == "Q" else 0

    def one(self):
        return _ONE if self.kind == "Q" else 1

    def normalize(self, x):
        if self.kind == "Q":
            return x if isinstance(x, Fraction) else Fraction(x)
        return int(x) % self.p

    def add(self, a, b):
        return self.normalize(a + b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def is_zero(self, a) -> bool:
        return a == 0

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Q":
            return _ONE / a
        return pow(int(a), self.p - 2, self.p)

    def unit_vector(self, n: int, i: int):
        """The i-th standard basis vector of length n."""
        return tuple(self.one() if t == i else self.zero() for t in range(n))

    # -- exact string serialization -----------------------------------------

    def parse_scalar(self, text: str):
        """Parse an exact scalar string: "3/2", "-1", "2 mod 5"."""
        text = text.strip()
        if self.kind == "Fp" and " mod " in text:
            value, modulus = text.split(" mod ")
            if int(modulus) != self.p:
                raise SchemaError(
                    f"scalar {text!r} declared mod {modulus}, ring has p={self.p}")
            text = value.strip()
        try:
            if self.kind == "Q":
                return Fraction(text)
            if "/" in text:
                raise SchemaError(f"fractional scalar {text!r} in ring {self.token()}")
            return self.normalize(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse scalar {text!r}: {exc}") from exc

    def format_scalar(self, x) -> str:
        x = self.normalize(x)
        if self.kind == "Q":
            return str(x)
        return f"{x} mod {self.p}"
