"""Exact coefficient fields: the rationals and the prime fields.

Scalars are plain Python objects (``Fraction`` for Q, ``int`` for F_p),
normalised through the field so that equality is literal equality.  No floats
appear anywhere in the engine.  Every coefficient ring is a field, so every
elimination in the engine is Gaussian elimination (``matrices.Echelon``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemaError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class CoefficientRing:
    """Q or F_p (p prime), with exact scalar arithmetic."""

    kind: str  # "Q" | "Fp"
    p: int = 0

    def __post_init__(self):
        if self.kind not in ("Q", "Fp"):
            raise SchemaError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp" and not _is_prime(self.p):
            raise SchemaError(f"characteristic {self.p} is not prime")

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
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def normalize(self, x):
        if self.kind == "Q":
            return Fraction(x)
        return int(x) % self.p

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

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
            return Fraction(1) / a
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
