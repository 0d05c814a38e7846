"""Exact coefficient arithmetic: the rationals and prime fields F_p.

Rational scalars are plain ``fractions.Fraction`` values (always in lowest
terms with positive denominator).  Prime-field scalars are ``FpElement``
instances carrying their modulus.  A field object (``QQ`` or ``PrimeField(p)``)
acts as the coefficient-domain context for polynomial rings.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import ContextError, DomainError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all thirteen bases above
# (Sorenson & Webster, Math. Comp. 2017); below it the test is exact.
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases up to 41, exact for
    every n below psi_13 = 3317044064679887385961981 (about 3.3e24).

    Raises DomainError from psi_13 on rather than guess.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise DomainError(f"{n} is too large to test for primality (limit {_MR_LIMIT})")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """A residue modulo a prime, reduced to the range [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.value = value % modulus
        self.modulus = modulus

    def _other_value(self, other) -> int | None:
        """The integer residue of the other operand, or None if foreign."""
        if isinstance(other, FpElement):
            if self.modulus != other.modulus:
                raise ContextError(
                    f"mixed prime fields F_{self.modulus} and F_{other.modulus}"
                )
            return other.value
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value + v, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value - v, self.modulus)

    def __rsub__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.value, self.modulus)

    def __mul__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FpElement(self.value * v, self.modulus)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return self * FpElement(v, self.modulus).inverse()

    def __rtruediv__(self, other):
        v = self._other_value(other)
        if v is None:
            return NotImplemented
        return FpElement(v, self.modulus) * self.inverse()

    def __neg__(self):
        return FpElement(-self.value, self.modulus)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FpElement(pow(self.value, e, self.modulus), self.modulus)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise DomainError(f"0 has no inverse in F_{self.modulus}")
        return FpElement(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"FpElement({self.value}, {self.modulus})"

    def __str__(self):
        return str(self.value)


class RationalField:
    """The field of rational numbers; elements are ``Fraction`` values."""

    characteristic = 0
    name = "q"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, FpElement):
            raise ContextError("prime-field element used where a rational is expected")
        return Fraction(value)

    def sqrt(self, c: Fraction):
        """Exact square root, or None when c is not a square in this field."""
        if c < 0:
            return None
        n, d = c.numerator, c.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p; p is validated at construction time."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"fp:{p}"

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.modulus != self.p:
                raise ContextError(f"element of F_{value.modulus} used in F_{self.p}")
            return value
        if isinstance(value, Fraction):
            num = FpElement(value.numerator, self.p)
            if value.denominator == 1:
                return num
            den = FpElement(value.denominator, self.p)
            if not den:
                raise DomainError(f"denominator {value.denominator} vanishes in F_{self.p}")
            return num / den
        return FpElement(value, self.p)

    def sqrt(self, c: FpElement):
        """Square root via Tonelli-Shanks, or None when c is a non-residue."""
        p = self.p
        a = c.value
        if a == 0 or p == 2:
            return FpElement(a, p)
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return FpElement(pow(a, (p + 1) // 4, p), p)
        # Tonelli-Shanks: write p-1 = q * 2^s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, cc, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(cc, 1 << (m - i - 1), p)
            m, cc = i, b * b % p
            t, r = t * cc % p, r * b % p
        return FpElement(r, p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()

Scalar = Fraction | FpElement
Field = RationalField | PrimeField


def field_from_name(name: str) -> Field:
    """Resolve a field spec string: "q" or "fp:<prime>"."""
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise DomainError(f"unknown field spec {name!r} (expected q or fp:<prime>)")
