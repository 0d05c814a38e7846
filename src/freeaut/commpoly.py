"""Commutative multivariate polynomials with exact coefficients.

Monomials are exponent tuples (one slot per ring variable); a polynomial is
an immutable map from monomial to nonzero coefficient, so equality and
hashing are structural.  Monomial orders (deglex/lex with a configurable
variable priority) drive leading-term selection and the divisibility test
used by the elimination algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import ContextError, DomainError
from .scalars import Field, FpElement, Scalar

Monomial = tuple[int, ...]
Term = tuple[Scalar, Monomial]


class PolyRing:
    """A polynomial ring over an exact field in a declared variable list."""

    __slots__ = ("field", "names")

    def __init__(self, field: Field, names: Sequence[str]):
        self.field = field
        self.names = tuple(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def zero(self) -> "CommPoly":
        return CommPoly(self, {})

    @property
    def one(self) -> "CommPoly":
        return self.constant(self.field.one)

    def constant(self, c) -> "CommPoly":
        c = self.field(c)
        return CommPoly(self, {(0,) * self.nvars: c} if c else {})

    def gen(self, i: int) -> "CommPoly":
        if not 0 <= i < self.nvars:
            raise DomainError(f"ring has no variable of index {i}")
        mono = tuple(1 if k == i else 0 for k in range(self.nvars))
        return CommPoly(self, {mono: self.field.one})

    def gens(self) -> tuple["CommPoly", ...]:
        return tuple(self.gen(i) for i in range(self.nvars))

    def term(self, c, mono: Monomial) -> "CommPoly":
        return CommPoly(self, {tuple(mono): self.field(c)})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {self.names})"


class CommPoly:
    """An element of a :class:`PolyRing`, stored term-map style."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        nv = ring.nvars
        clean = {}
        for mono, c in terms.items():
            if len(mono) != nv:
                raise ContextError(f"monomial {mono} has wrong arity for {ring.names}")
            if c:
                clean[mono] = c
        self.ring = ring
        self._terms = clean
        self._hash = None

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def is_constant(self) -> bool:
        zero_mono = (0,) * self.ring.nvars
        return not self._terms or set(self._terms) == {zero_mono}

    def constant_value(self) -> Scalar:
        """The coefficient of the constant monomial (0 if absent)."""
        return self._terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """Terms in a fixed internal order (ascending degree, then exponents)."""
        for mono in sorted(self._terms, key=lambda m: (sum(m), m)):
            yield mono, self._terms[mono]

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(tuple(mono), self.ring.field.zero)

    def leading_term(self, order: "MonomialOrder") -> Term:
        """Coefficient and monomial maximal under the given order.

        Raises DomainError on the zero polynomial.
        """
        if not self._terms:
            raise DomainError("the zero polynomial has no leading term")
        mono = max(self._terms, key=order.key)
        return self._terms[mono], mono

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CommPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ContextError("operands belong to different polynomial rings")
            return other
        if isinstance(other, (int, Fraction, FpElement)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for mono, c in other._terms.items():
            s = merged.get(mono)
            s = c if s is None else s + c
            if s:
                merged[mono] = s
            else:
                merged.pop(mono, None)
        return CommPoly(self.ring, merged)

    __radd__ = __add__

    def __neg__(self):
        return CommPoly(self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                c = c1 * c2
                s = prod.get(mono)
                s = c if s is None else s + c
                if s:
                    prod[mono] = s
                else:
                    prod.pop(mono, None)
        return CommPoly(self.ring, prod)

    __rmul__ = __mul__

    @classmethod
    def sum(cls, ring: PolyRing, parts: Iterable["CommPoly"]) -> "CommPoly":
        """The sum of the polynomials in parts, built in one pass.

        The parts' terms are merged into one map, so the cost is linear in
        their total term count, where a fold of ``+`` copies the running sum
        once per part.  Cancelled coefficients are dropped, so the result is
        canonical; an empty parts gives the zero of ring.  Raises
        ContextError when a part belongs to another ring.
        """
        merged: dict = {}
        for p in parts:
            if p.ring is not ring and p.ring != ring:
                raise ContextError("operands belong to different polynomial rings")
            for mono, c in p._terms.items():
                s = merged.get(mono)
                merged[mono] = c if s is None else s + c
        return cls(ring, merged)

    def __len__(self):
        """The number of terms."""
        return len(self._terms)

    def __pow__(self, e: int):
        """The e-th power; a single term raises its exponents and coefficient
        directly; anything else uses square-and-multiply, which squares the
        base only while higher exponent bits remain."""
        if e < 0:
            raise DomainError("negative polynomial powers are not defined")
        if len(self._terms) == 1:
            ((mono, c),) = self._terms.items()
            return CommPoly(self.ring, {tuple(a * e for a in mono): c**e})
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, c) -> "CommPoly":
        c = self.ring.field(c)
        return CommPoly(self.ring, {m: v * c for m, v in self._terms.items()})

    # -- substitution -------------------------------------------------------

    def substitute(self, images: Sequence["CommPoly"]) -> "CommPoly":
        """Apply the ring homomorphism sending variable i to images[i].

        All images must live in one common target ring over the same field.
        Specializing every variable to a constant evaluates the polynomial.
        Each term's image is built by multiplication and the images are
        summed once with :meth:`sum`, so the final sum is linear in their
        total term count.
        """
        if len(images) != self.ring.nvars:
            raise ContextError(
                f"expected {self.ring.nvars} substitution images, got {len(images)}"
            )
        if not images:
            raise ContextError("substitution needs at least one image to fix the target ring")
        target = images[0].ring
        for im in images:
            if im.ring != target:
                raise ContextError("substitution images belong to different rings")
        parts = []
        for mono, c in self._terms.items():
            term = target.constant(c)
            for i, e in enumerate(mono):
                if e:
                    term = term * images[i] ** e
            parts.append(term)
        return CommPoly.sum(target, parts)

    # -- structural ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CommPoly):
            return self.ring == other.ring and self._terms == other._terms
        if isinstance(other, (int, Fraction, FpElement)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(sorted(self._terms.items()))))
        return self._hash

    def __str__(self):
        from .parser import format_comm_poly

        return format_comm_poly(self)

    def __repr__(self):
        return f"<CommPoly {self} over {self.ring.names}>"


class MonomialOrder:
    """A multiplicative well-order on monomials: deglex or lex.

    The priority is a permutation of variable indices, most significant
    first; e.g. priority (1, 0) on a two-variable ring compares the second
    variable's exponent before the first's.
    """

    __slots__ = ("kind", "priority")

    def __init__(self, kind: str, priority: Sequence[int]):
        if kind not in ("deglex", "lex"):
            raise DomainError(f"unknown monomial order kind {kind!r}")
        p = tuple(priority)
        if sorted(p) != list(range(len(p))):
            raise DomainError(f"priority {p} is not a permutation of variable indices")
        self.kind = kind
        self.priority = p

    @classmethod
    def deglex(cls, nvars: int, priority: Sequence[int] | None = None) -> "MonomialOrder":
        return cls("deglex", priority if priority is not None else range(nvars))

    @classmethod
    def lex(cls, nvars: int, priority: Sequence[int] | None = None) -> "MonomialOrder":
        return cls("lex", priority if priority is not None else range(nvars))

    def key(self, mono: Monomial):
        permuted = tuple(mono[i] for i in self.priority)
        if self.kind == "deglex":
            return (sum(mono), permuted)
        return permuted

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)

    def __eq__(self, other):
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return (self.kind, self.priority) == (other.kind, other.priority)

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r}, {self.priority})"


def term_divide(num: Term, den: Term) -> Term | None:
    """Quotient term num/den, or None when den's monomial does not divide num's.

    This is the divisibility test that drives the Gaussian-elimination
    membership decision: a single-term exact division, no remainder logic.
    """
    cn, mn = num
    cd, md = den
    if not cd:
        raise DomainError("division by a zero term")
    diff = []
    for a, b in zip(mn, md):
        if a < b:
            return None
        diff.append(a - b)
    return cn / cd, tuple(diff)


def poly_divmod(a: CommPoly, b: CommPoly) -> tuple[CommPoly, CommPoly]:
    """Euclidean division in a univariate ring: a = q*b + r with deg r < deg b."""
    if a.ring != b.ring:
        raise ContextError("operands belong to different polynomial rings")
    if a.ring.nvars != 1:
        raise DomainError("polynomial division with remainder needs a univariate ring")
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    ring = a.ring
    order = MonomialOrder.deglex(1)
    q = ring.zero
    r = a
    db = b.total_degree()
    cb, _ = b.leading_term(order)
    while not r.is_zero() and r.total_degree() >= db:
        cr, mr = r.leading_term(order)
        t = ring.term(cr / cb, (mr[0] - db,))
        q = q + t
        r = r - t * b
    return q, r


def poly_sqrt(p: CommPoly) -> CommPoly | None:
    """Exact square root of a polynomial, or None when p is not a square.

    Works over any coefficient field.  In characteristic 2 squaring doubles
    every exponent and fixes F_2 coefficients, so the root is read off
    directly; otherwise the root is built term by term from the top of a
    deglex order, which terminates because the remainder's leading monomial
    strictly decreases.
    """
    ring = p.ring
    if p.is_zero():
        return ring.zero
    if ring.field.characteristic == 2:
        root_terms = {}
        for mono, c in p._terms.items():
            if any(e % 2 for e in mono):
                return None
            root_terms[tuple(e // 2 for e in mono)] = c
        root = CommPoly(ring, root_terms)
        return root if root * root == p else None
    order = MonomialOrder.deglex(ring.nvars)
    c, mono = p.leading_term(order)
    croot = ring.field.sqrt(c)
    if croot is None or any(e % 2 for e in mono):
        return None
    r = ring.term(croot, tuple(e // 2 for e in mono))
    two_lt = (croot + croot, tuple(e // 2 for e in mono))
    rem = p - r * r
    while not rem.is_zero():
        t = term_divide(rem.leading_term(order), two_lt)
        if t is None:
            return None
        tp = ring.term(*t)
        new_rem = rem - (r + r) * tp - tp * tp
        if not new_rem.is_zero() and not order.greater(
            rem.leading_term(order)[1], new_rem.leading_term(order)[1]
        ):
            return None
        r = r + tp
        rem = new_rem
    return r
