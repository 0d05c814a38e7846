"""Partial derivatives of free-algebra elements and Jacobian matrices of
endomorphisms fixing z.

The derivative of a word with respect to an x-generator splits the word at
each occurrence of that generator, yielding a sum of prefix/suffix tensors.
For endomorphisms whose images are x-linear the Jacobian collapses to a
matrix over K[z1, z2]: z-powers left of the split point become powers of z1,
those right of it powers of z2.

This module owns both directions of that bridge: jacobian_linear reads the
word z^p x_i z^q of the j-th image as the monomial z1^p z2^q in entry (i, j),
and matrix_to_endo writes it back.  Every other view of an x-linear map (the
profile cells, elementary automorphism factors) goes through this pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .commpoly import CommPoly, PolyRing
from .errors import ContextError, DomainError, NotXLinearError
from .freealg import FreeAlgebra, KzEndo, NCPoly, Word, default_xnames, x_split
from .matgroup import PolyMatrix
from .scalars import FpElement, Scalar


class TensorElem:
    """An element of the tensor square of a free algebra.

    Terms map a (left word, right word) pair to a scalar.  Only the additive
    structure is exposed; derivative identities are stated on the term lists
    themselves, so no multiplication convention is baked into the type.
    """

    __slots__ = ("algebra", "_terms", "_hash")

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self._terms = {p: c for p, c in terms.items() if c}
        self._hash = None

    @classmethod
    def zero(cls, algebra: FreeAlgebra) -> "TensorElem":
        return cls(algebra, {})

    @classmethod
    def one(cls, algebra: FreeAlgebra) -> "TensorElem":
        return cls(algebra, {((), ()): algebra.field.one})

    @classmethod
    def from_pair(cls, left: NCPoly, right: NCPoly) -> "TensorElem":
        if left.algebra is not right.algebra and left.algebra != right.algebra:
            raise ContextError("tensor factors lie in different free algebras")
        terms: dict = {}
        for wl, cl in left._terms.items():
            for wr, cr in right._terms.items():
                terms[(wl, wr)] = terms.get((wl, wr), 0) + cl * cr
        return cls(left.algebra, terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Word, Word, Scalar]]:
        for wl, wr in sorted(
            self._terms, key=lambda p: (len(p[0]), len(p[1]), p[0], p[1])
        ):
            yield wl, wr, self._terms[(wl, wr)]

    def _coerce(self, other):
        if isinstance(other, TensorElem):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ContextError("operands lie over different free algebras")
            return other
        if isinstance(other, (int, Fraction, FpElement)):
            c = self.algebra.field(other)
            return TensorElem(self.algebra, {((), ()): c})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for p, c in other._terms.items():
            s = merged.get(p)
            s = c if s is None else s + c
            if s:
                merged[p] = s
            else:
                merged.pop(p, None)
        return TensorElem(self.algebra, merged)

    __radd__ = __add__

    def __neg__(self):
        return TensorElem(self.algebra, {p: -c for p, c in self._terms.items()})

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

    def scale(self, c) -> "TensorElem":
        c = self.algebra.field(c)
        return TensorElem(self.algebra, {p: v * c for p, v in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, TensorElem):
            return self.algebra == other.algebra and self._terms == other._terms
        if isinstance(other, (int, Fraction, FpElement)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.algebra, tuple(sorted(self._terms.items()))))
        return self._hash

    def __repr__(self):
        from .parser import format_word

        names = self.algebra.letter_names
        bits = []
        for wl, wr, c in self.terms():
            bits.append(f"{c}*({format_word(wl, names)}|{format_word(wr, names)})")
        return "<Tensor " + (" + ".join(bits) if bits else "0") + ">"


def partial_derivative(f: NCPoly, i: int) -> TensorElem:
    """The derivative of f with respect to letter i (0-based; i = n is z).

    Each word contributes one prefix/suffix tensor per occurrence of the
    letter.  At the term level the derivative of a concatenation uv is the
    derivative of u with v appended to every suffix, plus the derivative of
    v with u prepended to every prefix.
    """
    alg = f.algebra
    if not 0 <= i <= alg.n:
        raise DomainError(f"algebra has no letter of index {i}")
    terms: dict = {}
    for w, c in f._terms.items():
        for k, letter in enumerate(w):
            if letter == i:
                p = (w[:k], w[k + 1 :])
                s = terms.get(p)
                s = c if s is None else s + c
                if s:
                    terms[p] = s
                else:
                    terms.pop(p, None)
    return TensorElem(alg, terms)


def jacobian_full(endo: KzEndo) -> list[list[TensorElem]]:
    """The Jacobian over the tensor square: row i, column j holds the
    derivative of the j-th image with respect to the i-th generator."""
    n = endo.n
    return [
        [partial_derivative(endo.images[j], i) for j in range(n)] for i in range(n)
    ]


def tensor_to_pair_poly(t: TensorElem, ring: PolyRing | None = None) -> CommPoly:
    """Rewrite a tensor with pure z-power components as an element of K[z1, z2].

    Raises DomainError if any component word contains an x-generator.
    """
    alg = t.algebra
    if ring is None:
        ring = alg.pair_ring()
    z = alg.z_letter
    terms: dict = {}
    for (wl, wr), c in t._terms.items():
        if any(l != z for l in wl) or any(l != z for l in wr):
            raise DomainError(
                "tensor has an x-generator in a component word; "
                "only pure z-power tensors embed into K[z1, z2]"
            )
        m = (len(wl), len(wr))
        terms[m] = terms.get(m, 0) + c
    return CommPoly(ring, terms)


def jacobian_linear(endo: KzEndo) -> PolyMatrix:
    """The Jacobian of an x-linear endomorphism as a matrix over K[z1, z2].

    A term c z^p x_i z^q of the j-th image contributes c z1^p z2^q to entry
    (i, j).  Raises NotXLinearError when an image is not x-linear, naming the
    image and its least pure-z term, or else its least term of x-degree >= 2.
    """
    alg = endo.algebra
    n = alg.n
    cells: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for j, f in enumerate(endo.images):
        for w, c in f._terms.items():
            xs = [k for k, l in enumerate(w) if l < n]
            if len(xs) != 1:
                raise _not_x_linear(j, f)
            k = xs[0]
            cells[w[k]][j][(k, len(w) - k - 1)] = c
    ring = alg.pair_ring()
    return PolyMatrix(ring, [[CommPoly(ring, cell) for cell in row] for row in cells])


def _not_x_linear(j: int, f: NCPoly) -> NotXLinearError:
    split = x_split(f)
    bad = split.f0 if not split.f0.is_zero() else split.f2
    return NotXLinearError(j + 1, min(bad._terms))


def matrix_to_endo(m: PolyMatrix, algebra: FreeAlgebra | None = None) -> KzEndo:
    """The x-linear endomorphism whose Jacobian is the matrix; the inverse of
    jacobian_linear.

    The monomial c z1^p z2^q at entry (i, j) contributes c z^p x_i z^q to the
    j-th image.
    """
    if m.ring.nvars != 2:
        raise ContextError("expected a matrix over K[z1, z2]")
    n = m.n
    if algebra is None:
        algebra = FreeAlgebra(m.ring.field, default_xnames(n))
    elif algebra.n != n:
        raise ContextError(f"algebra has {algebra.n} generators, matrix size is {n}")
    z = algebra.z_letter
    images = []
    for j in range(n):
        terms: dict = {}
        for i in range(n):
            for (p, q), coeff in m.entries[i][j]._terms.items():
                terms[(z,) * p + (i,) + (z,) * q] = coeff
        images.append(NCPoly(algebra, terms))
    return KzEndo(algebra, images)


def specialize_pair_matrix(m: PolyMatrix, ring: PolyRing | None = None) -> PolyMatrix:
    """Set z1 = z2 = z in a matrix over K[z1, z2], landing in K[z]."""
    if m.ring.nvars != 2:
        raise ContextError("expected a matrix over K[z1, z2]")
    if ring is None:
        ring = PolyRing(m.ring.field, ("z",))
    z = ring.gen(0)
    return m.map_entries(ring, lambda p: p.substitute([z, z]))


def abelianize_endo(endo: KzEndo) -> tuple[tuple[CommPoly, ...], PolyMatrix]:
    """The map induced on commuting variables by an x-linear endomorphism.

    Returns the images of the x-generators inside K[x_1..x_n, z] (each term
    b(z) x_i c(z) collapses to b(z) c(z) x_i) together with the induced
    matrix over K[z], whose entry (i, j) is the x_i-coefficient of the j-th
    image.  The matrix equals the z1 = z2 = z specialization of the x-linear
    Jacobian.
    """
    alg = endo.algebra
    m = specialize_pair_matrix(jacobian_linear(endo))
    comm_ring = PolyRing(alg.field, alg.xnames + ("z",))
    z = comm_ring.gen(alg.n)
    n = endo.n
    images = tuple(
        CommPoly.sum(
            comm_ring, [m.entries[i][j].substitute([z]) * comm_ring.gen(i) for i in range(n)]
        )
        for j in range(n)
    )
    return images, m
