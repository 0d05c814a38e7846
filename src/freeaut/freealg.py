"""Words and noncommutative polynomials over {x_1..x_n, z}, and the
endomorphisms of that algebra which fix z.

A word is a tuple of letter indices: 0..n-1 are the x-generators, index n is
the distinguished letter z.  Polynomial values are immutable term maps, as in
:mod:`freeaut.commpoly`; multiplication concatenates words.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .commpoly import CommPoly, PolyRing
from .errors import ContextError, DomainError
from .scalars import Field, FpElement, Scalar

Word = tuple[int, ...]

_DEFAULT_NAMES = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "t")}


def default_xnames(n: int) -> tuple[str, ...]:
    """Conventional generator names: x, y, t for small n, else x1..xn."""
    if n in _DEFAULT_NAMES:
        return _DEFAULT_NAMES[n]
    return tuple(f"x{i}" for i in range(1, n + 1))


class FreeAlgebra:
    """The free associative algebra on x-generators plus one letter z."""

    __slots__ = ("field", "xnames")

    def __init__(self, field: Field, xnames: Sequence[str]):
        names = tuple(xnames)
        if not names:
            raise DomainError("at least one x-generator is required")
        if "z" in names or len(set(names)) != len(names):
            raise DomainError(f"invalid generator names {names}")
        self.field = field
        self.xnames = names

    @property
    def n(self) -> int:
        return len(self.xnames)

    @property
    def z_letter(self) -> int:
        return self.n

    @property
    def letter_names(self) -> tuple[str, ...]:
        return self.xnames + ("z",)

    @property
    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    @property
    def one(self) -> "NCPoly":
        return NCPoly(self, {(): self.field.one})

    def constant(self, c) -> "NCPoly":
        c = self.field(c)
        return NCPoly(self, {(): c} if c else {})

    def gen(self, i: int) -> "NCPoly":
        if not 0 <= i < self.n:
            raise DomainError(f"algebra has no x-generator of index {i}")
        return NCPoly(self, {(i,): self.field.one})

    def gens(self) -> tuple["NCPoly", ...]:
        return tuple(self.gen(i) for i in range(self.n))

    def z(self) -> "NCPoly":
        return NCPoly(self, {(self.z_letter,): self.field.one})

    def word(self, letters: Sequence[int], coeff=1) -> "NCPoly":
        w = tuple(letters)
        if any(not 0 <= l <= self.n for l in w):
            raise DomainError(f"word {w} uses letters outside the alphabet")
        return NCPoly(self, {w: self.field(coeff)})

    def z_poly_ring(self) -> PolyRing:
        """The coefficient ring K[z] for the a(z), b(z) profile factors."""
        return PolyRing(self.field, ("z",))

    def pair_ring(self) -> PolyRing:
        """K[z1, z2]: left z-powers map to z1, right z-powers to z2."""
        return PolyRing(self.field, ("z1", "z2"))

    def x_degree(self, word: Word) -> int:
        n = self.n
        return sum(1 for l in word if l < n)

    def __eq__(self, other):
        return (
            isinstance(other, FreeAlgebra)
            and self.field == other.field
            and self.xnames == other.xnames
        )

    def __hash__(self):
        return hash((self.field, self.xnames))

    def __repr__(self):
        return f"FreeAlgebra({self.field!r}, {self.xnames})"


class NCPoly:
    """A finite linear combination of words, in canonical term-map form."""

    __slots__ = ("algebra", "_terms", "_hash")

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        clean = {w: c for w, c in terms.items() if c}
        self.algebra = algebra
        self._terms = clean
        self._hash = None

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[Word, Scalar]]:
        """Terms ordered by word length then letter sequence."""
        for w in sorted(self._terms, key=lambda w: (len(w), w)):
            yield w, self._terms[w]

    def x_degrees(self) -> set[int]:
        alg = self.algebra
        return {alg.x_degree(w) for w in self._terms}

    def _coerce(self, other):
        if isinstance(other, NCPoly):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ContextError("operands belong to different free algebras")
            return other
        if isinstance(other, (int, Fraction, FpElement)):
            return self.algebra.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for w, c in other._terms.items():
            s = merged.get(w)
            s = c if s is None else s + c
            if s:
                merged[w] = s
            else:
                merged.pop(w, None)
        return NCPoly(self.algebra, merged)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.algebra, {w: -c for w, c in self._terms.items()})

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
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                c = c1 * c2
                s = prod.get(w)
                s = c if s is None else s + c
                if s:
                    prod[w] = s
                else:
                    prod.pop(w, None)
        return NCPoly(self.algebra, prod)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    @classmethod
    def sum(cls, algebra: FreeAlgebra, parts: Iterable["NCPoly"]) -> "NCPoly":
        """The sum of the polynomials in parts, built in one pass.

        The parts' terms are merged into one map, so the cost is linear in
        their total term count, where a fold of ``+`` copies the running sum
        once per part.  Cancelled coefficients are dropped, so the result is
        canonical; an empty parts gives the zero of algebra.  Raises
        ContextError when a part lies in another free algebra.
        """
        merged: dict = {}
        for p in parts:
            if p.algebra is not algebra and p.algebra != algebra:
                raise ContextError("operands belong to different free algebras")
            for w, c in p._terms.items():
                s = merged.get(w)
                merged[w] = c if s is None else s + c
        return cls(algebra, merged)

    def __len__(self):
        """The number of terms."""
        return len(self._terms)

    def __pow__(self, e: int):
        """The e-th power; a single term repeats its word and raises its
        coefficient directly; anything else uses square-and-multiply, which
        squares the base only while higher exponent bits remain."""
        if e < 0:
            raise DomainError("negative powers are not defined in a free algebra")
        if len(self._terms) == 1:
            ((w, c),) = self._terms.items()
            return NCPoly(self.algebra, {w * e: c**e})
        result = self.algebra.one
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, c) -> "NCPoly":
        c = self.algebra.field(c)
        return NCPoly(self.algebra, {w: v * c for w, v in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.algebra == other.algebra and self._terms == other._terms
        if isinstance(other, (int, Fraction, FpElement)):
            return self == self.algebra.constant(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.algebra, tuple(sorted(self._terms.items()))))
        return self._hash

    def __str__(self):
        from .parser import format_nc_poly

        return format_nc_poly(self)

    def __repr__(self):
        return f"<NCPoly {self}>"


class XDegreeSplit(NamedTuple):
    """Termwise split by x-degree: pure-z part, x-linear part, higher part."""

    f0: NCPoly
    f1: NCPoly
    f2: NCPoly


def x_split(f: NCPoly) -> XDegreeSplit:
    """Partition f into terms of x-degree 0, exactly 1, and at least 2.

    The three parts always sum back to f.
    """
    alg = f.algebra
    parts: tuple[dict, dict, dict] = ({}, {}, {})
    for w, c in f._terms.items():
        d = alg.x_degree(w)
        parts[min(d, 2)][w] = c
    return XDegreeSplit(*(NCPoly(alg, p) for p in parts))


class KzEndo:
    """An endomorphism of the free algebra fixing z, as a tuple of images."""

    __slots__ = ("algebra", "images", "_decided")

    def __init__(self, algebra: FreeAlgebra, images: Sequence[NCPoly]):
        images = tuple(images)
        if len(images) != algebra.n:
            raise ContextError(
                f"expected {algebra.n} images, got {len(images)}"
            )
        for f in images:
            if f.algebra is not algebra and f.algebra != algebra:
                raise ContextError("image lies in a different free algebra")
        self.algebra = algebra
        self.images = images
        # (order, outcome) of autgroup._decide: the one Jacobian reduction
        # that its invertibility, tameness and inverse views share.  Bound to
        # this instance, so equal maps built apart never share a decision.
        self._decided = None

    @classmethod
    def identity(cls, algebra: FreeAlgebra) -> "KzEndo":
        return cls(algebra, algebra.gens())

    @property
    def n(self) -> int:
        return self.algebra.n

    def apply(self, f: NCPoly) -> NCPoly:
        """The algebra homomorphism determined by x_i -> images[i], z -> z.

        Each term's image is the product of its letters' images; the term
        images are summed once with :meth:`NCPoly.sum`, so the final sum is
        linear in their total term count.
        """
        alg = self.algebra
        if f.algebra is not alg and f.algebra != alg:
            raise ContextError("argument lies in a different free algebra")
        letter_images = self.images + (alg.z(),)
        parts = []
        for w, c in f._terms.items():
            term = alg.constant(c)
            for letter in w:
                term = term * letter_images[letter]
            parts.append(term)
        return NCPoly.sum(alg, parts)

    def compose(self, other: "KzEndo") -> "KzEndo":
        """self after other: the composite sends x_j to self.apply(other(x_j))."""
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise ContextError("endomorphisms live on different free algebras")
        return KzEndo(self.algebra, [self.apply(g) for g in other.images])

    def is_x_linear(self) -> bool:
        return all(
            x_split(f).f0.is_zero() and x_split(f).f2.is_zero() for f in self.images
        )

    def linear_part(self) -> "KzEndo":
        """Drop every term of x-degree other than 1 from each image."""
        return KzEndo(self.algebra, [x_split(f).f1 for f in self.images])

    def extended(self, extra_xnames: Sequence[str]) -> "KzEndo":
        """The same map on a larger algebra, fixing each added generator.

        The z letter index shifts when generators are added, so words are
        remapped rather than reused.
        """
        alg = self.algebra
        big = FreeAlgebra(alg.field, alg.xnames + tuple(extra_xnames))
        old_z, new_z = alg.z_letter, big.z_letter

        def remap(f: NCPoly) -> NCPoly:
            return NCPoly(
                big,
                {
                    tuple(new_z if l == old_z else l for l in w): c
                    for w, c in f._terms.items()
                },
            )

        images = [remap(f) for f in self.images]
        images += [big.gen(i) for i in range(alg.n, big.n)]
        return KzEndo(big, images)

    def __eq__(self, other):
        if not isinstance(other, KzEndo):
            return NotImplemented
        return self.algebra == other.algebra and self.images == other.images

    def __hash__(self):
        return hash((self.algebra, self.images))

    def __repr__(self):
        body = ", ".join(str(f) for f in self.images)
        return f"<KzEndo ({body})>"


def linear_profile(endo: KzEndo) -> list[list[list[tuple[CommPoly, CommPoly]]]]:
    """Extract the (b(z), c(z)) pair lists of an x-linear endomorphism.

    Cell [i][j] collects, for every term b(z) x_i c(z) of the j-th image, the
    pair (b, c) over K[z]; the coefficient is folded into b.  Pairs are
    ordered by ascending (left, right) z-power.  Raises NotXLinearError when
    any image has a pure-z term or a term of x-degree >= 2, naming the image.
    This is a view of the Jacobian: the pair (c z^p, z^q) in cell [i][j] is
    the term c z1^p z2^q of its entry (i, j).
    """
    from .jacobian import jacobian_linear

    zr = endo.algebra.z_poly_ring()
    return [
        [
            [(zr.term(c, (p,)), zr.term(1, (q,))) for (p, q), c in sorted(e._terms.items())]
            for e in row
        ]
        for row in jacobian_linear(endo).entries
    ]


def profile_to_endo(
    cells: Sequence[Sequence[Sequence[tuple[CommPoly, CommPoly]]]],
    algebra: FreeAlgebra,
) -> KzEndo:
    """Rebuild the x-linear endomorphism whose profile is the given cell grid."""
    from .jacobian import matrix_to_endo
    from .matgroup import PolyMatrix

    ring = algebra.pair_ring()
    z1, z2 = ring.gens()
    entries = [
        [
            CommPoly.sum(ring, [b.substitute([z1]) * c.substitute([z2]) for b, c in cell])
            for cell in row
        ]
        for row in cells
    ]
    return matrix_to_endo(PolyMatrix(ring, entries), algebra)
