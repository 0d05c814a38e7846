"""Automorphism-level decisions for linear endomorphisms fixing z:
invertibility, tameness with certificates, inversion, the induced map on
commuting variables, stabilization into three x-generators, and named
example endomorphisms.

Tame certificates are lists of automorphism factors; composing them
left-to-right (compose(f1, compose(f2, ...))) reproduces the certified map,
mirroring the left-to-right product convention of matrix transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .commpoly import CommPoly, MonomialOrder, PolyRing
from .errors import ContextError, DomainError, NotInvertibleError
from .freealg import FreeAlgebra, KzEndo, default_xnames
from .jacobian import abelianize_endo, jacobian_linear, matrix_to_endo
from .matgroup import (
    Diag,
    Elem,
    PolyMatrix,
    Swap,
    Tame,
    Transcript,
    Wild,
    _eliminate,
    _unit_inverse,
    cohn_matrix,
    ge2_decide,
    gl2_univariate_decompose,
    stabilize3,
)
from .scalars import QQ


@dataclass(frozen=True)
class ElemAuto:
    """x_j goes to x_j + a(z) x_i b(z); all other generators are fixed.

    Indices are 1-based and distinct; a and b are univariate polynomials
    in z.
    """

    i: int
    j: int
    a: CommPoly
    b: CommPoly

    def __post_init__(self):
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise DomainError(f"invalid elementary position ({self.i}, {self.j})")
        if self.a.ring != self.b.ring or self.a.ring.nvars != 1:
            raise ContextError("factor polynomials must share one univariate ring")

    def to_endo(self, algebra: FreeAlgebra) -> KzEndo:
        """The endomorphism whose Jacobian is the elementary matrix with
        a(z1) b(z2) at (i, j)."""
        if self.i > algebra.n or self.j > algebra.n:
            raise ContextError(f"factor position exceeds {algebra.n} generators")
        ring = algebra.pair_ring()
        z1, z2 = ring.gens()
        poly = self.a.substitute([z1]) * self.b.substitute([z2])
        return matrix_to_endo(Elem(self.i, self.j, poly).matrix(ring, algebra.n), algebra)

    def inverse(self) -> "ElemAuto":
        return ElemAuto(self.i, self.j, -self.a, self.b)


@dataclass(frozen=True)
class ScaleAuto:
    """x_k goes to u_k x_k for a vector of nonzero field constants."""

    units: tuple

    def __post_init__(self):
        if not self.units or any(not u for u in self.units):
            raise DomainError("scaling factors require nonzero units")

    def to_endo(self, algebra: FreeAlgebra) -> KzEndo:
        if len(self.units) != algebra.n:
            raise ContextError(
                f"scaling has {len(self.units)} units, algebra has {algebra.n} generators"
            )
        return KzEndo(
            algebra,
            [algebra.gen(k).scale(u) for k, u in enumerate(self.units)],
        )

    def inverse(self) -> "ScaleAuto":
        return ScaleAuto(tuple(_unit_inverse(u) for u in self.units))


@dataclass(frozen=True)
class SwapAuto:
    """Exchange of the generators x_i and x_j (1-based)."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise DomainError(f"invalid swap position ({self.i}, {self.j})")

    def to_endo(self, algebra: FreeAlgebra) -> KzEndo:
        if self.i > algebra.n or self.j > algebra.n:
            raise ContextError(f"factor position exceeds {algebra.n} generators")
        images = list(algebra.gens())
        a, b = self.i - 1, self.j - 1
        images[a], images[b] = images[b], images[a]
        return KzEndo(algebra, images)

    def inverse(self) -> "SwapAuto":
        return self


AutoFactor = Union[ElemAuto, ScaleAuto, SwapAuto]


def factors_to_endo(algebra: FreeAlgebra, factors: Sequence[AutoFactor]) -> KzEndo:
    """Compose a factor list left-to-right into a single endomorphism."""
    acc = KzEndo.identity(algebra)
    for f in factors:
        acc = acc.compose(f.to_endo(algebra))
    return acc


def transcript_to_autofactors(t: Transcript) -> tuple[AutoFactor, ...]:
    """Expand a matrix transcript over K[z1, z2] into automorphism factors.

    A matrix factor with a multi-term polynomial becomes one elementary
    automorphism per monomial: the monomial c z1^p z2^q at position (i, j)
    acts as x_j -> x_j + c z^p x_i z^q.  Transvections in one position
    commute, so the expansion order does not affect the product.
    """
    if t.ring.nvars != 2:
        raise ContextError("expected a transcript over K[z1, z2]")
    zr = PolyRing(t.ring.field, ("z",))
    out: list[AutoFactor] = []
    for f in t.factors:
        if isinstance(f, Elem):
            for mono, coeff in f.poly.terms():
                out.append(
                    ElemAuto(f.i, f.j, zr.term(coeff, (mono[0],)), zr.term(1, (mono[1],)))
                )
        elif isinstance(f, Diag):
            out.append(ScaleAuto(f.units))
        elif isinstance(f, Swap):
            out.append(SwapAuto(f.i, f.j))
        else:
            raise ContextError(f"unknown transcript factor {f!r}")
    return tuple(out)


@dataclass(frozen=True)
class TameVerdict:
    """Outcome of a tameness decision.

    kind is one of "tame" (factors compose to the input), "wild" (witness is
    the stuck reduction state), or "tame_by_theorem" (three or more
    generators: tameness is guaranteed, but the reduction got stuck before an
    explicit factorization).  A tame verdict also carries the Jacobian
    transcript its factors were expanded from.
    """

    kind: str
    factors: tuple | None = None
    witness: PolyMatrix | None = None
    transcript: Transcript | None = None

    @classmethod
    def tame(cls, transcript: Transcript) -> "TameVerdict":
        return cls(
            "tame", factors=transcript_to_autofactors(transcript), transcript=transcript
        )

    @classmethod
    def wild(cls, witness: PolyMatrix) -> "TameVerdict":
        return cls("wild", witness=witness)

    @classmethod
    def by_theorem(cls) -> "TameVerdict":
        return cls("tame_by_theorem")


def _decide(endo: KzEndo, order: MonomialOrder | None = None):
    """The one reduction of endo's Jacobian (ge2_decide for two generators,
    else _eliminate), memoized as endo._decided = (order, outcome): a tame
    Transcript, a Wild witness, None (stuck with three or more generators:
    tame_by_theorem) or the NotInvertibleError raised.  order None accepts a
    stored outcome of any order; another order than the stored one decides
    again (default deglex) and replaces it.
    """
    if endo._decided is None or order not in (None, endo._decided[0]):
        order = order or MonomialOrder.deglex(2)
        jac = jacobian_linear(endo)
        try:
            res = ge2_decide(jac, order) if endo.n == 2 else _eliminate(jac, order)
            outcome = res.transcript if isinstance(res, Tame) else res
        except NotInvertibleError as exc:
            outcome = exc.with_traceback(None)
        endo._decided = (order, outcome)
    return endo._decided[1]


def is_automorphism_linear(endo: KzEndo) -> bool:
    """Whether an x-linear endomorphism is invertible, as the end state of
    the memoized reduction of its Jacobian (_decide) under any order shows.
    """
    return not isinstance(_decide(endo), NotInvertibleError)


def is_tame(endo: KzEndo, order: MonomialOrder | None = None) -> TameVerdict:
    """Decide tameness of an x-linear automorphism.

    One leading-term reduction of the Jacobian (matgroup._reduce) decides
    it, and its end state also proves or refutes invertibility for every
    number of generators.  With two it is a complete decision: stuck means
    wild.  With three or more the answer is always tame (Suslin); a stuck
    reduction is reported as tame_by_theorem, without explicit factors.
    Raises NotInvertibleError when the endomorphism is not an automorphism.
    The reduction is memoized on endo (_decide), per order (default deglex).
    """
    outcome = _decide(endo, order or MonomialOrder.deglex(2))
    if isinstance(outcome, NotInvertibleError):
        raise NotInvertibleError(*outcome.args)
    if isinstance(outcome, Transcript):
        return TameVerdict.tame(outcome)
    if isinstance(outcome, Wild):
        return TameVerdict.wild(outcome.witness)
    return TameVerdict.by_theorem()


def invert_linear(endo: KzEndo) -> KzEndo:
    """The inverse of an x-linear automorphism, from the memoized reduction
    of its Jacobian J (_decide) under any order.

    A tame transcript is inverted and replayed as column operations, with no
    determinant.  A stuck reduction (wild or tame_by_theorem) proved det(J)
    a unit, and J^-1 = adj(J) / det(J) by Laplace expansion over row subsets
    (PolyMatrix.det, PolyMatrix.adjugate), about 4n * 2^(n-1) products.
    """
    outcome = _decide(endo)
    if isinstance(outcome, NotInvertibleError):
        raise NotInvertibleError(*outcome.args)
    if isinstance(outcome, Transcript):
        return matrix_to_endo(outcome.inverse().product(), endo.algebra)
    jac = jacobian_linear(endo)
    dinv = _unit_inverse(jac.det().constant_value())
    adj = jac.adjugate()
    inv = adj.map_entries(adj.ring, lambda p: p.scale(dinv))
    return matrix_to_endo(inv, endo.algebra)


def _fresh_name(taken: Sequence[str], base: str = "t") -> str:
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def stable_tame(
    endo: KzEndo,
) -> tuple[FreeAlgebra, tuple[AutoFactor, ...]] | None:
    """Factor the extension of a two-generator automorphism by one fixed
    generator into elementary automorphisms, or None when no certificate is
    found.

    The extension fixes the added generator; its factor list composes to
    exactly that extension over the enlarged algebra.
    """
    if endo.n != 2:
        # A map that is no automorphism at all is reported as such first.
        if not is_automorphism_linear(endo):
            raise NotInvertibleError("endomorphism is not an automorphism")
        raise ContextError("stabilization applies to two-generator endomorphisms")
    t = stabilize3(jacobian_linear(endo))
    if t is None:
        return None
    big = endo.extended((_fresh_name(endo.algebra.xnames),)).algebra
    return big, transcript_to_autofactors(t)


def abelianized_tame_decomposition(endo: KzEndo) -> Transcript:
    """An elementary factorization of the map induced on commuting variables.

    The induced matrix lives over the principal ideal domain K[z], where
    every invertible matrix factors; this always succeeds for two-generator
    automorphisms, including the ones that are wild upstairs.
    """
    if endo.n != 2:
        raise ContextError("the commutative decomposition applies to two generators")
    _, m = abelianize_endo(endo)
    return gl2_univariate_decompose(m)


def _anick_variant(field) -> KzEndo:
    alg = FreeAlgebra(field, ("x", "y"))
    x, y = alg.gens()
    z = alg.z()
    return KzEndo(alg, (x + z * (x * z - z * y), y + (x * z - z * y) * z))


def _triangular_sample(field) -> KzEndo:
    alg = FreeAlgebra(field, ("x", "y"))
    x, y = alg.gens()
    z = alg.z()
    return KzEndo(alg, (x + y * y + z * y * z, y))


def builtin(name: str, field=None) -> KzEndo:
    """A named example endomorphism.

    Accepted names: anick_variant, cohn_endo, identity, triangular_sample,
    elem(i,j,a,b) with a and b polynomial expressions in z, and
    scale(u1,...,un) with nonzero rational units.
    """
    from .parser import parse_comm_poly

    field = QQ if field is None else field
    name = name.strip()
    if name == "anick_variant":
        return _anick_variant(field)
    if name == "cohn_endo":
        return matrix_to_endo(cohn_matrix(field))
    if name == "identity":
        return KzEndo.identity(FreeAlgebra(field, ("x", "y")))
    if name == "triangular_sample":
        return _triangular_sample(field)
    if name.startswith("elem(") and name.endswith(")"):
        parts = [s.strip() for s in name[5:-1].split(",")]
        if len(parts) != 4:
            raise DomainError("elem takes four arguments: i, j, a(z), b(z)")
        i, j = int(parts[0]), int(parts[1])
        zr = PolyRing(field, ("z",))
        a = parse_comm_poly(parts[2], zr)
        b = parse_comm_poly(parts[3], zr)
        n = max(2, i, j)
        alg = FreeAlgebra(field, default_xnames(n))
        return ElemAuto(i, j, a, b).to_endo(alg)
    if name.startswith("scale(") and name.endswith(")"):
        parts = [s.strip() for s in name[6:-1].split(",")]
        units = tuple(field(Fraction(s)) for s in parts)
        alg = FreeAlgebra(field, default_xnames(len(units)))
        return ScaleAuto(units).to_endo(alg)
    raise DomainError(f"unknown builtin endomorphism {name!r}")
