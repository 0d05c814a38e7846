"""Square matrices over commutative polynomial rings and the decomposition
procedures on them: determinant/invertibility, one row reduction (_reduce)
behind the two-variable elementary decomposition decision, the
always-successful univariate decomposition and the n x n tameness search,
and stabilization of 2x2 matrices inside the 3x3 group.

A transcript certifies a decomposition: the certified matrix equals the
left-to-right product of its factor matrices, checkable by verify_transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from .commpoly import (
    CommPoly,
    MonomialOrder,
    PolyRing,
    Term,
    poly_divmod,
    poly_sqrt,
    term_divide,
)
from .errors import ContextError, DomainError, NotInvertibleError
from .scalars import FpElement, Scalar


class PolyMatrix:
    """An n x n matrix with entries in one commutative polynomial ring."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolyRing, entries: Sequence[Sequence]):
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ContextError("matrix entries must form a nonempty square grid")
        rows = []
        for row in entries:
            fixed = []
            for e in row:
                if isinstance(e, CommPoly):
                    if e.ring is not ring and e.ring != ring:
                        raise ContextError("matrix entry lies in a different ring")
                    fixed.append(e)
                else:
                    fixed.append(ring.constant(e))
            rows.append(tuple(fixed))
        self.ring = ring
        self.entries = tuple(rows)

    @classmethod
    def identity(cls, ring: PolyRing, n: int) -> "PolyMatrix":
        return cls(
            ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        )

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> CommPoly:
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if other.ring != self.ring or other.n != self.n:
            raise ContextError("matrix product requires matching ring and size")
        n = self.n
        a, b = self.entries, other.entries
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.ring.zero
                for k in range(n):
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            rows.append(row)
        return PolyMatrix(self.ring, rows)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries

    def __hash__(self):
        return hash((self.ring, self.entries))

    def is_identity(self) -> bool:
        return self == PolyMatrix.identity(self.ring, self.n)

    def det(self) -> CommPoly:
        """Exact determinant: the closed forms for n <= 2, otherwise the
        full-mask entry of the column-prefix minor table (_minor_table).

        The table costs at most n * 2^(n-1) products and divides nothing, so
        it is exact over every coefficient field and on every matrix.
        """
        ent = self.entries
        n = self.n
        if n == 1:
            return ent[0][0]
        if n == 2:
            return ent[0][0] * ent[1][1] - ent[0][1] * ent[1][0]
        return _minor_table(ent, range(n)).get((1 << n) - 1, self.ring.zero)

    def adjugate(self) -> "PolyMatrix":
        """The transpose of the cofactor matrix; M * adj(M) = det(M) * I.

        Entry (i, j) is the cofactor of entry (j, i): the determinant of M
        with column i replaced by the unit vector e_j.  Laplace expansion
        along the columns left and right of column i writes it as a signed
        sum, over the splits S | T of the rows other than j, of the prefix
        minor on rows S and columns 0..i-1 times the suffix minor on rows T
        and columns i+1..n-1.  Both minor tables and all cofactors together
        cost about 3n * 2^(n-1) products, with no division.
        """
        n = self.n
        ring = self.ring
        ent = self.entries
        if n == 1:
            return PolyMatrix(ring, [[ring.one]])
        if n == 2:
            return PolyMatrix(ring, [[ent[1][1], -ent[0][1]], [-ent[1][0], ent[0][0]]])
        zero = ring.zero
        prefix = _minor_table(ent, range(n - 1))
        suffix = _minor_table(ent, range(n - 1, 0, -1))
        # Prefix minors by size i, each with the parity of the pairs s > u,
        # s in S and u outside S: sum(S) - i(i-1)/2.
        by_size: list[list] = [[] for _ in range(n)]
        for mask, minor in prefix.items():
            i = mask.bit_count()
            ranks = sum(r for r in range(n) if mask >> r & 1)
            by_size[i].append((mask, minor, ranks - i * (i - 1) // 2))
        full = (1 << n) - 1
        rows = [[zero] * n for _ in range(n)]
        for j in range(n):
            rest = full ^ (1 << j)
            below_j = (1 << j) - 1
            # An empty S or T leaves a single minor and no product.
            rows[0][j] = _signed(suffix.get(rest, zero), j)
            rows[n - 1][j] = _signed(prefix.get(rest, zero), n - 1 - j)
            for i in range(1, n - 1):
                acc = zero
                for mask, left, parity in by_size[i]:
                    if mask >> j & 1:
                        continue
                    right = suffix.get(rest ^ mask)
                    if right is None:
                        continue
                    # The row sequence is (S, j, T), each part ascending; j
                    # also stands before the rows of T below it.
                    if (parity + j - (mask & below_j).bit_count()) % 2:
                        acc = acc - left * right
                    else:
                        acc = acc + left * right
                rows[i][j] = acc
        return PolyMatrix(ring, rows)

    def embed(self, size: int) -> "PolyMatrix":
        """This matrix as the upper-left block of a size x size identity."""
        if size < self.n:
            raise ContextError("embedding target is smaller than the matrix")
        ident = PolyMatrix.identity(self.ring, size)
        rows = [list(row) for row in ident.entries]
        for i in range(self.n):
            for j in range(self.n):
                rows[i][j] = self.entries[i][j]
        return PolyMatrix(self.ring, rows)

    def map_entries(
        self, ring: PolyRing, fn: Callable[[CommPoly], CommPoly]
    ) -> "PolyMatrix":
        return PolyMatrix(ring, [[fn(e) for e in row] for row in self.entries])

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"<PolyMatrix [{body}]>"


def det(m: PolyMatrix) -> CommPoly:
    return m.det()


def _is_unit(p: CommPoly) -> bool:
    """Units of K[z1..zp] over a field are the nonzero constants."""
    return p.is_constant() and not p.is_zero()


def _minor_table(ent: Sequence[Sequence[CommPoly]], cols: range) -> dict:
    """The nonzero minors on the column runs cols[:1], cols[:2], ...: the
    entry at row bitmask S with |S| = k is det(rows S, columns cols[:k]).

    cols walks right from column 0 (prefix minors) or left from the last
    column (suffix minors).  Level 1 is read off the first column; each
    further level expands along its new column, which is the last column of
    a prefix minor and the first of a suffix minor, so the cofactor sign of
    row r counts the rows of the smaller minor after r, or before it.  Level
    k costs k * C(n, k) products at most; zero entries and zero minors are
    skipped.
    """
    n = len(ent)
    first = cols[0]
    level = {1 << r: ent[r][first] for r in range(n) if ent[r][first]}
    table = dict(level)
    rightward = cols.step > 0
    for c in cols[1:]:
        column = [(r, 1 << r, ent[r][c]) for r in range(n) if ent[r][c]]
        nxt: dict = {}
        for mask, minor in level.items():
            for r, bit, e in column:
                if mask & bit:
                    continue
                between = mask >> r if rightward else mask & (bit - 1)
                term = e * minor
                prev = nxt.get(mask | bit)
                if between.bit_count() % 2:
                    nxt[mask | bit] = -term if prev is None else prev - term
                else:
                    nxt[mask | bit] = term if prev is None else prev + term
        level = {mask: minor for mask, minor in nxt.items() if minor}
        table.update(level)
    return table


def _signed(p: CommPoly, parity: int) -> CommPoly:
    return -p if parity % 2 else p


def is_gl(m: PolyMatrix) -> bool:
    """Whether the matrix is invertible over the polynomial ring, i.e. whether
    its determinant is a unit."""
    return _is_unit(m.det())


@dataclass(frozen=True)
class Elem:
    """Identity plus p at row i, column j (1-based, i != j)."""

    i: int
    j: int
    poly: CommPoly

    def __post_init__(self):
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise DomainError(f"invalid elementary position ({self.i}, {self.j})")

    def check(self, ring: PolyRing, n: int) -> None:
        """Raise ContextError unless this factor acts on n x n matrices over ring."""
        if self.poly.ring is not ring and self.poly.ring != ring:
            raise ContextError("factor polynomial lies in a different ring")
        if self.i > n or self.j > n:
            raise ContextError(f"factor position exceeds matrix size {n}")

    def matrix(self, ring: PolyRing, n: int) -> PolyMatrix:
        self.check(ring, n)
        m = [list(row) for row in PolyMatrix.identity(ring, n).entries]
        m[self.i - 1][self.j - 1] = self.poly
        return PolyMatrix(ring, m)

    def inverse(self) -> "Elem":
        return Elem(self.i, self.j, -self.poly)


@dataclass(frozen=True)
class Diag:
    """Diagonal matrix of nonzero field constants."""

    units: tuple

    def __post_init__(self):
        if not self.units or any(not u for u in self.units):
            raise DomainError("diagonal factors require nonzero units")

    def check(self, ring: PolyRing, n: int) -> None:
        """Raise ContextError unless this factor acts on n x n matrices."""
        if len(self.units) != n:
            raise ContextError(f"diagonal factor has {len(self.units)} units, matrix size is {n}")

    def matrix(self, ring: PolyRing, n: int) -> PolyMatrix:
        self.check(ring, n)
        m = [list(row) for row in PolyMatrix.identity(ring, n).entries]
        for k, u in enumerate(self.units):
            m[k][k] = ring.constant(u)
        return PolyMatrix(ring, m)

    def inverse(self) -> "Diag":
        return Diag(tuple(_unit_inverse(u) for u in self.units))


@dataclass(frozen=True)
class Swap:
    """Transposition of rows/columns i and j (1-based); sugar for a product
    of three elementary factors and one diagonal factor."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j or self.i < 1 or self.j < 1:
            raise DomainError(f"invalid swap position ({self.i}, {self.j})")

    def check(self, ring: PolyRing, n: int) -> None:
        """Raise ContextError unless this factor acts on n x n matrices."""
        if self.i > n or self.j > n:
            raise ContextError(f"factor position exceeds matrix size {n}")

    def matrix(self, ring: PolyRing, n: int) -> PolyMatrix:
        self.check(ring, n)
        m = [list(row) for row in PolyMatrix.identity(ring, n).entries]
        a, b = self.i - 1, self.j - 1
        m[a][a] = m[b][b] = ring.zero
        m[a][b] = m[b][a] = ring.one
        return PolyMatrix(ring, m)

    def inverse(self) -> "Swap":
        return self


Factor = Union[Elem, Diag, Swap]


@dataclass(frozen=True)
class Transcript:
    """An ordered factor list certifying a matrix as their product."""

    ring: PolyRing
    n: int
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def __iter__(self) -> Iterator[Factor]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def product(self) -> PolyMatrix:
        """The left-to-right product of the factors, replayed as column
        operations on one grid that starts as the identity.

        Multiplying on the right by Elem(i, j, p) adds p * column i to column
        j (zero entries of column i are skipped), by Diag scales each column
        by its unit, and by Swap exchanges two columns, so a factor costs at
        most n polynomial products instead of a dense n x n product.  Each
        factor is first checked against the ring and size by its check method.
        """
        ring, n = self.ring, self.n
        field = ring.field
        one = field.one
        cols = [[ring.one if r == c else ring.zero for r in range(n)] for c in range(n)]
        for f in self.factors:
            f.check(ring, n)
            if isinstance(f, Elem):
                p = f.poly
                if not p:
                    continue
                src, dst = cols[f.i - 1], cols[f.j - 1]
                for r, e in enumerate(src):
                    if e:
                        dst[r] = dst[r] + p * e
            elif isinstance(f, Diag):
                for k, u in enumerate(f.units):
                    c = field(u)
                    if c != one:
                        cols[k] = [e.scale(c) for e in cols[k]]
            else:
                a, b = f.i - 1, f.j - 1
                cols[a], cols[b] = cols[b], cols[a]
        return PolyMatrix(ring, [[cols[c][r] for c in range(n)] for r in range(n)])

    def inverse(self) -> "Transcript":
        return Transcript(
            self.ring, self.n, tuple(f.inverse() for f in reversed(self.factors))
        )

    def expand_swaps(self) -> "Transcript":
        """Rewrite every Swap as three Elem factors and one Diag factor."""
        field = self.ring.field
        out = []
        for f in self.factors:
            if isinstance(f, Swap):
                one = self.ring.one
                units = [field.one] * self.n
                units[f.i - 1] = -field.one
                out += [
                    Elem(f.i, f.j, one),
                    Elem(f.j, f.i, -one),
                    Elem(f.i, f.j, one),
                    Diag(tuple(units)),
                ]
            else:
                out.append(f)
        return Transcript(self.ring, self.n, tuple(out))

    def embed(self, size: int) -> "Transcript":
        """The same factors acting on the upper-left block of a larger size."""
        if size < self.n:
            raise ContextError("embedding target is smaller than the transcript size")
        field = self.ring.field
        out = []
        for f in self.factors:
            if isinstance(f, Diag):
                out.append(Diag(f.units + (field.one,) * (size - len(f.units))))
            else:
                out.append(f)
        return Transcript(self.ring, size, tuple(out))


def verify_transcript(t: Transcript, m: PolyMatrix) -> bool:
    """Exact check that the factor product reproduces the target matrix."""
    if t.ring != m.ring or t.n != m.n:
        raise ContextError("transcript and matrix disagree on ring or size")
    return t.product() == m


@dataclass(frozen=True)
class Tame:
    """Decomposition found; the transcript multiplies back to the input."""

    transcript: Transcript


@dataclass(frozen=True)
class Wild:
    """Reduction stuck: in the witness's first unfinished column, no leading
    monomial of a nonzero entry at or below the diagonal divides another."""

    witness: PolyMatrix


def _unit_inverse(c: Scalar) -> Scalar:
    if isinstance(c, FpElement):
        return c.inverse()
    return Fraction(1) / Fraction(c)


# A quotient rule: given pivot-column entries a and b whose leading monomials
# satisfy lm(b) | lm(a), and the quotient t of their leading terms, the
# multiplier q for "row of a -= q * row of b".  It must make the new entry
# a - q b lower than a in the monomial order.
QuotientRule = Callable[[CommPoly, CommPoly, Term], CommPoly]


def _leading_quotient(a: CommPoly, b: CommPoly, t: Term) -> CommPoly:
    """Cancel only the leading term: the Gaussian step of the GE_2 decision."""
    return a.ring.term(*t)


def _euclid_quotient(a: CommPoly, b: CommPoly, t: Term) -> CommPoly:
    """The full Euclidean quotient over K[z]: the new entry is a mod b."""
    return poly_divmod(a, b)[0]


def _reduce(m: PolyMatrix, order: MonomialOrder, step: QuotientRule) -> Union[Tame, Wild]:
    """Row-reduce m to the identity, recording the factors; the one
    reduction behind ge2_decide, gl2_univariate_decompose and _eliminate.

    Pair rule: column by column, while two or more entries at or below the
    diagonal are nonzero, the row r1 with the largest leading monomial is
    reduced by the first row r2, smallest leading monomial first, whose
    leading monomial divides its own; ties go to the upper row in both
    roles.  step chooses the multiplier q and Elem(r1, r2, q) is recorded.
    Each step strictly lowers one leading monomial in a well-order, so the
    loop ends.
    The last nonzero entry is swapped onto the diagonal (Swap), the upper
    triangle is cleared by back substitution (Elem), and Diag records the
    diagonal when any unit differs from 1.

    End states settle invertibility, since every row operation keeps the
    determinant up to sign and a finished column has a fixed pivot:

    - a finished column whose pivot is zero (the column was zero at and
      below the diagonal) or non-constant makes the determinant a non-unit,
      and NotInvertibleError is raised;
    - all pivots constant: the recorded factors are the Tame certificate;
    - stuck, no leading monomial dividing another: the stuck matrix has
      determinant +-det(m), so it is returned as a Wild witness when that
      is a unit and NotInvertibleError is raised otherwise.
    """
    ring = m.ring
    n = m.n
    current = [list(row) for row in m.entries]
    recorded: list = []
    for col in range(n):
        while True:
            lead = {
                r: current[r][col].leading_term(order)
                for r in range(col, n)
                if current[r][col]
            }
            if len(lead) <= 1:
                break
            # Stable sorts: equal leading monomials keep the upper row first.
            keys = {r: order.key(mono) for r, (_, mono) in lead.items()}
            rising = sorted(lead, key=keys.__getitem__)
            falling = sorted(lead, key=keys.__getitem__, reverse=True)
            pair = next(
                (
                    (r1, r2, q)
                    for r1 in falling
                    for r2 in rising
                    if r1 != r2 and (q := term_divide(lead[r1], lead[r2])) is not None
                ),
                None,
            )
            if pair is None:
                witness = PolyMatrix(ring, current)
                if not is_gl(witness):
                    raise NotInvertibleError("matrix determinant is not a nonzero constant")
                return Wild(witness)
            r1, r2, q = pair
            qp = step(current[r1][col], current[r2][col], q)
            current[r1] = [current[r1][k] - qp * current[r2][k] for k in range(n)]
            recorded.append(Elem(r1 + 1, r2 + 1, qp))
        for r in lead:
            if r != col:
                recorded.append(Swap(col + 1, r + 1))
                current[col], current[r] = current[r], current[col]
        if not _is_unit(current[col][col]):
            raise NotInvertibleError("matrix determinant is not a nonzero constant")
    field = ring.field
    units = [current[k][k].constant_value() for k in range(n)]
    for col in range(1, n):
        dinv = _unit_inverse(units[col])
        for r in range(col):
            e = current[r][col]
            if e.is_zero():
                continue
            q = e.scale(dinv)
            # Row col is zero left of the diagonal and the step clears
            # entry (r, col), so only the entries right of col change.
            for k in range(col + 1, n):
                current[r][k] = current[r][k] - q * current[col][k]
            recorded.append(Elem(r + 1, col + 1, q))
    if any(u != field.one for u in units):
        recorded.append(Diag(tuple(units)))
    return Tame(Transcript(ring, n, tuple(recorded)))


def ge2_decide(m: PolyMatrix, order: MonomialOrder) -> Union[Tame, Wild]:
    """Decide membership in the subgroup generated by elementary and
    diagonal 2x2 matrices, by leading-term reduction (_reduce with
    _leading_quotient).

    The end state also settles invertibility: a Tame certificate proves the
    input invertible, a Wild witness is an invertible stuck matrix, and a
    singular input raises NotInvertibleError.
    """
    if m.n != 2:
        raise ContextError("the elementary-decomposition decision is for 2x2 matrices")
    return _reduce(m, order, _leading_quotient)


def gl2_univariate_decompose(m: PolyMatrix) -> Transcript:
    """Decompose an invertible 2x2 matrix over K[z] by Euclidean division
    (_reduce with _euclid_quotient).

    Over K[z] of two nonzero leading monomials one always divides the
    other, so the reduction never gets stuck: it returns the transcript,
    or raises NotInvertibleError on a singular input.
    """
    if m.n != 2:
        raise ContextError("univariate decomposition is for 2x2 matrices")
    if m.ring.nvars != 1:
        raise ContextError("expected a matrix over a univariate ring")
    return _reduce(m, MonomialOrder.deglex(1), _euclid_quotient).transcript


def cohn_family(a: CommPoly, b: CommPoly) -> PolyMatrix:
    """The matrix [[1+ab, b^2], [-a^2, 1-ab]]; determinant 1 identically."""
    if a.ring != b.ring:
        raise ContextError("family parameters lie in different rings")
    ring = a.ring
    one = ring.one
    return PolyMatrix(ring, [[one + a * b, b * b], [-(a * a), one - a * b]])


def cohn_matrix(field=None) -> PolyMatrix:
    """The two-variable wildness witness: the family matrix at a = z1, b = z2."""
    from .scalars import QQ

    ring = PolyRing(QQ if field is None else field, ("z1", "z2"))
    z1, z2 = ring.gens()
    return cohn_family(z1, z2)


def mennicke_factors(a: CommPoly, b: CommPoly) -> tuple:
    """Eight elementary 3x3 factors whose product is diag([[1+ab, b^2],
    [-a^2, 1-ab]], 1).  Zero arguments drop their factors."""
    if a.ring != b.ring:
        raise ContextError("family parameters lie in different rings")
    spots = [
        (1, 3, b),
        (2, 3, -a),
        (3, 1, a),
        (3, 2, b),
        (1, 3, -b),
        (2, 3, a),
        (3, 1, -a),
        (3, 2, -b),
    ]
    return tuple(Elem(i, j, p) for i, j, p in spots if not p.is_zero())


def _cohn_parameters(m: PolyMatrix) -> tuple[CommPoly, CommPoly] | None:
    """Parameters (a, b) with m = [[1+ab, b^2], [-a^2, 1-ab]], if any."""
    ring = m.ring
    a = poly_sqrt(-m.entries[1][0])
    b = poly_sqrt(m.entries[0][1])
    if a is None or b is None:
        return None
    one = ring.one
    for bb in (b, -b):
        if m.entries[0][0] == one + a * bb and m.entries[1][1] == one - a * bb:
            return a, bb
    return None


def _eliminate(m: PolyMatrix, order: MonomialOrder) -> Transcript | None:
    """A verified elementary factorization of an invertible n x n matrix by
    leading-term reduction (_reduce), or None when the reduction gets stuck.

    Complete over a univariate ring; over several variables it can get stuck
    on decomposable input, which for n >= 3 is still tame by Suslin's
    theorem.  Raises NotInvertibleError on a singular matrix.
    """
    res = _reduce(m, order, _leading_quotient)
    if isinstance(res, Wild):
        return None
    t = res.transcript
    return t if verify_transcript(t, m) else None


def stabilize3(m: PolyMatrix) -> Transcript | None:
    """A 3x3 transcript for diag(m, 1), or None when no certificate is found.

    Tries, in order: the [[1+ab, b^2], [-a^2, 1-ab]] family via the explicit
    eight-factor identity, then an ordinary 2x2 decomposition embedded into
    size 3.  A singular input is never in the family, so the 2x2 decision
    raises NotInvertibleError on it.  Reducing diag(m, 1) itself adds
    nothing: its third row is zero in the first column, so the reduction
    repeats ge2_decide's steps and gets stuck where it does.
    """
    if m.n != 2:
        raise ContextError("stabilization applies to 2x2 matrices")
    ring = m.ring
    target = m.embed(3)
    if m.is_identity():
        return Transcript(ring, 3, ())
    params = _cohn_parameters(m)
    if params is not None:
        t = Transcript(ring, 3, mennicke_factors(*params))
        if verify_transcript(t, target):
            return t
    order = MonomialOrder.deglex(ring.nvars)
    res = ge2_decide(m, order)
    if isinstance(res, Tame):
        t = res.transcript.embed(3)
        if verify_transcript(t, target):
            return t
    return None
