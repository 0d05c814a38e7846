"""Correctness oracle: checks freeaut's answers against the construction
truth of each generated input.

Matrix identities are checked by evaluation at points drawn from the input
id (Schwartz-Zippel): over Q modulo the prime 2^61 - 1, over F_p in F_p
itself, at CHECK_POINTS points.  A wrong certificate, inverse or Jacobian
passes only if every point is a root of a non-zero difference polynomial of
degree d, with probability at most (d / p)^CHECK_POINTS.  The arithmetic is
the oracle's own; freeaut objects are only read, never asked to compute.

Every check returns None when the answer is right and a one-line reason when
it is wrong.
"""

from __future__ import annotations

import random
from fractions import Fraction

from corpus import FP, Item

P_Q = (1 << 61) - 1
CHECK_POINTS = 3

# Verdicts that do not contradict the construction.  tame_by_theorem is
# true for n >= 3 (every linear automorphism is tame there) but carries no
# certificate, so it counts as undecided rather than failed.
ALLOWED = {
    "tame": {"tame", "tame_by_theorem"},
    "wild": {"wild"},
    "not_automorphism": {"not_automorphism"},
}


class Oracle:
    """The truth about one input, evaluated at the check points."""

    def __init__(self, item: Item):
        self.item = item
        self.n = item.n
        self.p = FP if item.mod else P_Q
        rng = random.Random(f"oracle:{item.id}")
        self.points = [
            (rng.randrange(1, self.p), rng.randrange(1, self.p)) for _ in range(CHECK_POINTS)
        ]
        self.truth = [self._eval_int_matrix(item.matrix, pt) for pt in self.points]

    # -- evaluation -------------------------------------------------------

    def scalar(self, c) -> int:
        """A freeaut scalar (Fraction or FpElement) or int, reduced mod p."""
        p = self.p
        value = getattr(c, "value", None)
        if value is not None:
            if c.modulus != p:
                raise ValueError(f"scalar of F_{c.modulus} where F_{p} was expected")
            return value
        c = Fraction(c)
        if c.denominator % p == 0:
            raise ValueError("denominator vanishes at the check prime")
        return c.numerator * pow(c.denominator, -1, p) % p

    def _eval_int_poly(self, poly: dict, pt) -> int:
        p, (x, y) = self.p, pt
        return sum(c * pow(x, a, p) * pow(y, b, p) for (a, b), c in poly.items()) % p

    def _eval_int_matrix(self, m, pt):
        return [[self._eval_int_poly(e, pt) for e in row] for row in m]

    def comm(self, poly, values) -> int:
        """A freeaut CommPoly at the given values of its variables."""
        p = self.p
        acc = 0
        for mono, c in poly.terms():
            t = self.scalar(c)
            for v, e in zip(values, mono):
                t = t * pow(v, e, p) % p
            acc += t
        return acc % p

    def _mul(self, a, b):
        p, n = self.p, len(a)
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)
        ]

    @staticmethod
    def _identity(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    def _embed(self, m, size):
        out = self._identity(size)
        for i, row in enumerate(m):
            out[i][: len(row)] = row
        return out

    def det(self, m) -> int:
        """Determinant of a numeric matrix mod p by Gaussian elimination."""
        p = self.p
        a = [list(row) for row in m]
        n, d = len(a), 1
        for c in range(n):
            r = next((r for r in range(c, n) if a[r][c]), None)
            if r is None:
                return 0
            if r != c:
                a[c], a[r] = a[r], a[c]
                d = -d
            d = d * a[c][c] % p
            inv = pow(a[c][c], -1, p)
            for r in range(c + 1, n):
                f = a[r][c] * inv % p
                if f:
                    a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
        return d % p

    def autofactors_at(self, factors, size: int, pt):
        """Product of A / AS / AX factors, read as Jacobians, left to right."""
        p, acc = self.p, self._identity(size)
        for f in factors:
            kind = type(f).__name__
            m = self._identity(size)
            if kind == "ElemAuto":
                m[f.i - 1][f.j - 1] = self.comm(f.a, (pt[0],)) * self.comm(f.b, (pt[1],)) % p
            elif kind == "ScaleAuto":
                for k, u in enumerate(f.units):
                    m[k][k] = self.scalar(u)
            elif kind == "SwapAuto":
                a, b = f.i - 1, f.j - 1
                m[a][a] = m[b][b] = 0
                m[a][b] = m[b][a] = 1
            else:
                raise ValueError(f"not an automorphism factor: {f!r}")
            acc = self._mul(acc, m)
        return acc

    def transcript_at(self, factors, size: int, values):
        """Product of E / D / S matrix factors at the ring variables' values."""
        acc = self._identity(size)
        for f in factors:
            kind = type(f).__name__
            m = self._identity(size)
            if kind == "Elem":
                m[f.i - 1][f.j - 1] = self.comm(f.poly, values)
            elif kind == "Diag":
                for k, u in enumerate(f.units):
                    m[k][k] = self.scalar(u)
            elif kind == "Swap":
                a, b = f.i - 1, f.j - 1
                m[a][a] = m[b][b] = 0
                m[a][b] = m[b][a] = 1
            else:
                raise ValueError(f"not a matrix factor: {f!r}")
            acc = self._mul(acc, m)
        return acc

    def endo_at(self, endo, pt):
        """The Jacobian of an x-linear KzEndo read off its image words:
        c z^a x_i z^b in image j adds c z1^a z2^b at (i, j)."""
        p, n = self.p, endo.n
        m = [[0] * n for _ in range(n)]
        for j, image in enumerate(endo.images):
            for word, c in image.terms():
                xs = [k for k, letter in enumerate(word) if letter < n]
                if len(xs) != 1:
                    raise ValueError(f"image {j + 1} has a term of x-degree {len(xs)}")
                k = xs[0]
                i = word[k]
                m[i][j] = (m[i][j] + self.scalar(c) * pow(pt[0], k, p) * pow(pt[1], len(word) - k - 1, p)) % p
        return m

    # -- checks -----------------------------------------------------------

    def verdict(self, verdict: str) -> str | None:
        kind = self.item.kind
        if verdict not in ALLOWED[kind]:
            return f"verdict {verdict} on a {kind} input"
        if verdict == "tame_by_theorem" and self.n < 3:
            return "tame_by_theorem on a two-generator input"
        return None

    def automorphism(self, is_auto: bool) -> str | None:
        truth = self.item.kind != "not_automorphism"
        return None if is_auto == truth else f"automorphism={is_auto} on a {self.item.kind} input"

    def jacobian(self, matrix) -> str | None:
        """A PolyMatrix over K[z1, z2] must equal the construction."""
        if matrix.n != self.n:
            return f"Jacobian of size {matrix.n}, expected {self.n}"
        for pt, want in zip(self.points, self.truth):
            got = [[self.comm(e, pt) for e in row] for row in matrix.entries]
            if got != want:
                return "Jacobian differs from the input's construction"
        return None

    def det_value(self, det_poly, specialized: bool = False) -> str | None:
        """A printed determinant must equal det of the constructed matrix."""
        for pt, want in zip(self.points, self.truth):
            if specialized:
                want = self._eval_int_matrix(self.item.matrix, (pt[0], pt[0]))
                got = self.comm(det_poly, (pt[0],))
            else:
                got = self.comm(det_poly, pt)
            if got != self.det(want):
                return "determinant differs from the input's construction"
        return None

    def certificate(self, factors) -> str | None:
        """Automorphism factors must compose to exactly the input."""
        for pt, want in zip(self.points, self.truth):
            if self.autofactors_at(factors, self.n, pt) != want:
                return "certificate does not reproduce the input"
        return None

    def stable_certificate(self, factors) -> str | None:
        """Factors over one more generator must give diag(input, 1)."""
        for pt, want in zip(self.points, self.truth):
            if self.autofactors_at(factors, self.n + 1, pt) != self._embed(want, self.n + 1):
                return "stabilization certificate does not reproduce the extended input"
        return None

    def transcript(self, factors) -> str | None:
        """E / D / S factors over K[z1, z2] must multiply to the Jacobian."""
        for pt, want in zip(self.points, self.truth):
            if self.transcript_at(factors, self.n, pt) != want:
                return "transcript does not multiply to the Jacobian"
        return None

    def abelianized(self, matrix, factors) -> str | None:
        """The induced matrix over K[z] is the Jacobian at z1 = z2 = z, and
        its transcript (when given) multiplies back to it."""
        for pt, _ in zip(self.points, self.truth):
            z = pt[0]
            want = self._eval_int_matrix(self.item.matrix, (z, z))
            if [[self.comm(e, (z,)) for e in row] for row in matrix.entries] != want:
                return "abelianized matrix differs from the construction at z1 = z2"
            if factors is not None and self.transcript_at(factors, self.n, (z,)) != want:
                return "abelianized transcript does not multiply to the induced matrix"
        return None

    def inverse(self, inv_endo) -> str | None:
        """J(input) * J(inverse) must be the identity."""
        ident = self._identity(self.n)
        for pt, want in zip(self.points, self.truth):
            if self._mul(want, self.endo_at(inv_endo, pt)) != ident:
                return "inverse does not invert the input"
        return None

    def composite(self, endo, other: "Oracle") -> str | None:
        """first.compose(second) has Jacobian J(first) * J(second); both
        oracles use this oracle's points."""
        for pt, want in zip(self.points, self.truth):
            rhs = self._eval_int_matrix(other.item.matrix, pt)
            if self.endo_at(endo, pt) != self._mul(want, rhs):
                return "composite differs from the product of the inputs"
        return None
