import random
from fractions import Fraction

import pytest

from freeaut import (
    ContextError,
    Diag,
    DomainError,
    Elem,
    FreeAlgebra,
    MonomialOrder,
    NotInvertibleError,
    PolyMatrix,
    PolyRing,
    PrimeField,
    QQ,
    Swap,
    Tame,
    Transcript,
    Wild,
    cohn_family,
    cohn_matrix,
    default_xnames,
    det,
    ge2_decide,
    gl2_univariate_decompose,
    is_gl,
    is_tame,
    jacobian_linear,
    matrix_to_endo,
    mennicke_factors,
    poly_divmod,
    stabilize3,
    term_divide,
    verify_transcript,
)
from freeaut.matgroup import _cohn_parameters, _eliminate
from support import (
    rand_automorphism,
    rand_linear_endo,
    rand_poly,
    rand_scalar,
    rand_transcript,
)

PAIR = PolyRing(QQ, ("z1", "z2"))
Z1, Z2 = PAIR.gens()
ZR = PolyRing(QQ, ("z",))
Z = ZR.gen(0)

ALL_ORDERS = [
    MonomialOrder("deglex", (0, 1)),
    MonomialOrder("deglex", (1, 0)),
    MonomialOrder("lex", (0, 1)),
    MonomialOrder("lex", (1, 0)),
]


def assert_stuck_witness(w, order):
    a, c = w.entries[0][0], w.entries[1][0]
    assert not a.is_zero() and not c.is_zero()
    assert term_divide(a.leading_term(order), c.leading_term(order)) is None
    assert term_divide(c.leading_term(order), a.leading_term(order)) is None


def test_det_identity():
    for n in (1, 2, 3, 4):
        assert det(PolyMatrix.identity(PAIR, n)) == PAIR.one


def test_det_distinguishes_sign_variants():
    derived = PolyMatrix(
        PAIR, [[1 + Z1 * Z2, Z2**2], [-(Z1**2), 1 - Z1 * Z2]]
    )
    assert det(derived) == PAIR.one
    flipped = PolyMatrix(PAIR, [[1 + Z1 * Z2, Z2**2], [Z1**2, 1 - Z1 * Z2]])
    assert det(flipped) == 1 - 2 * Z1**2 * Z2**2


def test_det_multiplicative():
    rng = random.Random(79)
    for _ in range(100):
        a = PolyMatrix(PAIR, [[rand_poly(PAIR, rng, deg=2) for _ in range(2)] for _ in range(2)])
        b = PolyMatrix(PAIR, [[rand_poly(PAIR, rng, deg=2) for _ in range(2)] for _ in range(2)])
        assert det(a * b) == det(a) * det(b)


def test_adjugate_law():
    rng = random.Random(83)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = PolyMatrix(
                PAIR, [[rand_poly(PAIR, rng, deg=2, terms=2) for _ in range(n)] for _ in range(n)]
            )
            d = det(m)
            prod = m * m.adjugate()
            expected = PolyMatrix(
                PAIR,
                [[d if i == j else PAIR.zero for j in range(n)] for i in range(n)],
            )
            assert prod == expected


def test_is_gl():
    assert is_gl(PolyMatrix(PAIR, [[2, 0], [0, 3]]))
    assert not is_gl(PolyMatrix(PAIR, [[Z1, 0], [0, 1]]))
    assert is_gl(cohn_matrix())


def test_cohn_matrix_wild_under_all_orders():
    m = cohn_matrix()
    for order in ALL_ORDERS:
        res = ge2_decide(m, order)
        assert isinstance(res, Wild)
        assert res.witness == m
        assert_stuck_witness(res.witness, order)


def test_ge2_tame_fixed_example():
    t = Transcript(
        PAIR,
        2,
        (
            Elem(2, 1, Z1**2 * Z2),
            Diag((Fraction(1), Fraction(-1))),
            Elem(1, 2, 3 * Z2**3),
        ),
    )
    m = t.product()
    res = ge2_decide(m, MonomialOrder.deglex(2))
    assert isinstance(res, Tame)
    assert verify_transcript(res.transcript, m)


def test_ge2_identity_empty_transcript():
    res = ge2_decide(PolyMatrix.identity(PAIR, 2), MonomialOrder.deglex(2))
    assert isinstance(res, Tame)
    assert len(res.transcript) == 0


def test_ge2_rejects_noninvertible():
    with pytest.raises(NotInvertibleError):
        ge2_decide(PolyMatrix(PAIR, [[Z1, 0], [0, 1]]), MonomialOrder.deglex(2))
    with pytest.raises(ContextError):
        ge2_decide(PolyMatrix.identity(PAIR, 3), MonomialOrder.deglex(2))


def test_ge2_round_trip_random():
    rng = random.Random(89)
    order = MonomialOrder.deglex(2)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("z1", "z2"))
        for _ in range(60):
            t = rand_transcript(ring, rng)
            m = t.product()
            res = ge2_decide(m, order)
            assert isinstance(res, Tame)
            assert verify_transcript(res.transcript, m)


def test_order_robust_verdicts():
    rng = random.Random(97)
    samples = [cohn_matrix()]
    for _ in range(40):
        samples.append(rand_transcript(PAIR, rng).product())
    for m in samples:
        verdicts = {type(ge2_decide(m, order)).__name__ for order in ALL_ORDERS}
        assert len(verdicts) == 1


def test_univariate_abelianized_anick():
    m = PolyMatrix(ZR, [[1 + Z**2, Z**2], [-(Z**2), 1 - Z**2]])
    t = gl2_univariate_decompose(m)
    assert verify_transcript(t, m)


def test_univariate_diag_single_factor():
    m = PolyMatrix(ZR, [[2, 0], [0, Fraction(-1, 3)]])
    t = gl2_univariate_decompose(m)
    assert len(t) == 1 and isinstance(t.factors[0], Diag)
    assert verify_transcript(t, m)


def test_univariate_round_trip_random():
    rng = random.Random(101)
    for _ in range(100):
        t = rand_transcript(ZR, rng)
        m = t.product()
        tt = gl2_univariate_decompose(m)
        assert verify_transcript(tt, m)


def test_univariate_rejects_bad_input():
    with pytest.raises(NotInvertibleError):
        gl2_univariate_decompose(PolyMatrix(ZR, [[Z, 0], [0, 1]]))
    with pytest.raises(ContextError):
        gl2_univariate_decompose(PolyMatrix.identity(PAIR, 2))


def test_verify_transcript_basics():
    assert verify_transcript(Transcript(PAIR, 2, ()), PolyMatrix.identity(PAIR, 2))
    t = Transcript(PAIR, 2, (Elem(1, 2, Z1), Diag((Fraction(2), Fraction(1)))))
    m = t.product()
    assert verify_transcript(t, m)
    perturbed = Transcript(PAIR, 2, (Elem(1, 2, Z1 + 1), Diag((Fraction(2), Fraction(1)))))
    assert not verify_transcript(perturbed, m)
    with pytest.raises(ContextError):
        verify_transcript(t, PolyMatrix.identity(PAIR, 3))


def test_factor_validation():
    with pytest.raises(DomainError):
        Elem(1, 1, Z1)
    with pytest.raises(DomainError):
        Diag((Fraction(1), Fraction(0)))
    with pytest.raises(DomainError):
        Swap(2, 2)
    with pytest.raises(ContextError):
        Elem(1, 3, Z1).matrix(PAIR, 2)
    with pytest.raises(ContextError):
        Diag((Fraction(1),)).matrix(PAIR, 2)


def test_swap_expansion():
    t = Transcript(PAIR, 2, (Swap(1, 2),))
    e = t.expand_swaps()
    assert all(not isinstance(f, Swap) for f in e.factors)
    assert e.product() == t.product()
    t3 = Transcript(PAIR, 3, (Elem(1, 2, Z1), Swap(2, 3), Diag((Fraction(2),) * 3)))
    e3 = t3.expand_swaps()
    assert all(not isinstance(f, Swap) for f in e3.factors)
    assert e3.product() == t3.product()


def test_transcript_inverse():
    rng = random.Random(103)
    for _ in range(50):
        t = rand_transcript(PAIR, rng)
        assert (
            t.product() * t.inverse().product() == PolyMatrix.identity(PAIR, 2)
        )


def test_transcript_embed():
    t = Transcript(PAIR, 2, (Elem(1, 2, Z1), Diag((Fraction(2), Fraction(3)))))
    e = t.embed(3)
    assert e.product() == t.product().embed(3)


def test_mennicke_pinned_convention():
    prod = Transcript(PAIR, 3, mennicke_factors(Z1, Z2)).product()
    assert prod == cohn_matrix().embed(3)
    assert det(prod) == PAIR.one


def test_mennicke_unique_combination():
    a, b = Z1, Z2
    printed = lambda a, b: [
        (1, 3, -b),
        (2, 3, -a),
        (3, 1, a),
        (3, 2, -b),
        (1, 3, b),
        (2, 3, a),
        (3, 1, -a),
        (3, 2, b),
    ]
    target = cohn_matrix().embed(3)
    hits = []
    for label, args in (("printed", (a, b)), ("adjusted", (a, -b))):
        for direction in ("forward", "reversed"):
            seq = printed(*args)
            if direction == "reversed":
                seq = list(reversed(seq))
            factors = tuple(Elem(i, j, p) for i, j, p in seq)
            t = Transcript(PAIR, 3, factors)
            if t.product() == target:
                hits.append((label, direction))
    assert hits == [("adjusted", "forward")]


def test_stabilize_cohn_eight_factors():
    m = cohn_matrix()
    t = stabilize3(m)
    assert t is not None and len(t) == 8
    assert verify_transcript(t, m.embed(3))


def test_stabilize_family_members():
    for a, b in ((Z1 + Z2, Z2**2), (Z1**2, Z2), (2 * Z1, 3 * Z2 + Z1)):
        m = cohn_family(a, b)
        t = stabilize3(m)
        assert t is not None
        assert verify_transcript(t, m.embed(3))


def test_stabilize_identity_and_tame():
    assert stabilize3(PolyMatrix.identity(PAIR, 2)) is not None
    assert len(stabilize3(PolyMatrix.identity(PAIR, 2))) == 0
    rng = random.Random(107)
    for _ in range(30):
        m = rand_transcript(PAIR, rng).product()
        t = stabilize3(m)
        assert t is not None
        assert verify_transcript(t, m.embed(3))


def test_stabilize_contract_on_hard_inputs():
    hard = cohn_matrix() * Elem(1, 2, Z1).matrix(PAIR, 2)
    t = stabilize3(hard)
    assert t is None or verify_transcript(t, hard.embed(3))
    with pytest.raises(NotInvertibleError):
        stabilize3(PolyMatrix(PAIR, [[Z1, 0], [0, 1]]))


# Singular 2x2 matrices whose first-column elimination gets stuck: the
# Jacobian of x -> z x + y z, y -> x z + z y (det z1^2 - z2^2), and the Cohn
# matrix with the sign of its lower-left entry flipped (det 1 - 2 z1^2 z2^2).
STUCK_SINGULAR = [
    PolyMatrix(PAIR, [[Z1, Z2], [Z2, Z1]]),
    PolyMatrix(PAIR, [[1 + Z1 * Z2, Z2**2], [Z1**2, 1 - Z1 * Z2]]),
]


def test_stuck_singular_rejected_by_every_decision():
    for m in STUCK_SINGULAR:
        assert not is_gl(m)
        for order in ALL_ORDERS:
            with pytest.raises(NotInvertibleError):
                ge2_decide(m, order)
            with pytest.raises(NotInvertibleError):
                is_tame(matrix_to_endo(m), order)
        with pytest.raises(NotInvertibleError):
            stabilize3(m)


def test_ge2_raises_exactly_on_singular_input():
    rng = random.Random(131)
    for field in (QQ, PrimeField(7)):
        alg = FreeAlgebra(field, ("x", "y"))
        jacs = [jacobian_linear(rand_automorphism(alg, rng)) for _ in range(25)]
        jacs += [jacobian_linear(rand_linear_endo(alg, rng)) for _ in range(25)]
        ring = alg.pair_ring()
        jacs += [
            rand_transcript(ring, rng, max_factors=3).product() * cohn_matrix(field)
            for _ in range(10)
        ]
        for m in jacs:
            invertible = is_gl(m)
            for order in ALL_ORDERS:
                try:
                    res = ge2_decide(m, order)
                except NotInvertibleError:
                    assert not invertible
                    continue
                assert invertible
                if isinstance(res, Tame):
                    assert verify_transcript(res.transcript, m)
                else:
                    assert is_gl(res.witness)
                    assert_stuck_witness(res.witness, order)


def test_univariate_raises_exactly_on_singular_input():
    rng = random.Random(137)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("z",))
        mats = [rand_transcript(ring, rng).product() for _ in range(40)]
        mats += [
            PolyMatrix(ring, [[rand_poly(ring, rng) for _ in range(2)] for _ in range(2)])
            for _ in range(40)
        ]
        for m in mats:
            try:
                t = gl2_univariate_decompose(m)
            except NotInvertibleError:
                assert not is_gl(m)
                continue
            assert verify_transcript(t, m)


def test_matrix_basics():
    m = PolyMatrix(PAIR, [[1, Z1], [0, 1]])
    assert m[0, 1] == Z1
    with pytest.raises(ContextError):
        PolyMatrix(PAIR, [[1, 2]])
    with pytest.raises(ContextError):
        PolyMatrix(PAIR, [[Z, PAIR.one], [PAIR.zero, PAIR.one]])
    with pytest.raises(ContextError):
        m * PolyMatrix.identity(PAIR, 3)
    assert m.embed(3).n == 3
    assert m.embed(3)[2, 2] == PAIR.one


# -- reference oracles: the dense product and the recursive cofactor det --


def dense_product(t):
    """The transcript product as dense n x n matrix products, factor by factor."""
    acc = PolyMatrix.identity(t.ring, t.n)
    for f in t.factors:
        acc = acc * f.matrix(t.ring, t.n)
    return acc


def cofactor_det(m):
    """Determinant by recursive expansion along the first column."""
    ent, n = m.entries, m.n
    if n == 1:
        return ent[0][0]
    acc = m.ring.zero
    for i in range(n):
        if ent[i][0].is_zero():
            continue
        minor = [[ent[r][c] for c in range(1, n)] for r in range(n) if r != i]
        cofactor = ent[i][0] * cofactor_det(PolyMatrix(m.ring, minor))
        acc = acc + (cofactor if i % 2 == 0 else -cofactor)
    return acc


def cofactor_adjugate(m):
    """Entry (i, j) is the signed minor of m without row j and column i."""
    ent, n, ring = m.entries, m.n, m.ring
    if n == 1:
        return PolyMatrix(ring, [[ring.one]])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [[ent[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = cofactor_det(PolyMatrix(ring, minor))
            row.append(cof if (i + j) % 2 == 0 else -cof)
        rows.append(row)
    return PolyMatrix(ring, rows)


def sparse_matrix(ring, rng, n, density):
    """A random n x n matrix with each entry nonzero with probability
    density, and sometimes one zero row or one zero column."""
    rows = [
        [rand_poly(ring, rng, deg=2, terms=2) if rng.random() < density else ring.zero for _ in range(n)]
        for _ in range(n)
    ]
    shape = rng.random()
    if shape < 0.2:
        rows[rng.randrange(n)] = [ring.zero] * n
    elif shape < 0.4:
        c = rng.randrange(n)
        for row in rows:
            row[c] = ring.zero
    return PolyMatrix(ring, rows)


def mixed_transcript(ring, rng, n, length):
    """Random Elem, Diag and Swap factors (only Diag when n = 1); Elem
    polynomials may be zero."""
    factors = []
    for _ in range(length):
        kind = rng.random() if n > 1 else 0.9
        if kind < 0.6:
            i, j = rng.sample(range(1, n + 1), 2)
            factors.append(Elem(i, j, rand_poly(ring, rng, deg=2, terms=2)))
        elif kind < 0.8:
            i, j = rng.sample(range(1, n + 1), 2)
            factors.append(Swap(i, j))
        else:
            units = tuple(rand_scalar(ring.field, rng, nonzero=True) for _ in range(n))
            factors.append(Diag(units))
    return Transcript(ring, n, tuple(factors))


FIELD_RINGS = [PAIR, PolyRing(PrimeField(7), ("z1", "z2"))]


def test_product_matches_dense_oracle():
    rng = random.Random(107)
    for ring in FIELD_RINGS:
        for n in range(1, 7):
            for _ in range(12):
                t = mixed_transcript(ring, rng, n, rng.randint(0, 12))
                assert t.product() == dense_product(t)


def test_product_of_swaps_and_diagonals():
    f = Fraction
    t = Transcript(PAIR, 3, (Swap(1, 3), Diag((f(2), f(1), f(-1))), Swap(2, 3)))
    assert t.product() == dense_product(t)
    assert t.product() == PolyMatrix(PAIR, [[0, -1, 0], [0, 0, 1], [2, 0, 0]])
    f7 = PrimeField(7)
    r7 = FIELD_RINGS[1]
    unit_fraction = Transcript(r7, 2, (Elem(1, 2, r7.gen(0)), Diag((f(3, 2), f(1)))))
    assert unit_fraction.product() == dense_product(unit_fraction)
    assert unit_fraction.product()[0, 0] == r7.constant(f7(3) / f7(2))


def test_product_keeps_context_errors():
    t = Transcript(PAIR, 2, (Elem(1, 2, Z),))
    with pytest.raises(ContextError, match="factor polynomial lies in a different ring"):
        t.product()
    for f in (Elem(1, 3, Z1), Swap(3, 1)):
        with pytest.raises(ContextError, match="exceeds matrix size"):
            Transcript(PAIR, 2, (f,)).product()
    with pytest.raises(ContextError, match="units"):
        Transcript(PAIR, 2, (Diag((Fraction(1),) * 3),)).product()


def test_det_and_adjugate_match_cofactor_oracle():
    rng = random.Random(109)
    for ring in FIELD_RINGS:
        for n in range(1, 7):
            for density in (0.3, 0.7, 1.0):
                for _ in range(4 if n < 6 else 1):
                    m = sparse_matrix(ring, rng, n, density)
                    assert m.det() == cofactor_det(m)
                    assert m.adjugate() == cofactor_adjugate(m)


def test_det_and_adjugate_of_structured_matrices():
    for n in range(1, 7):
        zero = PolyMatrix(PAIR, [[0] * n for _ in range(n)])
        assert det(zero) == PAIR.zero
        assert zero.adjugate() == cofactor_adjugate(zero)
        # A permutation matrix scaled by a variable: one nonzero term per row.
        perm = list(range(n))[::-1]
        m = PolyMatrix(PAIR, [[Z1 if perm[r] == c else 0 for c in range(n)] for r in range(n)])
        assert det(m) == cofactor_det(m)
        assert m.adjugate() == cofactor_adjugate(m)
        upper = PolyMatrix(PAIR, [[Z2 + c if c >= r else 0 for c in range(n)] for r in range(n)])
        assert det(upper) == cofactor_det(upper)
        assert upper.adjugate() == cofactor_adjugate(upper)


# -- n >= 3: the reduction's end state decides invertibility --


def singular3(ring):
    """Singular 3x3 matrices, one per way the reduction proves singularity:
    column 2 is zero at and below the diagonal once column 1 is finished;
    the pivot of column 2 is z1 after row 2 loses z2 times row 1; and the
    first column gets stuck on z1 against z2 (det z1^2 - z2^2)."""
    z1, z2 = ring.gens()
    return [
        PolyMatrix(ring, [[1, z1, z2], [0, 0, 1], [0, 0, z1]]),
        PolyMatrix(ring, [[1, 0, 0], [z2, z1, 0], [0, 0, 1]]),
        PolyMatrix(ring, [[z1, z2, 0], [z2, z1, 0], [0, 0, 1]]),
    ]


def test_is_tame_raises_exactly_on_singular_input_for_three_and_four_generators():
    rng = random.Random(139)
    seen = set()
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("z1", "z2"))
        for n in (3, 4):
            alg = FreeAlgebra(field, default_xnames(n))
            # diag(Cohn, 1, ...) is invertible and stuck in the first column.
            jacs = [m.embed(n) for m in singular3(ring) + [cohn_matrix(field)]]
            for _ in range(12):
                jac = jacobian_linear(rand_automorphism(alg, rng, max_factors=5))
                jacs.append(jac)
                rows = [list(row) for row in jac.entries]
                i, j = rng.randrange(n), rng.randrange(n)
                rows[i][j] = rows[i][j] + rand_poly(ring, rng, deg=2, terms=1, nonzero=True)
                jacs.append(PolyMatrix(ring, rows))
            for m in jacs:
                endo = matrix_to_endo(m, alg)
                try:
                    verdict = is_tame(endo)
                except NotInvertibleError:
                    assert not is_gl(m)
                    seen.add("not_automorphism")
                    continue
                assert is_gl(m)
                assert verdict.kind in ("tame", "tame_by_theorem")
                if verdict.kind == "tame":
                    assert verify_transcript(verdict.transcript, m)
                seen.add(verdict.kind)
    assert seen == {"tame", "tame_by_theorem", "not_automorphism"}


# -- reference oracles: the separate 2x2 loops and the step-bounded n x n
# elimination that _reduce replaced, against which its factors are pinned --


def oracle_finish_triangular(ring, recorded, current):
    a, b, d = current[0][0], current[0][1], current[1][1]
    if not (a.is_constant() and a and d.is_constant() and d):
        raise NotInvertibleError("matrix determinant is not a nonzero constant")
    field = ring.field
    a, d = a.constant_value(), d.constant_value()
    if not b.is_zero():
        recorded.append(Elem(1, 2, b.scale(field.one / d)))
    if a != field.one or d != field.one:
        recorded.append(Diag((a, d)))
    return Transcript(ring, 2, tuple(recorded))


def oracle_ge2_decide(m, order):
    ring = m.ring
    recorded = []
    current = [list(row) for row in m.entries]
    while True:
        a, c = current[0][0], current[1][0]
        if c.is_zero():
            return Tame(oracle_finish_triangular(ring, recorded, current))
        if a.is_zero():
            recorded.append(Swap(1, 2))
            current = [current[1], current[0]]
            continue
        q = term_divide(a.leading_term(order), c.leading_term(order))
        if q is not None:
            qp = ring.term(*q)
            current[0] = [current[0][k] - qp * current[1][k] for k in range(2)]
            recorded.append(Elem(1, 2, qp))
            continue
        q = term_divide(c.leading_term(order), a.leading_term(order))
        if q is not None:
            qp = ring.term(*q)
            current[1] = [current[1][k] - qp * current[0][k] for k in range(2)]
            recorded.append(Elem(2, 1, qp))
            continue
        witness = PolyMatrix(ring, current)
        if not is_gl(witness):
            raise NotInvertibleError("matrix determinant is not a nonzero constant")
        return Wild(witness)


def oracle_univariate_decompose(m):
    ring = m.ring
    recorded = []
    current = [list(row) for row in m.entries]
    while True:
        a, c = current[0][0], current[1][0]
        if c.is_zero():
            return oracle_finish_triangular(ring, recorded, current)
        if a.is_zero():
            recorded.append(Swap(1, 2))
            current = [current[1], current[0]]
            continue
        if a.total_degree() >= c.total_degree():
            q, _ = poly_divmod(a, c)
            current[0] = [current[0][k] - q * current[1][k] for k in range(2)]
            recorded.append(Elem(1, 2, q))
        else:
            q, _ = poly_divmod(c, a)
            current[1] = [current[1][k] - q * current[0][k] for k in range(2)]
            recorded.append(Elem(2, 1, q))


def oracle_bounded_eliminate(m, order, max_steps=2000):
    """The step-bounded greedy n x n elimination stabilize3 fell back on."""
    ring, n = m.ring, m.n
    current = [list(row) for row in m.entries]
    recorded = []
    steps = 0
    for col in range(n):
        while True:
            steps += 1
            if steps > max_steps:
                return None
            nz = [r for r in range(col, n) if not current[r][col].is_zero()]
            if not nz:
                return None
            if len(nz) == 1:
                r = nz[0]
                if r != col:
                    recorded.append(Swap(col + 1, r + 1))
                    current[col], current[r] = current[r], current[col]
                break
            ranked = sorted(nz, key=lambda r: order.key(current[r][col].leading_term(order)[1]))
            pair = next(
                (
                    (r1, r2, q)
                    for r1 in reversed(ranked)
                    for r2 in ranked
                    if r1 != r2
                    and (
                        q := term_divide(
                            current[r1][col].leading_term(order),
                            current[r2][col].leading_term(order),
                        )
                    )
                    is not None
                ),
                None,
            )
            if pair is None:
                return None
            r1, r2, q = pair
            qp = ring.term(*q)
            current[r1] = [current[r1][k] - qp * current[r2][k] for k in range(n)]
            recorded.append(Elem(r1 + 1, r2 + 1, qp))
    field = ring.field
    if not all(current[k][k].is_constant() and current[k][k] for k in range(n)):
        return None
    units = [current[k][k].constant_value() for k in range(n)]
    for col in range(1, n):
        for r in range(col):
            e = current[r][col]
            if e:
                q = e.scale(field.one / units[col])
                current[r] = [current[r][k] - q * current[col][k] for k in range(n)]
                recorded.append(Elem(r + 1, col + 1, q))
    if any(u != field.one for u in units):
        recorded.append(Diag(tuple(units)))
    t = Transcript(ring, n, tuple(recorded))
    return t if verify_transcript(t, m) else None


def oracle_stabilize3(m):
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
    res = oracle_ge2_decide(m, order)
    if isinstance(res, Tame):
        t = res.transcript.embed(3)
        if verify_transcript(t, target):
            return t
    return oracle_bounded_eliminate(target, order)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotInvertibleError:
        return NotInvertibleError


def pair_matrices(field, rng):
    """Seeded 2x2 matrices over field[z1, z2]: elementary products, random
    (mostly singular) matrices, tame * Cohn * tame products, first-column
    ties and stuck singular inputs."""
    ring = PolyRing(field, ("z1", "z2"))
    z1, z2 = ring.gens()
    cohn = cohn_matrix(field)
    mats = [
        # Equal leading monomials in the first column, invertible and singular.
        PolyMatrix(ring, [[z1 + 1, 1], [z1, 1]]),
        PolyMatrix(ring, [[z1 * z2 + z2, z1 + 2], [z1 * z2, z1 + 1]]),
        PolyMatrix(ring, [[z1 * z2 + z1, z2 + 1], [z1 * z2, z2]]),
        PolyMatrix(ring, [[z1, z2], [z2, z1]]),
        PolyMatrix(ring, [[1 + z1 * z2, z2**2], [z1**2, 1 - z1 * z2]]),
        cohn,
    ]
    for _ in range(25):
        mats.append(rand_transcript(ring, rng, max_factors=6, deg=2).product())
        mats.append(
            PolyMatrix(ring, [[rand_poly(ring, rng, deg=2, terms=2) for _ in range(2)] for _ in range(2)])
        )
        left = rand_transcript(ring, rng, max_factors=3, deg=2).product()
        right = rand_transcript(ring, rng, max_factors=3, deg=2).product()
        mats.append(left * cohn * right)
    return mats


def test_ge2_decide_and_stabilize3_match_the_oracles():
    rng = random.Random(149)
    for field in (QQ, PrimeField(7)):
        mats = pair_matrices(field, rng)
        verdicts = set()
        for m in mats:
            for order in ALL_ORDERS:
                res = outcome(ge2_decide, m, order)
                assert res == outcome(oracle_ge2_decide, m, order)
                verdicts.add(res if res is NotInvertibleError else type(res))
            assert outcome(stabilize3, m) == outcome(oracle_stabilize3, m)
        assert verdicts == {Tame, Wild, NotInvertibleError}


def test_univariate_decompose_matches_the_oracle():
    rng = random.Random(151)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("z",))
        z = ring.gen(0)
        # First-column tie (equal degrees), invertible and singular.
        mats = [PolyMatrix(ring, [[z + 1, 1], [z, 1]]), PolyMatrix(ring, [[z, z], [z + 1, z]])]
        for _ in range(40):
            mats.append(rand_transcript(ring, rng, max_factors=6, deg=3).product())
            mats.append(
                PolyMatrix(ring, [[rand_poly(ring, rng, deg=3, terms=2) for _ in range(2)] for _ in range(2)])
            )
        outcomes = [outcome(gl2_univariate_decompose, m) for m in mats]
        assert outcomes == [outcome(oracle_univariate_decompose, m) for m in mats]
        assert NotInvertibleError in outcomes and any(isinstance(t, Transcript) for t in outcomes)


def test_three_by_three_reduction_adds_nothing_to_a_stuck_pair():
    # diag(m, 1) has a zero third row in the first column, so its reduction
    # repeats ge2_decide's first-column steps and gets stuck with it.
    rng = random.Random(157)
    order = MonomialOrder.deglex(2)
    wild = 0
    for field in (QQ, PrimeField(7)):
        for m in pair_matrices(field, rng):
            res = outcome(ge2_decide, m, order)
            if isinstance(res, Wild):
                wild += 1
                assert _eliminate(m.embed(3), order) is None
                assert oracle_bounded_eliminate(m.embed(3), order) is None
    assert wild >= 20
