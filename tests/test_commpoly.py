import random
from fractions import Fraction

import pytest

from freeaut import (
    CommPoly,
    ContextError,
    DomainError,
    MonomialOrder,
    PolyRing,
    PrimeField,
    QQ,
    poly_divmod,
    poly_sqrt,
    term_divide,
)
from support import rand_poly

PAIR = PolyRing(QQ, ("z1", "z2"))
Z1, Z2 = PAIR.gens()


def test_product_difference_of_squares():
    assert (1 + Z1 * Z2) * (1 - Z1 * Z2) == 1 - Z1**2 * Z2**2


def test_product_with_zero():
    assert PAIR.zero * Z2**2 == PAIR.zero
    assert not (PAIR.zero * Z2**2)


def test_freshman_dream_in_characteristic_two():
    ring = PolyRing(PrimeField(2), ("z1", "z2"))
    a, b = ring.gens()
    assert (a + b) * (a + b) == a**2 + b**2


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(500):
        a = rand_poly(PAIR, rng)
        b = rand_poly(PAIR, rng)
        c = rand_poly(PAIR, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_context_mismatch_rejected():
    other = PolyRing(QQ, ("z",))
    with pytest.raises(ContextError):
        Z1 + other.gen(0)
    with pytest.raises(ContextError):
        Z1 * other.gen(0)


def test_leading_term_deglex():
    order = MonomialOrder.deglex(2)
    assert (1 + Z1 * Z2).leading_term(order) == (Fraction(1), (1, 1))
    assert (Z1**2 + Z2**3).leading_term(order) == (Fraction(1), (0, 3))
    with pytest.raises(DomainError):
        PAIR.zero.leading_term(order)


def test_leading_term_lex_and_priority():
    lex12 = MonomialOrder.lex(2)
    lex21 = MonomialOrder.lex(2, priority=(1, 0))
    p = Z1**2 + Z1 * Z2**3
    assert p.leading_term(lex12)[1] == (2, 0)
    assert p.leading_term(lex21)[1] == (1, 3)
    deg21 = MonomialOrder.deglex(2, priority=(1, 0))
    q = Z1**2 * Z2 + Z1 * Z2**2
    assert q.leading_term(deg21)[1] == (1, 2)
    assert q.leading_term(MonomialOrder.deglex(2))[1] == (2, 1)


def test_order_value_equality():
    assert MonomialOrder.deglex(2) == MonomialOrder.deglex(2)
    assert hash(MonomialOrder.deglex(2)) == hash(MonomialOrder("deglex", (0, 1)))
    assert MonomialOrder.lex(2) == MonomialOrder.lex(2, priority=(0, 1))
    assert MonomialOrder.lex(2) != MonomialOrder.deglex(2)
    assert MonomialOrder.deglex(2) != MonomialOrder.deglex(2, priority=(1, 0))
    assert MonomialOrder.lex(2) != MonomialOrder.lex(2, priority=(1, 0))
    assert MonomialOrder.deglex(2) != MonomialOrder.deglex(3)
    assert MonomialOrder.deglex(2) != "deglex"
    assert len({MonomialOrder.deglex(2), MonomialOrder.deglex(2), MonomialOrder.lex(2)}) == 2


def test_order_is_total_multiplicative_wellfounded():
    rng = random.Random(13)
    for order in (MonomialOrder.deglex(2), MonomialOrder.lex(2)):
        for _ in range(300):
            u = (rng.randint(0, 4), rng.randint(0, 4))
            v = (rng.randint(0, 4), rng.randint(0, 4))
            w = (rng.randint(0, 3), rng.randint(0, 3))
            assert order.greater(u, v) or order.greater(v, u) or u == v
            if order.greater(u, v):
                uw = tuple(a + b for a, b in zip(u, w))
                vw = tuple(a + b for a, b in zip(v, w))
                assert order.greater(uw, vw)
            if u != (0, 0):
                assert order.greater(u, (0, 0))


def test_leading_monomial_multiplicative():
    rng = random.Random(17)
    order = MonomialOrder.deglex(2)
    for _ in range(300):
        a = rand_poly(PAIR, rng, nonzero=True)
        b = rand_poly(PAIR, rng, nonzero=True)
        ca, ma = a.leading_term(order)
        cb, mb = b.leading_term(order)
        cab, mab = (a * b).leading_term(order)
        assert mab == tuple(x + y for x, y in zip(ma, mb))
        assert cab == ca * cb


def test_term_divide_examples():
    assert term_divide((Fraction(1), (2, 1)), (Fraction(2), (2, 0))) == (
        Fraction(1, 2),
        (0, 1),
    )
    assert term_divide((Fraction(1), (1, 1)), (Fraction(1), (2, 0))) is None
    assert term_divide((Fraction(5), (0, 0)), (Fraction(5), (0, 0))) == (
        Fraction(1),
        (0, 0),
    )
    with pytest.raises(DomainError):
        term_divide((Fraction(1), (1, 0)), (Fraction(0), (0, 0)))


def test_term_divide_reconstructs():
    rng = random.Random(19)
    for _ in range(300):
        t = (rand_poly(PAIR, rng, nonzero=True)).leading_term(MonomialOrder.deglex(2))
        d = (rand_poly(PAIR, rng, nonzero=True)).leading_term(MonomialOrder.deglex(2))
        q = term_divide(t, d)
        if q is not None:
            qc, qm = q
            dc, dm = d
            assert (qc * dc, tuple(a + b for a, b in zip(qm, dm))) == t


def test_substitute_specialization():
    z_ring = PolyRing(QQ, ("z",))
    z = z_ring.gen(0)
    assert (1 + Z1 * Z2).substitute([z, z]) == 1 + z**2
    assert (Z1**2 - Z2**2).substitute([Z2, Z1]) == Z2**2 - Z1**2
    assert (1 - 2 * Z1**2 * Z2**2).substitute([PAIR.one, PAIR.one]) == -1
    with pytest.raises(ContextError):
        (Z1 + Z2).substitute([z])


def test_substitute_is_homomorphism():
    rng = random.Random(23)
    z_ring = PolyRing(QQ, ("z",))
    z = z_ring.gen(0)
    for _ in range(200):
        a = rand_poly(PAIR, rng)
        b = rand_poly(PAIR, rng)
        images = [z, z + 1]
        assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
        assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


def test_poly_divmod():
    z_ring = PolyRing(QQ, ("z",))
    z = z_ring.gen(0)
    a = z**3 + 2 * z + 1
    b = z**2 + 1
    q, r = poly_divmod(a, b)
    assert a == q * b + r
    assert r.total_degree() < b.total_degree()
    with pytest.raises(DomainError):
        poly_divmod(a, z_ring.zero)
    with pytest.raises(DomainError):
        poly_divmod(Z1, Z2)


def test_poly_divmod_random():
    rng = random.Random(29)
    z_ring = PolyRing(QQ, ("z",))
    for _ in range(300):
        a = rand_poly(z_ring, rng, deg=5)
        b = rand_poly(z_ring, rng, deg=3, nonzero=True)
        q, r = poly_divmod(a, b)
        assert a == q * b + r
        assert r.is_zero() or r.total_degree() < b.total_degree()


def test_poly_sqrt():
    rng = random.Random(31)
    for field in (QQ, PrimeField(7), PrimeField(2)):
        ring = PolyRing(field, ("z1", "z2"))
        for _ in range(200):
            p = rand_poly(ring, rng, deg=2)
            sq = p * p
            r = poly_sqrt(sq)
            assert r is not None and r * r == sq
    assert poly_sqrt(Z1 * Z2) is None
    assert poly_sqrt(1 + Z1) is None
    assert poly_sqrt(PAIR.zero) == PAIR.zero


def test_degrees_and_constants():
    assert PAIR.zero.total_degree() == -1
    assert PAIR.one.total_degree() == 0
    assert (Z1 * Z2**2).total_degree() == 3
    assert PAIR.constant(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert not (1 + Z1).is_constant()
    p = 2 * Z1 + Z2
    assert p.coefficient((1, 0)) == 2
    assert p.coefficient((5, 5)) == 0


def test_pow():
    assert (1 + Z1) ** 0 == PAIR.one
    assert (1 + Z1) ** 3 == 1 + 3 * Z1 + 3 * Z1**2 + Z1**3
    with pytest.raises(DomainError):
        (1 + Z1) ** -1


def test_canonical_equality_and_hash():
    a = 1 + Z1 * Z2
    b = Z1 * Z2 + 1
    assert a == b and hash(a) == hash(b)
    assert PAIR.constant(3) == 3
    assert Z1 != Z2


def _fold_sum(zero, parts):
    acc = zero
    for p in parts:
        acc = acc + p
    return acc


def _fold_substitute(p, images):
    target = images[0].ring
    result = target.zero
    for mono, c in p.terms():
        term = target.constant(c)
        for i, e in enumerate(mono):
            for _ in range(e):
                term = term * images[i]
        result = result + term
    return result


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_sum_matches_fold(field):
    rng = random.Random(227)
    ring = PolyRing(field, ("z1", "z2"))
    for _ in range(200):
        parts = [rand_poly(ring, rng) for _ in range(rng.randint(0, 8))]
        parts += [-p for p in parts if rng.random() < 0.3]
        rng.shuffle(parts)
        total = CommPoly.sum(ring, parts)
        assert total == _fold_sum(ring.zero, parts)
        assert hash(total) == hash(_fold_sum(ring.zero, parts))
    assert CommPoly.sum(ring, []) == ring.zero
    z1, z2 = ring.gens()
    f = z1 * z2 - 3
    cancelled = CommPoly.sum(ring, [f, z2, -f, -z2])
    assert cancelled.is_zero() and cancelled == ring.zero and len(cancelled) == 0
    assert CommPoly.sum(ring, [z1, PolyRing(field, ("z1", "z2")).gen(1)]) == z1 + z2
    with pytest.raises(ContextError):
        CommPoly.sum(ring, [z1, PolyRing(field, ("z",)).gen(0)])
    with pytest.raises(ContextError):
        CommPoly.sum(ring, [PolyRing(PrimeField(5), ("z1", "z2")).gen(0)])


@pytest.mark.parametrize(
    "field,coeffs",
    [(QQ, [-2, Fraction(3, 5)]), (PrimeField(7), [PrimeField(7)(3), PrimeField(7)(6)])],
)
def test_single_term_pow_matches_repeated_product(field, coeffs):
    ring = PolyRing(field, ("z1", "z2"))
    z1 = ring.gen(0)
    for c in coeffs:
        for mono in [(0, 0), (1, 0), (2, 3)]:
            for base in (ring.term(c, mono), ring.term(c, mono) + z1):
                power = ring.one
                for e in range(6):
                    assert base**e == power
                    power = power * base
    assert ring.zero**0 == ring.one and ring.zero**3 == ring.zero


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_substitute_matches_fold(field):
    rng = random.Random(229)
    ring = PolyRing(field, ("z1", "z2"))
    target = PolyRing(field, ("z",))
    z = target.gen(0)
    for _ in range(150):
        p = rand_poly(ring, rng, terms=6)
        images = [rand_poly(target, rng, deg=2), rand_poly(target, rng, deg=2)]
        assert p.substitute(images) == _fold_substitute(p, images)
    z1, z2 = ring.gens()
    assert (z1 - z2).substitute([z, z]) == target.zero
