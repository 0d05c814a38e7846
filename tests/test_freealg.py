import random
from fractions import Fraction

import pytest

from freeaut import (
    ContextError,
    DomainError,
    FreeAlgebra,
    KzEndo,
    NCPoly,
    NotXLinearError,
    PrimeField,
    QQ,
    builtin,
    format_nc_poly,
    linear_profile,
    parse_nc_poly,
    profile_to_endo,
    x_split,
)
from support import rand_linear_endo, rand_nc

ALG = FreeAlgebra(QQ, ("x", "y"))
X, Y = ALG.gens()
Z = ALG.z()


def test_generators_do_not_commute():
    assert X * Z == ALG.word((0, 2))
    assert Z * X == ALG.word((2, 0))
    assert X * Z != Z * X


def test_distributivity():
    assert (X + Y) * Z == X * Z + Y * Z


def test_left_multiplication_by_z():
    f = Z * (X * Z - Z * Y)
    assert f == ALG.word((2, 0, 2)) - ALG.word((2, 2, 1))


def test_algebra_context_checks():
    other = FreeAlgebra(QQ, ("x", "y", "t"))
    with pytest.raises(ContextError):
        X + other.gen(0)
    with pytest.raises(DomainError):
        FreeAlgebra(QQ, ("x", "z"))
    with pytest.raises(DomainError):
        FreeAlgebra(QQ, ("x", "x"))
    with pytest.raises(DomainError):
        FreeAlgebra(QQ, ())


def test_scalar_mixing():
    assert 2 * X == X + X
    assert X - X == ALG.zero
    assert (X * 0).is_zero()
    assert X * Fraction(1, 2) + X * Fraction(1, 2) == X
    f7 = PrimeField(7)
    a7 = FreeAlgebra(f7, ("x", "y"))
    x = a7.gen(0)
    assert 7 * x == a7.zero
    assert x.scale(f7(3)) + x.scale(f7(4)) == a7.zero


def test_pow():
    assert Z**3 == Z * Z * Z
    assert X**0 == ALG.one
    with pytest.raises(DomainError):
        X**-1


def test_apply_endo_fixes_z():
    phi = KzEndo(ALG, (X + Z * Y * Z, Y))
    assert phi.apply(Z) == Z
    assert phi.apply(X) == X + Z * Y * Z
    assert phi.apply(X * Y) == (X + Z * Y * Z) * Y


def test_apply_endo_is_homomorphism():
    rng = random.Random(37)
    phi = KzEndo(ALG, (X + Z * Y * Z, Y + X * X))
    for _ in range(500):
        f = rand_nc(ALG, rng, terms=3)
        g = rand_nc(ALG, rng, terms=3)
        assert phi.apply(f * g) == phi.apply(f) * phi.apply(g)
        assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)


def test_compose_identity_laws():
    phi = KzEndo(ALG, (X + Z * Y * Z, Y))
    ident = KzEndo.identity(ALG)
    assert phi.compose(ident) == phi
    assert ident.compose(phi) == phi


def test_compose_convention_vector():
    phi = KzEndo(ALG, (X, Y + Z * X * Z))
    psi = KzEndo(ALG, (X + Y, Y))
    comp = phi.compose(psi)
    assert comp == KzEndo(ALG, (X + Y + Z * X * Z, Y + Z * X * Z))


def test_compose_cancellation():
    phi = KzEndo(ALG, (X + Z * Y * Z, Y))
    inv = KzEndo(ALG, (X - Z * Y * Z, Y))
    assert phi.compose(inv) == KzEndo.identity(ALG)


def test_compose_associativity():
    rng = random.Random(41)
    for _ in range(100):
        a = rand_linear_endo(ALG, rng)
        b = rand_linear_endo(ALG, rng)
        c = rand_linear_endo(ALG, rng)
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)


def test_x_split_example():
    f = Z**2 + X + Z * X * Z + X * Y * X
    s = x_split(f)
    assert s.f0 == Z**2
    assert s.f1 == X + Z * X * Z
    assert s.f2 == X * Y * X
    assert s.f0 + s.f1 + s.f2 == f


def test_x_split_zero_and_anick():
    s = x_split(ALG.zero)
    assert s.f0.is_zero() and s.f1.is_zero() and s.f2.is_zero()
    f = X + Z * (X * Z - Z * Y)
    s = x_split(f)
    assert s.f0.is_zero()
    assert s.f1 == X + Z * X * Z - Z**2 * Y
    assert s.f2.is_zero()


def test_x_split_reconstruction_random():
    rng = random.Random(43)
    for _ in range(300):
        f = rand_nc(ALG, rng)
        s = x_split(f)
        assert s.f0 + s.f1 + s.f2 == f
        assert s.f0.x_degrees() <= {0}
        assert s.f1.x_degrees() <= {1}
        assert all(d >= 2 for d in s.f2.x_degrees())


def test_linear_profile_anick_cells():
    cells = linear_profile(builtin("anick_variant"))
    as_text = lambda cell: [(str(b), str(c)) for b, c in cell]
    assert as_text(cells[0][0]) == [("1", "1"), ("z", "z")]
    assert as_text(cells[1][0]) == [("-z^2", "1")]
    assert as_text(cells[0][1]) == [("1", "z^2")]
    assert as_text(cells[1][1]) == [("1", "1"), ("-z", "z")]


def test_linear_profile_identity():
    cells = linear_profile(KzEndo.identity(ALG))
    for i in range(2):
        for j in range(2):
            if i == j:
                assert [(str(b), str(c)) for b, c in cells[i][j]] == [("1", "1")]
            else:
                assert cells[i][j] == []


def test_linear_profile_rejects_nonlinear():
    with pytest.raises(NotXLinearError) as exc:
        linear_profile(KzEndo(ALG, (X + Y * Y, Y)))
    assert exc.value.generator == 1
    with pytest.raises(NotXLinearError) as exc:
        linear_profile(KzEndo(ALG, (X, Y + Z**3)))
    assert exc.value.generator == 2


def test_linear_profile_round_trip():
    rng = random.Random(47)
    for _ in range(200):
        phi = rand_linear_endo(ALG, rng)
        assert profile_to_endo(linear_profile(phi), ALG) == phi


def test_is_x_linear_and_linear_part():
    tri = builtin("triangular_sample")
    assert not tri.is_x_linear()
    lin = tri.linear_part()
    assert lin.is_x_linear()
    assert format_nc_poly(lin.images[0]) == "x + z y z"
    assert lin.images[1] == tri.algebra.gen(1)


def test_extended_endo():
    phi = builtin("anick_variant")
    ext = phi.extended(("t",))
    big = ext.algebra
    assert big.xnames == ("x", "y", "t")
    assert ext.images[2] == big.gen(2)
    assert ext.apply(big.z()) == big.z()
    assert format_nc_poly(ext.images[0]) == "x + z x z - z^2 y"


def test_single_generator_algebra():
    a1 = FreeAlgebra(QQ, ("x",))
    x = a1.gen(0)
    z = a1.z()
    phi = KzEndo(a1, (z * x * z + x,))
    cells = linear_profile(phi)
    assert [(str(b), str(c)) for b, c in cells[0][0]] == [("1", "1"), ("z", "z")]
    assert phi.apply(x * x) == (z * x * z + x) * (z * x * z + x)


def test_image_count_checked():
    with pytest.raises(ContextError):
        KzEndo(ALG, (X,))
    other = FreeAlgebra(QQ, ("x", "y", "t"))
    with pytest.raises(ContextError):
        KzEndo(ALG, (other.gen(0), other.gen(1)))


def test_parse_matches_construction():
    f = parse_nc_poly("x + z x z - z^2 y", ALG)
    assert f == X + Z * X * Z - Z**2 * Y


def _fold_sum(zero, parts):
    acc = zero
    for p in parts:
        acc = acc + p
    return acc


def _fold_apply(endo, f):
    alg = endo.algebra
    letter_images = endo.images + (alg.z(),)
    result = alg.zero
    for w, c in f.terms():
        term = alg.constant(c)
        for letter in w:
            term = term * letter_images[letter]
        result = result + term
    return result


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_sum_matches_fold(field):
    rng = random.Random(211)
    alg = FreeAlgebra(field, ("x", "y"))
    for _ in range(200):
        parts = [rand_nc(alg, rng) for _ in range(rng.randint(0, 8))]
        parts += [-p for p in parts if rng.random() < 0.3]
        rng.shuffle(parts)
        total = NCPoly.sum(alg, parts)
        assert total == _fold_sum(alg.zero, parts)
        assert hash(total) == hash(_fold_sum(alg.zero, parts))
    assert NCPoly.sum(alg, []) == alg.zero
    x, y = alg.gens()
    f = x * y + alg.z() - 3
    cancelled = NCPoly.sum(alg, [f, -f, y, -y])
    assert cancelled.is_zero() and cancelled == alg.zero and len(cancelled) == 0
    twin = FreeAlgebra(field, ("x", "y"))
    assert NCPoly.sum(alg, [x, twin.gen(1)]) == x + y
    with pytest.raises(ContextError):
        NCPoly.sum(alg, [x, FreeAlgebra(field, ("x", "t")).gen(0)])
    with pytest.raises(ContextError):
        NCPoly.sum(alg, [FreeAlgebra(PrimeField(5), ("x", "y")).gen(0)])


@pytest.mark.parametrize(
    "field,coeffs",
    [(QQ, [-2, Fraction(3, 5)]), (PrimeField(7), [PrimeField(7)(3), PrimeField(7)(6)])],
)
def test_single_term_pow_matches_repeated_product(field, coeffs):
    alg = FreeAlgebra(field, ("x", "y"))
    x = alg.gen(0)
    for c in coeffs:
        for word in [(), (2,), (0, 2, 1, 2)]:
            for base in (alg.word(word, c), alg.word(word, c) + x):
                power = alg.one
                for e in range(6):
                    assert base**e == power
                    power = power * base
    assert alg.zero**0 == alg.one and alg.zero**3 == alg.zero


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_apply_matches_fold(field):
    rng = random.Random(223)
    alg = FreeAlgebra(field, ("x", "y"))
    for _ in range(150):
        phi = KzEndo(alg, [rand_nc(alg, rng, terms=3) for _ in range(2)])
        f = rand_nc(alg, rng, terms=6)
        assert phi.apply(f) == _fold_apply(phi, f)
    x, y = alg.gens()
    z = alg.z()
    phi = KzEndo(alg, (x + z * y * z, y))
    assert phi.apply(x - z * y * z) == x
    with pytest.raises(ContextError):
        phi.apply(FreeAlgebra(field, ("x", "t")).gen(0))
