import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from freeaut import (
    ContextError,
    Diag,
    DomainError,
    Elem,
    ElemAuto,
    FreeAlgebra,
    KzEndo,
    MonomialOrder,
    NotInvertibleError,
    NotXLinearError,
    PolyMatrix,
    PolyRing,
    PrimeField,
    QQ,
    ScaleAuto,
    SwapAuto,
    Transcript,
    abelianize_endo,
    abelianized_tame_decomposition,
    builtin,
    cohn_matrix,
    factors_to_endo,
    invert_linear,
    is_automorphism_linear,
    is_tame,
    jacobian_linear,
    matgroup,
    matrix_to_endo,
    parse_endo_file,
    parse_nc_poly,
    stable_tame,
    transcript_to_autofactors,
    verify_transcript,
)
from freeaut.matgroup import _unit_inverse
from support import rand_automorphism, rand_linear_endo, rand_transcript

DATA = Path(__file__).parent / "data"

PAIR = PolyRing(QQ, ("z1", "z2"))
Z1, Z2 = PAIR.gens()
ZR = PolyRing(QQ, ("z",))
Z = ZR.gen(0)
ALG = FreeAlgebra(QQ, ("x", "y"))


def test_matrix_to_endo_examples():
    assert matrix_to_endo(PolyMatrix.identity(PAIR, 2), ALG) == KzEndo.identity(ALG)
    m = PolyMatrix(PAIR, [[1, Z1 * Z2], [0, 1]])
    e = matrix_to_endo(m, ALG)
    assert e.images[0] == ALG.gen(0)
    assert e.images[1] == parse_nc_poly("y + z x z", ALG)
    assert matrix_to_endo(cohn_matrix(), ALG) == builtin("anick_variant")


def test_matrix_to_endo_validation():
    with pytest.raises(ContextError):
        matrix_to_endo(PolyMatrix.identity(ZR, 2))
    with pytest.raises(ContextError):
        matrix_to_endo(PolyMatrix.identity(PAIR, 3), ALG)


def test_matrix_endo_bridge_round_trip():
    rng = random.Random(113)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("z1", "z2"))
        for _ in range(100):
            entries = [
                [_rand_entry(ring, rng) for _ in range(2)] for _ in range(2)
            ]
            m = PolyMatrix(ring, entries)
            assert jacobian_linear(matrix_to_endo(m)) == m


def _rand_entry(ring, rng):
    from support import rand_poly

    return rand_poly(ring, rng, deg=3, terms=3)


def test_is_automorphism_linear():
    assert is_automorphism_linear(builtin("anick_variant"))
    assert is_automorphism_linear(builtin("scale(2,3)"))
    x, y = ALG.gens()
    z = ALG.z()
    assert not is_automorphism_linear(KzEndo(ALG, (z * x * z, y)))


def test_is_tame_wild_on_anick():
    v = is_tame(builtin("anick_variant"))
    assert v.kind == "wild"
    assert v.witness == cohn_matrix()


def test_is_tame_identity():
    v = is_tame(KzEndo.identity(ALG))
    assert v.kind == "tame" and v.factors == ()


def test_is_tame_round_trip_random():
    rng = random.Random(127)
    for _ in range(60):
        t = rand_transcript(PAIR, rng)
        endo = matrix_to_endo(t.product(), ALG)
        v = is_tame(endo)
        assert v.kind == "tame"
        assert factors_to_endo(ALG, v.factors) == endo


def test_is_tame_rejects_noninvertible():
    x, y = ALG.gens()
    z = ALG.z()
    with pytest.raises(NotInvertibleError):
        is_tame(KzEndo(ALG, (z * x * z, y)))


def test_tame_verdict_carries_its_transcript():
    rng = random.Random(139)
    for alg in (ALG, FreeAlgebra(QQ, ("x", "y", "t"))):
        for _ in range(20):
            endo = rand_automorphism(alg, rng, max_factors=4)
            v = is_tame(endo)
            if v.kind != "tame":
                assert v.transcript is None
                continue
            assert verify_transcript(v.transcript, jacobian_linear(endo))
            assert transcript_to_autofactors(v.transcript) == v.factors


def test_is_tame_one_generator():
    alg1 = FreeAlgebra(QQ, ("x",))
    e = KzEndo(alg1, (alg1.gen(0).scale(Fraction(3)),))
    v = is_tame(e)
    assert v.kind == "tame"
    assert factors_to_endo(alg1, v.factors) == e
    assert is_tame(KzEndo.identity(alg1)).factors == ()


def test_is_tame_three_generators_by_theorem():
    m = cohn_matrix().embed(3)
    endo = matrix_to_endo(m)
    v = is_tame(endo)
    assert v.kind == "tame_by_theorem"
    assert v.factors is None and v.witness is None


def test_is_tame_three_generators_explicit():
    rng = random.Random(131)
    alg3 = FreeAlgebra(QQ, ("x", "y", "t"))
    for _ in range(25):
        t = rand_transcript(PAIR, rng, n=3, max_factors=5, deg=2)
        endo = matrix_to_endo(t.product(), alg3)
        v = is_tame(endo)
        assert v.kind in ("tame", "tame_by_theorem")
        if v.kind == "tame":
            assert factors_to_endo(alg3, v.factors) == endo


def test_invert_linear_examples():
    x, y = ALG.gens()
    z = ALG.z()
    e = KzEndo(ALG, (x + z * y * z, y))
    assert invert_linear(e) == KzEndo(ALG, (x - z * y * z, y))

    anick = builtin("anick_variant")
    inv = invert_linear(anick)
    expected = matrix_to_endo(
        PolyMatrix(PAIR, [[1 - Z1 * Z2, -(Z2**2)], [Z1**2, 1 + Z1 * Z2]]), ALG
    )
    assert inv == expected
    ident = KzEndo.identity(ALG)
    assert anick.compose(inv) == ident
    assert inv.compose(anick) == ident

    sc = builtin("scale(2,3)")
    assert invert_linear(sc) == builtin("scale(1/2,1/3)")


def test_invert_linear_random():
    rng = random.Random(137)
    for field in (QQ, PrimeField(7)):
        alg = FreeAlgebra(field, ("x", "y"))
        ident = KzEndo.identity(alg)
        for _ in range(50):
            e = rand_automorphism(alg, rng)
            inv = invert_linear(e)
            assert e.compose(inv) == ident
            assert inv.compose(e) == ident


def test_invert_linear_wild_input():
    anick = builtin("anick_variant")
    ident = KzEndo.identity(ALG)
    assert is_tame(anick).kind == "wild"
    assert anick.compose(invert_linear(anick)) == ident


def test_invert_linear_rejects_noninvertible():
    x, y = ALG.gens()
    z = ALG.z()
    with pytest.raises(NotInvertibleError):
        invert_linear(KzEndo(ALG, (z * x * z, y)))


def test_stable_tame_anick():
    anick = builtin("anick_variant")
    res = stable_tame(anick)
    assert res is not None
    big, factors = res
    assert big.xnames == ("x", "y", "t")
    assert len(factors) == 8
    assert all(isinstance(f, ElemAuto) for f in factors)
    assert factors_to_endo(big, factors) == anick.extended(("t",))


def test_stable_tame_tame_input():
    rng = random.Random(139)
    for _ in range(20):
        t = rand_transcript(PAIR, rng)
        endo = matrix_to_endo(t.product(), ALG)
        res = stable_tame(endo)
        assert res is not None
        big, factors = res
        assert factors_to_endo(big, factors) == endo.extended(("t",))


def test_stable_tame_identity():
    res = stable_tame(KzEndo.identity(ALG))
    assert res is not None and res[1] == ()


def test_stable_tame_requires_two_generators():
    alg3 = FreeAlgebra(QQ, ("x", "y", "t"))
    with pytest.raises(ContextError):
        stable_tame(KzEndo.identity(alg3))
    # Not x-linear is reported first, then not invertible, then the arity.
    x, y, t = alg3.gens()
    with pytest.raises(NotXLinearError):
        stable_tame(KzEndo(alg3, (x * x, y, t)))
    with pytest.raises(NotInvertibleError):
        stable_tame(_data_endo("singular3.endo"))


def test_abelianized_decomposition_anick():
    anick = builtin("anick_variant")
    t = abelianized_tame_decomposition(anick)
    _, m = abelianize_endo(anick)
    assert m == PolyMatrix(ZR, [[1 + Z**2, Z**2], [-(Z**2), 1 - Z**2]])
    assert verify_transcript(t, m)
    assert all(isinstance(f, Elem) for f in t.factors)


def test_abelianized_decomposition_single_factor():
    x, y = ALG.gens()
    z = ALG.z()
    e = KzEndo(ALG, (x + z * y * z, y))
    t = abelianized_tame_decomposition(e)
    assert t.factors == (Elem(2, 1, Z**2),)


def test_abelianized_decomposition_identity():
    t = abelianized_tame_decomposition(KzEndo.identity(ALG))
    assert len(t) == 0


def test_abelianized_decomposition_random():
    rng = random.Random(149)
    for _ in range(50):
        e = rand_linear_endo(ALG, rng)
        if not is_automorphism_linear(e):
            continue
        t = abelianized_tame_decomposition(e)
        assert verify_transcript(t, abelianize_endo(e)[1])


def test_transcript_to_autofactors_expansion():
    t = Transcript(PAIR, 2, (Elem(1, 2, 2 * Z1**2 * Z2 + 3),))
    factors = transcript_to_autofactors(t)
    assert len(factors) == 2
    assert factors_to_endo(ALG, factors) == matrix_to_endo(t.product(), ALG)


def test_transcript_to_autofactors_random():
    rng = random.Random(151)
    for _ in range(50):
        t = rand_transcript(PAIR, rng)
        factors = transcript_to_autofactors(t)
        assert factors_to_endo(ALG, factors) == matrix_to_endo(t.product(), ALG)


def test_transcript_to_autofactors_needs_pair_ring():
    with pytest.raises(ContextError):
        transcript_to_autofactors(Transcript(ZR, 2, (Elem(1, 2, Z),)))


def test_autofactor_inverses():
    ident = KzEndo.identity(ALG)
    for f in (
        ElemAuto(1, 2, 2 * Z**3, Z),
        ScaleAuto((Fraction(2), Fraction(-1, 3))),
        SwapAuto(1, 2),
    ):
        assert f.to_endo(ALG).compose(f.inverse().to_endo(ALG)) == ident
        assert f.inverse().to_endo(ALG).compose(f.to_endo(ALG)) == ident


def test_autofactor_validation():
    with pytest.raises(DomainError):
        ElemAuto(1, 1, Z, Z)
    with pytest.raises(DomainError):
        ScaleAuto((Fraction(1), Fraction(0)))
    with pytest.raises(DomainError):
        SwapAuto(1, 1)
    with pytest.raises(ContextError):
        ElemAuto(1, 3, Z, Z).to_endo(ALG)
    with pytest.raises(ContextError):
        ScaleAuto((Fraction(1),)).to_endo(ALG)


def test_builtin_names():
    anick = builtin("anick_variant")
    assert anick.images[0] == parse_nc_poly("x + z x z - z^2 y", ALG)
    assert anick.images[1] == parse_nc_poly("y + x z^2 - z y z", ALG)
    assert builtin("cohn_endo") == anick
    assert builtin("identity") == KzEndo.identity(ALG)

    tri = builtin("triangular_sample")
    assert tri.images[0] == parse_nc_poly("x + y^2 + z y z", ALG)

    e = builtin("elem(1,2,z,z)")
    assert e.images == (ALG.gen(0), parse_nc_poly("y + z x z", ALG))

    sc = builtin("scale(2,3)")
    assert sc.images == (ALG.gen(0).scale(2), ALG.gen(1).scale(3))

    f7 = PrimeField(7)
    assert builtin("identity", f7).algebra.field == f7


def test_builtin_errors():
    with pytest.raises(DomainError):
        builtin("nonsense")
    with pytest.raises(DomainError):
        builtin("elem(1,2,z)")


def test_linear_part_tameness_is_the_right_question():
    tri = builtin("triangular_sample")
    lin = tri.linear_part()
    v = is_tame(lin)
    assert v.kind == "tame"
    assert factors_to_endo(ALG, v.factors) == lin

    rng = random.Random(157)
    for _ in range(20):
        t = rand_transcript(PAIR, rng, max_factors=3)
        tame_lin = matrix_to_endo(t.product(), ALG)
        composed = tri.compose(tame_lin)
        assert composed.linear_part() == lin.compose(tame_lin)
        assert is_automorphism_linear(composed.linear_part())


def _data_endo(name):
    return parse_endo_file((DATA / name).read_text())


def _fresh(endo):
    """An equal map with no decision stored on it."""
    return KzEndo(endo.algebra, endo.images)


def oracle_invert_linear(endo):
    """The adjugate inversion every input took before the memoized decision:
    adj(J) / det(J) after an up-front determinant test."""
    jac = jacobian_linear(endo)
    d = jac.det()
    if not d.is_constant() or d.is_zero():
        raise NotInvertibleError("endomorphism is not an automorphism")
    dinv = _unit_inverse(d.constant_value())
    adj = jac.adjugate()
    return matrix_to_endo(adj.map_entries(adj.ring, lambda p: p.scale(dinv)), endo.algebra)


def _gens(field, n):
    return FreeAlgebra(field, tuple(f"x{k}" for k in range(1, n + 1)))


def _stuck_inputs(field, rng):
    """Wild n = 2 and tame_by_theorem n >= 3 candidates: the Cohn matrix,
    alone and between random transcripts, embedded into sizes 2..4."""
    ring = PolyRing(field, ("z1", "z2"))
    cohn = cohn_matrix(field)
    out = [builtin("anick_variant", field), builtin("cohn_endo", field)]
    for n in (2, 3, 4):
        out.append(matrix_to_endo(cohn.embed(n)))
        for _ in range(3):
            left = rand_transcript(ring, rng, n=n, max_factors=3, deg=1).product()
            right = rand_transcript(ring, rng, n=n, max_factors=3, deg=1).product()
            out.append(matrix_to_endo(left * cohn.embed(n) * right))
    return out


def _singular_inputs(field, rng):
    """A stuck, a non-constant-pivot and a zero-column singular matrix in
    sizes 2..4, plus random linear maps, which are rarely invertible."""
    ring = PolyRing(field, ("z1", "z2"))
    z1, z2 = ring.gens()
    stuck = PolyMatrix(ring, [[z1 + z2, z1 + z2], [z1 + z2, z1 + z2]])
    pivot = PolyMatrix(ring, [[z1, 0], [0, 1]])
    out = [matrix_to_endo(m.embed(n)) for m in (stuck, pivot) for n in (2, 3, 4)]
    out.append(matrix_to_endo(PolyMatrix(ring, [[0, 0, 1], [0, 1, 0], [0, 0, 1]])))
    for n in (2, 3, 4):
        out += [rand_linear_endo(_gens(field, n), rng) for _ in range(3)]
    return [e for e in out if not _oracle_invertible(e)]


def _oracle_invertible(endo):
    try:
        oracle_invert_linear(endo)
    except NotInvertibleError:
        return False
    return True


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_invert_linear_matches_adjugate_oracle(field):
    rng = random.Random(173)
    one = _gens(field, 1)
    tame = [KzEndo(one, (one.gen(0).scale(field(c)),)) for c in (2, -3)]
    tame += [
        rand_automorphism(_gens(field, n), rng, max_factors=5)
        for n in range(2, 7)
        for _ in range(4)
    ]
    stuck = _stuck_inputs(field, rng)
    assert {"wild", "tame_by_theorem"} <= {is_tame(_fresh(e)).kind for e in stuck}
    other_order = MonomialOrder.lex(2, priority=(1, 0))
    for endo in tame + stuck:
        expected = oracle_invert_linear(endo)
        assert invert_linear(_fresh(endo)) == expected
        decided = _fresh(endo)
        is_tame(decided, other_order)
        assert invert_linear(decided) == expected
    singular = _singular_inputs(field, rng)
    assert len(singular) >= 10
    for endo in singular:
        for views in itertools.permutations((is_automorphism_linear, is_tame, invert_linear)):
            e = _fresh(endo)
            for view in views:
                if view is is_automorphism_linear:
                    assert not view(e)
                else:
                    with pytest.raises(NotInvertibleError):
                        view(e)


@pytest.fixture
def reductions(monkeypatch):
    """Counts matgroup._reduce calls, and fails on any determinant or
    adjugate while forbid_det is set."""
    state = {"reduce": 0, "forbid_det": False}
    reduce = matgroup._reduce

    def counting(*args):
        state["reduce"] += 1
        return reduce(*args)

    def guarded(method):
        def call(self):
            assert not state["forbid_det"], f"{method.__name__} on a tame input"
            return method(self)

        return call

    monkeypatch.setattr(matgroup, "_reduce", counting)
    monkeypatch.setattr(PolyMatrix, "det", guarded(PolyMatrix.det))
    monkeypatch.setattr(PolyMatrix, "adjugate", guarded(PolyMatrix.adjugate))
    return state


ONE_REDUCTION_CASES = [
    ("elem(1,2,z^2,z)", "tame"),
    ("anick_variant", "wild"),
    ("not_auto.endo", None),
    ("stuck_singular.endo", None),
    ("elem(1,3,z,1+z)", "tame"),
    ("stuck3", "tame_by_theorem"),
    ("singular3.endo", None),
]


def _case_endo(name):
    if name.endswith(".endo"):
        return _data_endo(name)
    if name == "stuck3":
        return matrix_to_endo(cohn_matrix().embed(3))
    return builtin(name)


@pytest.mark.parametrize("name,kind", ONE_REDUCTION_CASES, ids=[c[0] for c in ONE_REDUCTION_CASES])
def test_three_views_share_one_reduction(reductions, name, kind):
    endo = _case_endo(name)
    reductions["forbid_det"] = kind == "tame"
    assert is_automorphism_linear(endo) == (kind is not None)
    if kind is None:
        with pytest.raises(NotInvertibleError):
            is_tame(endo)
        with pytest.raises(NotInvertibleError):
            invert_linear(endo)
    else:
        assert is_tame(endo).kind == kind
        inv = invert_linear(endo)
        reductions["forbid_det"] = False
        assert endo.compose(inv) == KzEndo.identity(endo.algebra)
    assert reductions["reduce"] == 1


def test_decision_is_per_instance_and_per_order(reductions):
    text = (DATA / "elem12.endo").read_text()
    first, second = parse_endo_file(text), parse_endo_file(text)
    assert first == second
    is_tame(first)
    is_tame(second)
    assert reductions["reduce"] == 2
    # The default order is deglex; asking for it again by value reuses it.
    is_tame(first, MonomialOrder.deglex(2))
    assert reductions["reduce"] == 2
    is_tame(first, MonomialOrder.lex(2))
    assert reductions["reduce"] == 3
    invert_linear(first)
    is_automorphism_linear(first)
    assert reductions["reduce"] == 3
