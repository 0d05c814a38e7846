import random
from fractions import Fraction
from pathlib import Path

import pytest

from freeaut import (
    Diag,
    Elem,
    ElemAuto,
    FreeAlgebra,
    KzEndo,
    NCPoly,
    ParseError,
    PolyMatrix,
    PolyRing,
    PrimeField,
    QQ,
    ScaleAuto,
    Swap,
    SwapAuto,
    Transcript,
    builtin,
    format_autofactors,
    format_comm_poly,
    format_endo_file,
    format_matrix,
    format_monomial,
    format_nc_poly,
    format_transcript,
    format_word,
    parse_autofactors,
    parse_comm_poly,
    parse_endo_file,
    parse_nc_poly,
    parse_transcript,
    stable_tame,
)
from freeaut.parser import MAX_COEFF_BITS, MAX_EXPONENT, MAX_TERMS
from support import rand_nc, rand_poly, rand_scalar, rand_transcript, rand_word

DATA = Path(__file__).parent / "data"
ALG = FreeAlgebra(QQ, ("x", "y"))
PAIR = PolyRing(QQ, ("z1", "z2"))
ZR = PolyRing(QQ, ("z",))


def nc(text):
    return parse_nc_poly(text, ALG)


def test_grammar_basics():
    x, y = ALG.gens()
    z = ALG.z()
    assert nc("x") == x
    assert nc("3") == ALG.constant(3)
    assert nc("1/2") == ALG.constant(Fraction(1, 2))
    assert nc("x y") == x * y
    assert nc("2 x y") == (x * y).scale(2)
    assert nc("-2/3 x") == x.scale(Fraction(-2, 3))
    assert nc("x^3") == x * x * x
    assert nc("z^0") == ALG.one
    assert nc("x + z x z - z^2 y") == x + z * x * z - z * z * y
    assert nc("(x + y)^2") == x * x + x * y + y * x + y * y
    assert nc("(x+y)(x-y)") == x * x - x * y + y * x - y * y
    assert nc("-x + y") == y - x


def test_star_is_accepted_never_printed():
    assert nc("2*x*y") == nc("2 x y")
    assert nc("x * (y + z)") == nc("x (y + z)")
    assert "*" not in format_nc_poly(nc("2*x*y^2"))


def test_comments_and_whitespace():
    assert nc("x + y  # trailing note") == nc("x + y")
    assert nc("  x\t+ y ") == nc("x + y")


def test_noncommutative_order_preserved():
    assert nc("x y") != nc("y x")
    assert nc("z x") != nc("x z")


def test_comm_poly_parsing():
    z1, z2 = PAIR.gens()
    assert parse_comm_poly("1 + z1 z2", PAIR) == 1 + z1 * z2
    assert parse_comm_poly("z2 z1", PAIR) == z1 * z2
    assert parse_comm_poly("(1+z1)^2", PAIR) == 1 + 2 * z1 + z1**2
    with pytest.raises(ParseError):
        parse_comm_poly("x", PAIR)


@pytest.mark.parametrize(
    "text,col",
    [
        ("x + @", 5),
        ("x + ", 4),
        ("x - - y", 5),
        ("x ^ y", 5),
        ("w", 1),
        ("(x + y", 7),
        ("()", 2),
        ("x )", 3),
        ("3/0", 3),
        ("x * +", 5),
    ],
)
def test_parse_error_positions(text, col):
    with pytest.raises(ParseError) as exc:
        nc(text)
    assert exc.value.line == 1
    assert exc.value.col == col


def test_endo_file_round_trip_with_data_file():
    text = (DATA / "anick_variant.endo").read_text()
    endo = parse_endo_file(text)
    assert endo == builtin("anick_variant")
    assert format_endo_file(endo) == text


def test_endo_file_defaults():
    endo = parse_endo_file("a -> a + z b z\nb -> b\n")
    assert endo.algebra.xnames == ("a", "b")
    assert endo.algebra.field == QQ
    swapped = parse_endo_file("b -> a\na -> b\n")
    assert swapped.algebra.xnames == ("b", "a")
    assert swapped.images[0] == swapped.algebra.gen(1)


def test_endo_file_header_controls_order():
    endo = parse_endo_file("vars: y x, fixed: z\nx -> x\ny -> y + z x z\n")
    assert endo.algebra.xnames == ("y", "x")
    assert endo.images[0] == parse_nc_poly("y + z x z", endo.algebra)


def test_endo_file_field_header_and_override():
    f7 = PrimeField(7)
    endo = parse_endo_file("field: fp:7\nx -> 3 x\ny -> y\n")
    assert endo.algebra.field == f7
    assert endo.images[0] == endo.algebra.gen(0).scale(f7(3))
    forced = parse_endo_file("field: q\nx -> x\ny -> y\n", field=f7)
    assert forced.algebra.field == f7


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vars: x y\nvars: x y\nx -> x\ny -> y\n", "duplicate vars"),
        ("field: q\nfield: q\nx -> x\n", "duplicate field"),
        ("vars: x y, frozen: z\nx -> x\ny -> y\n", "unrecognized vars header clause"),
        ("vars: x z\nx -> x\nz -> z\n", "fixed variable"),
        ("vars: x x\nx -> x\n", "repeated generator"),
        ("vars:\nx -> x\n", "no generators"),
        ("vars: 2x\n2x -> x\n", "invalid generator name"),
        ("x -> x\nz -> z\n", "z is fixed"),
        ("x -> x\nx -> y\n", "duplicate image line"),
        ("vars: x y\nx -> x\n", "no image line for generator 'y'"),
        ("vars: x\nx -> x\ny -> y\n", "not in the vars header"),
        ("x  x + y\n", "expected 'name -> expression'"),
        ("", "no image lines"),
        ("field: fp:6\nx -> x\n", "prime"),
    ],
)
def test_endo_file_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_endo_file(text)
    assert fragment in str(exc.value)


def test_endo_file_error_position_in_expression():
    with pytest.raises(ParseError) as exc:
        parse_endo_file("x -> x + w\ny -> y\n")
    assert exc.value.line == 1
    assert exc.value.col == 10
    with pytest.raises(ParseError) as exc:
        parse_endo_file("x -> x\ny -> y + q\n")
    assert exc.value.line == 2


def test_format_word_and_monomial():
    names = ("x", "y", "z")
    assert format_word((), names) == ""
    assert format_word((2, 2, 2, 0, 0), names) == "z^3 x^2"
    assert format_word((0, 1, 0), names) == "x y x"
    assert format_monomial((0, 0), ("z1", "z2")) == ""
    assert format_monomial((2, 1), ("z1", "z2")) == "z1^2 z2"


def test_format_nc_poly_examples():
    assert format_nc_poly(ALG.zero) == "0"
    assert format_nc_poly(ALG.one) == "1"
    assert format_nc_poly(nc("x + z x z - z^2 y")) == "x + z x z - z^2 y"
    assert format_nc_poly(nc("-x")) == "-x"
    assert format_nc_poly(nc("1/2 - 3/4 x y")) == "1/2 - 3/4 x y"
    assert format_nc_poly(nc("y + x")) == "x + y"


def test_format_prime_field_coefficients():
    f7 = PrimeField(7)
    alg = FreeAlgebra(f7, ("x", "y"))
    f = parse_nc_poly("x - y", alg)
    assert format_nc_poly(f) == "x + 6 y"
    assert parse_nc_poly(format_nc_poly(f), alg) == f


def test_format_matrix():
    assert format_matrix(PolyMatrix.identity(PAIR, 2)) == "[1, 0]\n[0, 1]"
    z1, z2 = PAIR.gens()
    m = PolyMatrix(PAIR, [[1 + z1 * z2, z2**2], [-(z1**2), 1 - z1 * z2]])
    assert format_matrix(m) == "[1 + z1 z2, z2^2]\n[-z1^2, 1 - z1 z2]"


def test_format_parse_round_trip_nc():
    rng = random.Random(163)
    for field in (QQ, PrimeField(7)):
        alg = FreeAlgebra(field, ("x", "y"))
        for _ in range(150):
            f = rand_nc(alg, rng)
            assert parse_nc_poly(format_nc_poly(f), alg) == f


def test_format_parse_round_trip_comm():
    rng = random.Random(167)
    for field in (QQ, PrimeField(5)):
        for names in (("z",), ("z1", "z2")):
            ring = PolyRing(field, names)
            for _ in range(100):
                p = rand_poly(ring, rng)
                assert parse_comm_poly(format_comm_poly(p), ring) == p


def test_endo_file_format_is_canonical():
    rng = random.Random(173)
    from support import rand_automorphism

    for _ in range(30):
        endo = rand_automorphism(ALG, rng)
        text = format_endo_file(endo)
        again = parse_endo_file(text)
        assert again == endo
        assert format_endo_file(again) == text


def test_transcript_round_trip_exact():
    z = ZR.gen(0)
    t = Transcript(
        ZR, 2, (Elem(1, 2, -ZR.one), Elem(2, 1, -(z**2)), Elem(1, 2, ZR.one))
    )
    text = format_transcript(t)
    assert text == "E 1 2 -1\nE 2 1 -z^2\nE 1 2 1"
    assert parse_transcript(text, ZR, 2) == t


def test_transcript_round_trip_random():
    rng = random.Random(179)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("z1", "z2"))
        for _ in range(100):
            t = rand_transcript(ring, rng)
            assert parse_transcript(format_transcript(t), ring, 2) == t


def test_transcript_all_factor_kinds():
    t = Transcript(
        PAIR,
        2,
        (
            Elem(1, 2, PAIR.gen(0) + 1),
            Diag((Fraction(1, 2), Fraction(-3))),
            Swap(1, 2),
        ),
    )
    text = format_transcript(t)
    assert text.splitlines()[1] == "D 1/2 -3"
    assert text.splitlines()[2] == "S 1 2"
    assert parse_transcript(text, PAIR, 2) == t


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("D 2", "expected 2 diagonal units"),
        ("Q 1 2", "unknown factor tag"),
        ("E 1 2", "expected a term"),
        ("E 1 2 z1 z1", None),
        ("S 1", "expected 'INT'"),
    ],
)
def test_transcript_parse_errors(text, fragment):
    if fragment is None:
        assert parse_transcript(text, PAIR, 2).factors == (
            Elem(1, 2, PAIR.gen(0) ** 2),
        )
        return
    with pytest.raises(ParseError) as exc:
        parse_transcript(text, PAIR, 2)
    assert fragment in str(exc.value)


def test_autofactor_round_trip_exact():
    z = ZR.gen(0)
    factors = (
        ElemAuto(1, 3, ZR.one, z),
        ScaleAuto((Fraction(1, 2), Fraction(-3))),
        SwapAuto(1, 2),
    )
    text = format_autofactors(factors)
    assert text == "A 1 3 (1) (z)\nAS 1/2 -3\nAX 1 2"
    assert parse_autofactors(text, QQ) == factors


def test_autofactor_round_trip_stabilization():
    res = stable_tame(builtin("anick_variant"))
    assert res is not None
    _, factors = res
    text = format_autofactors(factors)
    assert parse_autofactors(text, QQ) == factors


def test_autofactor_round_trip_prime_field():
    f7 = PrimeField(7)
    zr7 = PolyRing(f7, ("z",))
    factors = (
        ElemAuto(2, 1, zr7.term(f7(6), (2,)), zr7.one),
        ScaleAuto((f7(3), f7(6))),
    )
    text = format_autofactors(factors)
    assert text == "A 2 1 (6 z^2) (1)\nAS 3 6"
    assert parse_autofactors(text, f7) == factors


def test_autofactor_parse_errors():
    with pytest.raises(ParseError):
        parse_autofactors("A 1 2 (z)", QQ)
    with pytest.raises(ParseError):
        parse_autofactors("B 1 2 (z) (z)", QQ)


@pytest.fixture
def built_terms(monkeypatch):
    """Term counts of every NCPoly constructed while the test runs."""
    counts = []
    init = NCPoly.__init__

    def counting_init(self, algebra, terms):
        counts.append(len(terms))
        init(self, algebra, terms)

    monkeypatch.setattr(NCPoly, "__init__", counting_init)
    return counts


def test_format_parse_round_trip_large_images():
    rng = random.Random(179)
    for field in (QQ, PrimeField(7)):
        alg = FreeAlgebra(field, ("x", "y"))
        for _ in range(4):
            terms = {}
            for _ in range(600):
                terms[rand_word(alg, rng, maxlen=9)] = rand_scalar(field, rng, nonzero=True)
            f = NCPoly(alg, terms)
            assert len(f) >= 300
            assert parse_nc_poly(format_nc_poly(f), alg) == f
            assert parse_nc_poly(f"{format_nc_poly(f)} - ({format_nc_poly(f)})", alg) == alg.zero


def test_parse_builds_terms_linearly(built_terms):
    def volume(count):
        body = " + ".join(f"{k + 1} z^{k} x z" for k in range(count))
        built_terms.clear()
        endo = parse_endo_file(f"vars: x y, fixed: z\nx -> {body}\ny -> y\n")
        assert len(endo.images[0]) == count
        return sum(built_terms)

    assert volume(400) / volume(200) <= 2.5


def test_power_over_term_limit_rejected_before_expanding(built_terms):
    with pytest.raises(ParseError) as exc:
        nc("(x + z)^40")
    assert "exceeds the limit" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 9)
    assert max(built_terms) <= 2
    with pytest.raises(ParseError) as exc:
        nc("x + (x + y)^9 (y + z)^9")
    assert exc.value.col == 15
    assert max(built_terms) <= 2**9
    with pytest.raises(ParseError):
        parse_comm_poly("(z1 + z2)^17", PAIR)
    assert len(nc("(x + y)^8 (y + z)^4")) == 2**12


def test_exponent_limit():
    with pytest.raises(ParseError) as exc:
        nc(f"x + z^{MAX_EXPONENT + 1}")
    assert (exc.value.line, exc.value.col) == (1, 7)
    assert "exponent 10001" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_comm_poly(f"z1^{MAX_EXPONENT + 1}", PAIR)
    assert exc.value.col == 4
    assert nc(f"z^{MAX_EXPONENT}") == ALG.word((2,) * MAX_EXPONENT)
    assert MAX_EXPONENT == 10_000 and MAX_TERMS == 100_000


def test_nested_powers_rejected_before_expanding(monkeypatch):
    # One-term bases stay one term, so only degree and coefficient size
    # bound them: (z^10000)^3 would be a 30 000-letter word.
    longest = [0]
    init = NCPoly.__init__

    def recording_init(self, algebra, terms):
        longest[0] = max([longest[0], *map(len, terms)])
        init(self, algebra, terms)

    monkeypatch.setattr(NCPoly, "__init__", recording_init)
    with pytest.raises(ParseError) as exc:
        nc("(z^10000)^3")
    assert "degree 30000" in str(exc.value) and "exceeds the limit" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (1, 11)
    assert longest[0] == MAX_EXPONENT
    with pytest.raises(ParseError) as exc:
        nc("x + ((2)^100)^100")
    assert "exceeds the limit" in str(exc.value) and exc.value.col == 15
    with pytest.raises(ParseError):
        nc("(x z^5000)^2")
    assert nc("(z^100)^100") == ALG.word((2,) * 10_000)


def test_nested_powers_rejected_on_the_commutative_side():
    with pytest.raises(ParseError) as exc:
        parse_comm_poly("(z1^10000)^5", PAIR)
    assert "degree 50000" in str(exc.value) and exc.value.col == 12
    with pytest.raises(ParseError) as exc:
        parse_comm_poly("((2)^100)^100", PAIR)
    assert "exceeds the limit" in str(exc.value) and exc.value.col == 11
    with pytest.raises(ParseError):
        parse_comm_poly("(1/3 z)^10000", ZR)
    assert parse_comm_poly("z^10000", ZR) == ZR.gen(0) ** 10_000
    assert parse_comm_poly("(2)^100", ZR) == ZR.constant(2**100)
    assert nc("(2)^100") == ALG.constant(2**100)
    # Prime-field coefficients never grow, so only the degree is bounded.
    f7 = PolyRing(PrimeField(7), ("z",))
    assert parse_comm_poly("(3 z)^5000", f7) == f7.term(PrimeField(7)(3) ** 5000, (5000,))
    assert MAX_COEFF_BITS == 10_000
