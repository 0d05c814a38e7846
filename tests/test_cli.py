import json
from pathlib import Path

import pytest

from freeaut import (
    PolyRing,
    PrimeField,
    QQ,
    builtin,
    factors_to_endo,
    jacobian_linear,
    parse_autofactors,
    parse_endo_file,
    parse_transcript,
    verify_transcript,
)
from freeaut.cli import (
    EXIT_NO_TRANSCRIPT,
    EXIT_NOT_AUTO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WILD,
    main,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
ANICK = str(DATA / "anick_variant.endo")
IDENTITY = str(DATA / "identity.endo")
NOT_AUTO = str(DATA / "not_auto.endo")
TRIANGULAR = str(DATA / "triangular.endo")
ELEM12 = str(DATA / "elem12.endo")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tame_exit_codes(capsys):
    code, out, _ = run(capsys, "tame", ANICK)
    assert code == EXIT_WILD
    assert out.startswith("verdict: wild\nwitness:\n")

    code, out, _ = run(capsys, "tame", IDENTITY)
    assert code == EXIT_OK
    assert out == "verdict: tame\n"

    code, out, _ = run(capsys, "tame", NOT_AUTO)
    assert code == EXIT_NOT_AUTO
    assert out == "verdict: not_automorphism\n"


def test_tame_factors_recompose(capsys):
    code, out, _ = run(capsys, "tame", ELEM12)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "verdict: tame"
    factors = parse_autofactors("\n".join(lines[1:]), QQ)
    endo = parse_endo_file(Path(ELEM12).read_text())
    assert factors_to_endo(endo.algebra, factors) == endo


def test_check(capsys):
    code, out, _ = run(capsys, "check", ANICK)
    assert code == EXIT_OK
    assert out == "verdict: automorphism\ndet = 1\n"

    code, out, _ = run(capsys, "check", NOT_AUTO)
    assert code == EXIT_NOT_AUTO
    assert out == "verdict: not_automorphism\ndet = z1 z2\n"


def test_jacobian_output(capsys):
    code, out, _ = run(capsys, "jacobian", ANICK)
    assert code == EXIT_OK
    assert out == "[1 + z1 z2, z2^2]\n[-z1^2, 1 - z1 z2]\ndet = 1\n"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", ELEM12)
    assert code == EXIT_OK
    assert out == "verdict: tame\nE 1 2 z1 z2\n"

    code, out, _ = run(capsys, "decompose", ANICK)
    assert code == EXIT_WILD

    code, out, _ = run(capsys, "decompose", IDENTITY)
    assert code == EXIT_OK
    assert out == "verdict: tame\n"


def test_decompose_transcript_verifies(capsys):
    code, out, _ = run(capsys, "decompose", ELEM12)
    assert code == EXIT_OK
    ring = PolyRing(QQ, ("z1", "z2"))
    t = parse_transcript("\n".join(out.splitlines()[1:]), ring, 2)
    endo = parse_endo_file(Path(ELEM12).read_text())
    assert verify_transcript(t, jacobian_linear(endo))


def test_invert(capsys):
    code, out, _ = run(capsys, "invert", ANICK)
    assert code == EXIT_OK
    assert out == (
        "vars: x y, fixed: z\n"
        "field: q\n"
        "x -> x - z x z + z^2 y\n"
        "y -> y - x z^2 + z y z\n"
    )
    inv = parse_endo_file(out)
    anick = builtin("anick_variant")
    assert anick.compose(inv) == builtin("identity")

    code, _, _ = run(capsys, "invert", NOT_AUTO)
    assert code == EXIT_NOT_AUTO


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", ANICK, ANICK)
    assert code == EXIT_OK
    anick = builtin("anick_variant")
    assert parse_endo_file(out) == anick.compose(anick)

    code, out, _ = run(capsys, "compose", ANICK, str(DATA / "inverse.endo"))
    assert code == EXIT_OK
    assert parse_endo_file(out) == builtin("identity")


def test_abelianize(capsys):
    code, out, _ = run(capsys, "abelianize", ANICK)
    assert code == EXIT_OK
    assert "matrix:\n[1 + z^2, z^2]\n[-z^2, 1 - z^2]\ndet = 1" in out
    assert out.endswith("transcript:\nE 1 2 -1\nE 2 1 -z^2\nE 1 2 1\n")

    code, out, _ = run(capsys, "abelianize", NOT_AUTO)
    assert code == EXIT_NOT_AUTO
    assert "verdict: not_automorphism" in out


def test_stabilize(capsys):
    code, out, _ = run(capsys, "stabilize", ANICK)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "verdict: stably_tame"
    assert lines[1] == "vars: x y t"
    factors = parse_autofactors("\n".join(lines[2:]), QQ)
    assert len(factors) == 8

    code, _, _ = run(capsys, "stabilize", NOT_AUTO)
    assert code == EXIT_NOT_AUTO


def test_example(capsys):
    code, out, _ = run(capsys, "example", "anick_variant")
    assert code == EXIT_OK
    assert out == Path(ANICK).read_text()

    code, _, err = run(capsys, "example", "nonsense")
    assert code == EXIT_USAGE
    assert "unknown builtin" in err


def test_json_outputs(capsys):
    code, out, _ = run(capsys, "tame", ANICK, "--json")
    assert code == EXIT_WILD
    obj = json.loads(out)
    assert obj["verdict"] == "wild"
    assert obj["witness"][0][0] == "1 + z1 z2"

    code, out, _ = run(capsys, "decompose", ELEM12, "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    ring = PolyRing(QQ, ("z1", "z2"))
    t = parse_transcript("\n".join(obj["factors"]), ring, 2)
    endo = parse_endo_file(Path(ELEM12).read_text())
    assert verify_transcript(t, jacobian_linear(endo))

    code, out, _ = run(capsys, "jacobian", ANICK, "--json")
    obj = json.loads(out)
    assert obj["det"] == "1"
    assert obj["matrix"][1] == ["-z1^2", "1 - z1 z2"]

    code, out, _ = run(capsys, "stabilize", ANICK, "--json")
    obj = json.loads(out)
    assert obj["verdict"] == "stably_tame"
    assert obj["vars"] == ["x", "y", "t"]
    assert len(obj["factors"]) == 8


def test_linear_part_projection(capsys):
    code, _, err = run(capsys, "tame", TRIANGULAR)
    assert code == EXIT_USAGE
    assert "--linear-part" in err

    code, out, err = run(capsys, "tame", TRIANGULAR, "--linear-part")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "verdict: tame"
    assert "necessary condition" in err

    code, out, err = run(capsys, "check", TRIANGULAR, "--linear-part", "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["verdict"] == "automorphism"
    assert obj["notes"]


def test_field_override(capsys):
    code, out, _ = run(capsys, "jacobian", ANICK, "--field", "fp:7")
    assert code == EXIT_OK
    assert out.endswith("det = 1\n")

    code, out, _ = run(capsys, "example", "identity", "--field", "fp:7")
    assert code == EXIT_OK
    assert "field: fp:7" in out
    assert parse_endo_file(out).algebra.field == PrimeField(7)

    code, _, err = run(capsys, "jacobian", ANICK, "--field", "fp:6")
    assert code == EXIT_USAGE


def test_order_flags(capsys):
    for order in ("deglex", "lex"):
        for priority in ("z1z2", "z2z1"):
            code, out, _ = run(
                capsys, "tame", ANICK, "--order", order, "--priority", priority
            )
            assert code == EXIT_WILD


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "nonsense", ANICK)[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "tame", str(tmp_path / "missing.endo"))[0] == EXIT_USAGE

    bad = tmp_path / "bad.endo"
    bad.write_text("x -> x + w\ny -> y\n")
    code, _, err = run(capsys, "tame", str(bad))
    assert code == EXIT_USAGE
    assert "unknown symbol 'w' (line 1, column 10)" in err

    assert run(capsys, "tame", "--help")[0] == EXIT_OK


def test_pseudoprime_field_is_usage_error(capsys, tmp_path):
    psi_12 = 318665857834031151167461  # composite, strong pseudoprime to bases 2..37
    spec = tmp_path / "psi12.endo"
    spec.write_text(f"vars: x y, fixed: z\nfield: fp:{psi_12}\nx -> x\ny -> y\n")
    code, out, err = run(capsys, "tame", str(spec))
    assert code == EXIT_USAGE and out == ""
    assert f"{psi_12} is not prime (line 2)" in err
    code, _, err = run(capsys, "tame", "--field", f"fp:{psi_12}", IDENTITY)
    assert code == EXIT_USAGE and "is not prime" in err


@pytest.mark.parametrize(
    "name,argv",
    [
        ("jacobian_anick.txt", ("jacobian", ANICK)),
        ("tame_anick.txt", ("tame", ANICK)),
        ("stabilize_anick.txt", ("stabilize", ANICK)),
        ("abelianize_anick.txt", ("abelianize", ANICK)),
    ],
)
def test_golden_outputs(capsys, name, argv):
    expected = (GOLDEN / name).read_text()
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == expected
    assert second == expected


@pytest.mark.parametrize(
    "image,where",
    [
        ("(x + z)^40", "line 2, column 14"),
        ("x z^10001", "line 2, column 10"),
        ("x (z^10000)^3", "line 2, column 18"),
        ("x + ((2)^100)^100", "line 2, column 20"),
    ],
)
def test_input_over_limits_is_a_usage_error(capsys, tmp_path, image, where):
    path = tmp_path / "huge.endo"
    path.write_text(f"vars: x y, fixed: z\nx -> {image}\ny -> y\n")
    code, out, err = run(capsys, "tame", str(path))
    assert code == EXIT_USAGE and out == ""
    assert "exceeds the limit" in err and where in err
