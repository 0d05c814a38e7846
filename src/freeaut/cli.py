"""Command-line interface.

Subcommands expose each decision procedure on endomorphism files; exit codes
encode the verdict so shell pipelines can branch on it:

    0  success, or verdict tame
    1  usage, parse, or input-contract error
    3  verdict wild
    4  not an automorphism
    5  tame by theorem / unknown (no explicit certificate found)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .autgroup import builtin, invert_linear, is_tame, stable_tame
from .commpoly import MonomialOrder
from .errors import (
    ContextError,
    DomainError,
    FreeautError,
    NotInvertibleError,
    NotXLinearError,
    ParseError,
)
from .jacobian import abelianize_endo, jacobian_linear
from .matgroup import _is_unit, gl2_univariate_decompose
from .parser import (
    format_autofactor,
    format_comm_poly,
    format_endo_file,
    format_factor,
    format_matrix,
    parse_endo_file,
)
from .scalars import field_from_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_WILD = 3
EXIT_NOT_AUTO = 4
EXIT_NO_TRANSCRIPT = 5

_LINEAR_NOTE = (
    "note: analyzing the x-linear part only; invertibility of the linear part "
    "is a necessary condition for the full map, not a sufficient one"
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--field",
        default=None,
        metavar="q|fp:<p>",
        help="coefficient field, overriding the file header (default: header or q)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_order(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--order",
        choices=("deglex", "lex"),
        default="deglex",
        help="monomial order for leading-term elimination (default: deglex)",
    )
    p.add_argument(
        "--priority",
        choices=("z1z2", "z2z1"),
        default="z1z2",
        help="variable priority, most significant first (default: z1z2)",
    )


def _add_linear(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--linear-part",
        action="store_true",
        help="project the input to its x-degree-1 part before analysis "
        "(necessary condition only)",
    )


def _field(args):
    return field_from_name(args.field) if args.field else None


def _order(args) -> MonomialOrder:
    priority = (0, 1) if args.priority == "z1z2" else (1, 0)
    kind = args.order
    return MonomialOrder(kind, priority)


def _load(args, notes: list[str]):
    with open(args.file, encoding="utf-8") as fh:
        endo = parse_endo_file(fh.read(), _field(args))
    if getattr(args, "linear_part", False):
        endo = endo.linear_part()
        notes.append(_LINEAR_NOTE)
    return endo


def _emit(args, notes: list[str], obj: dict, text: str) -> None:
    for note in notes:
        print(note, file=sys.stderr)
    if args.json:
        if notes:
            obj = {**obj, "notes": notes}
        print(json.dumps(obj, indent=2))
    elif text:
        print(text)


def _matrix_rows(m) -> list[list[str]]:
    return [[format_comm_poly(e) for e in row] for row in m.entries]


def _cmd_jacobian(args, notes: list[str]) -> int:
    endo = _load(args, notes)
    jac = jacobian_linear(endo)
    d = jac.det()
    text = format_matrix(jac) + f"\ndet = {format_comm_poly(d)}"
    _emit(args, notes, {"matrix": _matrix_rows(jac), "det": format_comm_poly(d)}, text)
    return EXIT_OK


def _cmd_check(args, notes: list[str]) -> int:
    endo = _load(args, notes)
    d = jacobian_linear(endo).det()
    ok = _is_unit(d)
    verdict = "automorphism" if ok else "not_automorphism"
    _emit(
        args,
        notes,
        {"verdict": verdict, "det": format_comm_poly(d)},
        f"verdict: {verdict}\ndet = {format_comm_poly(d)}",
    )
    return EXIT_OK if ok else EXIT_NOT_AUTO


def _emit_verdict(args, notes: list[str], verdict, lines: list[str]) -> int:
    """Render a tameness verdict whose certificate is already formatted."""
    if verdict.kind == "tame":
        body = "verdict: tame" + ("\n" + "\n".join(lines) if lines else "")
        _emit(args, notes, {"verdict": "tame", "factors": lines}, body)
        return EXIT_OK
    if verdict.kind == "wild":
        body = "verdict: wild\nwitness:\n" + format_matrix(verdict.witness)
        _emit(
            args,
            notes,
            {"verdict": "wild", "witness": _matrix_rows(verdict.witness)},
            body,
        )
        return EXIT_WILD
    _emit(
        args,
        notes,
        {"verdict": "tame_by_theorem"},
        "verdict: tame_by_theorem (no explicit factorization found)",
    )
    return EXIT_NO_TRANSCRIPT


def _cmd_tame(args, notes: list[str]) -> int:
    verdict = is_tame(_load(args, notes), _order(args))
    lines = [format_autofactor(f) for f in verdict.factors or ()]
    return _emit_verdict(args, notes, verdict, lines)


def _cmd_decompose(args, notes: list[str]) -> int:
    verdict = is_tame(_load(args, notes), _order(args))
    lines = [format_factor(f) for f in verdict.transcript or ()]
    return _emit_verdict(args, notes, verdict, lines)


def _cmd_invert(args, notes: list[str]) -> int:
    inv = invert_linear(_load(args, notes))
    text = format_endo_file(inv).rstrip("\n")
    _emit(
        args,
        notes,
        {
            "vars": list(inv.algebra.xnames),
            "field": inv.algebra.field.name,
            "endo": text,
        },
        text,
    )
    return EXIT_OK


def _cmd_compose(args, notes: list[str]) -> int:
    with open(args.file, encoding="utf-8") as fh:
        first = parse_endo_file(fh.read(), _field(args))
    with open(args.other, encoding="utf-8") as fh:
        second = parse_endo_file(fh.read(), _field(args))
    composed = first.compose(second)
    text = format_endo_file(composed).rstrip("\n")
    _emit(
        args,
        notes,
        {
            "vars": list(composed.algebra.xnames),
            "field": composed.algebra.field.name,
            "endo": text,
        },
        text,
    )
    return EXIT_OK


def _cmd_abelianize(args, notes: list[str]) -> int:
    endo = _load(args, notes)
    images, m = abelianize_endo(endo)
    names = endo.algebra.xnames
    lines = [f"{names[j]} -> {format_comm_poly(images[j])}" for j in range(endo.n)]
    d = m.det()
    body = "\n".join(lines) + "\nmatrix:\n" + format_matrix(m)
    body += f"\ndet = {format_comm_poly(d)}"
    obj = {
        "images": [format_comm_poly(p) for p in images],
        "matrix": _matrix_rows(m),
        "det": format_comm_poly(d),
    }
    if not _is_unit(d):
        body += "\nverdict: not_automorphism"
        _emit(args, notes, {**obj, "verdict": "not_automorphism"}, body)
        return EXIT_NOT_AUTO
    if endo.n == 2:
        lines = [format_factor(f) for f in gl2_univariate_decompose(m)]
        body += "\ntranscript:" + ("\n" + "\n".join(lines) if lines else "")
        obj["factors"] = lines
    _emit(args, notes, obj, body)
    return EXIT_OK


def _cmd_stabilize(args, notes: list[str]) -> int:
    result = stable_tame(_load(args, notes))
    if result is None:
        _emit(
            args,
            notes,
            {"verdict": "unknown"},
            "verdict: unknown (no stabilization certificate found)",
        )
        return EXIT_NO_TRANSCRIPT
    big, factors = result
    lines = [format_autofactor(f) for f in factors]
    body = "verdict: stably_tame\nvars: " + " ".join(big.xnames)
    if lines:
        body += "\n" + "\n".join(lines)
    _emit(
        args,
        notes,
        {
            "verdict": "stably_tame",
            "vars": list(big.xnames),
            "factors": lines,
        },
        body,
    )
    return EXIT_OK


def _cmd_example(args, notes: list[str]) -> int:
    endo = builtin(args.name, _field(args))
    text = format_endo_file(endo).rstrip("\n")
    _emit(args, notes, {"endo": text}, text)
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freeaut",
        description="Decide invertibility, tameness, and stable tameness of "
        "linear endomorphisms of a free algebra fixing z, with verifiable "
        "certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name: str, handler: Callable, help_text: str, *, file_arg: bool = True):
        p = sub.add_parser(name, help=help_text)
        if file_arg:
            p.add_argument("file", help="endomorphism file")
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    p = cmd("jacobian", _cmd_jacobian, "print the Jacobian over K[z1, z2] and its determinant")
    _add_linear(p)
    p = cmd("check", _cmd_check, "decide whether the map is an automorphism")
    _add_linear(p)
    p = cmd("tame", _cmd_tame, "decide tameness; print automorphism factors or a witness")
    _add_linear(p)
    _add_order(p)
    p = cmd("decompose", _cmd_decompose, "decide tameness; print the matrix transcript")
    _add_linear(p)
    _add_order(p)
    p = cmd("invert", _cmd_invert, "print the inverse endomorphism")
    _add_linear(p)
    p = cmd("compose", _cmd_compose, "compose two endomorphisms (first applied last)")
    p.add_argument("other", help="second endomorphism file")
    p = cmd("abelianize", _cmd_abelianize, "print the induced commutative map, matrix, and factorization")
    _add_linear(p)
    p = cmd("stabilize", _cmd_stabilize, "factor the one-variable extension into elementary automorphisms")
    _add_linear(p)
    p = cmd("example", _cmd_example, "print a named example endomorphism file", file_arg=False)
    p.add_argument(
        "name",
        help="anick_variant | cohn_endo | identity | triangular_sample | "
        "elem(i,j,a,b) | scale(u1,...,un)",
    )
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    notes: list[str] = []
    try:
        return args.handler(args, notes)
    except NotInvertibleError:
        _emit(args, notes, {"verdict": "not_automorphism"}, "verdict: not_automorphism")
        return EXIT_NOT_AUTO
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotXLinearError as exc:
        print(
            f"error: {exc}\nhint: pass --linear-part to analyze the x-degree-1 "
            "projection (necessary condition only)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (ContextError, DomainError, FreeautError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
