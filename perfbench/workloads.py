"""The benchmark's three workloads: what one op does, and how its answer is
checked against the construction truth.

An op is timed alone; its check runs after the clock stops.  Every op
starts from endomorphism text.  check() returns (failure reason or None,
whether the op was left undecided).
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from freeaut import autgroup, cli, freealg, jacobian, parser
from freeaut.commpoly import PolyRing
from freeaut.errors import NotInvertibleError
from freeaut.matgroup import PolyMatrix
from freeaut.scalars import field_from_name

import corpus
from oracle import Oracle


def _first_failure(reasons) -> str | None:
    return next((r for r in reasons if r), None)


# ----------------------------------------------------------------------------
# decide2_deep: n = 2 over Q through the library.


def decide2_op(item: corpus.Item) -> dict:
    endo = parser.parse_endo_file(item.text)
    jac = jacobian.jacobian_linear(endo)
    verdict = autgroup.is_tame(endo)
    out = {"verdict": verdict.kind, "jacobian": jac, "factors": None, "stable": None}
    if verdict.kind == "tame":
        out["factors"] = verdict.factors
        out["recomposed"] = autgroup.factors_to_endo(endo.algebra, verdict.factors) == endo
        out["text"] = parser.format_autofactors(verdict.factors)
        return out
    text = parser.format_matrix(verdict.witness)
    stable = autgroup.stable_tame(endo)
    if stable is not None:
        big, factors = stable
        out["stable"] = factors
        extended = endo.extended(big.xnames[endo.n :])
        out["recomposed"] = autgroup.factors_to_endo(big, factors) == extended
        text += "\n" + parser.format_autofactors(factors)
    out["text"] = text
    return out


def decide2_check(item: corpus.Item, out: dict) -> tuple[str | None, bool]:
    o = Oracle(item)
    reasons = [o.jacobian(out["jacobian"]), o.verdict(out["verdict"])]
    if out["factors"] is not None:
        reasons.append(o.certificate(out["factors"]))
    if out["stable"] is not None:
        reasons.append(o.stable_certificate(out["stable"]))
    if "recomposed" in out and not out["recomposed"]:
        reasons.append("factors_to_endo of the certificate differs from the input")
    if not out["text"]:
        reasons.append("empty formatted certificate")
    undecided = out["verdict"] == "wild" and out["stable"] is None
    return _first_failure(reasons), undecided


# ----------------------------------------------------------------------------
# gln_fp: n = 3..6 over F_p through the library.


def gln_op(item: corpus.Item) -> dict:
    endo = parser.parse_endo_file(item.text)
    out = {"automorphism": autgroup.is_automorphism_linear(endo), "factors": None}
    try:
        verdict = autgroup.is_tame(endo)
        out["verdict"] = verdict.kind
        out["factors"] = verdict.factors
    except NotInvertibleError:
        out["verdict"] = "not_automorphism"
    try:
        inv = autgroup.invert_linear(endo)
    except NotInvertibleError:
        out["inverse"] = None
    else:
        out["inverse"] = inv
        out["identity"] = endo.compose(inv) == freealg.KzEndo.identity(endo.algebra)
    return out


def gln_check(item: corpus.Item, out: dict) -> tuple[str | None, bool]:
    o = Oracle(item)
    reasons = [o.automorphism(out["automorphism"]), o.verdict(out["verdict"])]
    if out["factors"] is not None:
        reasons.append(o.certificate(out["factors"]))
    if out["inverse"] is None:
        if item.kind != "not_automorphism":
            reasons.append("invert_linear rejected an automorphism")
    elif item.kind == "not_automorphism":
        reasons.append("invert_linear accepted a non-automorphism")
    else:
        reasons.append(o.inverse(out["inverse"]))
        if not out["identity"]:
            reasons.append("endo.compose(inverse) is not the identity")
    return _first_failure(reasons), out["verdict"] == "tame_by_theorem"


# ----------------------------------------------------------------------------
# cli_batch: freeaut.cli.main(argv) in-process over small inputs.

EXIT_VERDICT = {0: "tame", 3: "wild", 4: "not_automorphism", 5: "tame_by_theorem"}


def cli_prepare(calls: list, workdir: Path) -> list[list[str]]:
    """Write each call's inputs to files; returns one argv per call."""
    argvs = []
    for call in calls:
        paths = []
        for item in call.items:
            path = workdir / f"{item.id}.endo"
            path.write_text(item.text, encoding="utf-8")
            paths.append(str(path))
        argvs.append([call.command, *paths])
    return argvs


def cli_op(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _verdict_line(lines: list[str]) -> str | None:
    for line in lines:
        if line.startswith("verdict: "):
            return line[len("verdict: ") :].split(" ")[0]
    return None


def _matrix(rows: list[str], ring: PolyRing) -> PolyMatrix:
    entries = []
    for row in rows:
        if not (row.startswith("[") and row.endswith("]")):
            raise ValueError(f"not a matrix row: {row!r}")
        entries.append([parser.parse_comm_poly(e, ring) for e in row[1:-1].split(", ")])
    return PolyMatrix(ring, entries)


def _after(lines: list[str], prefix: str) -> str:
    line = next(line for line in lines if line.startswith(prefix))
    return line[len(prefix) :]


def cli_check(call, out: dict) -> tuple[str | None, bool]:
    item = call.items[0]
    o = Oracle(item)
    code, lines = out["code"], out["stdout"].splitlines()
    field = field_from_name(item.field)
    n = item.n
    auto = item.kind != "not_automorphism"
    verdict = _verdict_line(lines)
    cmd = call.command

    if code == 4 or verdict == "not_automorphism":
        ok = auto is False and code == 4 and (cmd == "check" or verdict == "not_automorphism")
        return (None if ok else f"{cmd} exit {code} / {verdict} on a {item.kind} input"), False
    if not auto and cmd not in ("jacobian", "compose"):
        return f"{cmd} exit {code} on a not_automorphism input", False

    if cmd == "jacobian":
        if code != 0:
            return f"jacobian exit {code}", False
        ring = PolyRing(field, ("z1", "z2"))
        reasons = [
            o.jacobian(_matrix(lines[:n], ring)),
            o.det_value(parser.parse_comm_poly(_after(lines, "det = "), ring)),
        ]
        return _first_failure(reasons), False
    if cmd == "check":
        if code != 0 or verdict != "automorphism":
            return f"check exit {code} / {verdict} on a {item.kind} input", False
        ring = PolyRing(field, ("z1", "z2"))
        return o.det_value(parser.parse_comm_poly(_after(lines, "det = "), ring)), False
    if cmd in ("tame", "decompose"):
        if code not in EXIT_VERDICT or EXIT_VERDICT[code] != verdict:
            return f"{cmd} exit {code} with verdict line {verdict}", False
        reason = o.verdict(verdict)
        if reason is None and verdict == "tame":
            body = "\n".join(lines[1:])
            if cmd == "tame":
                reason = o.certificate(parser.parse_autofactors(body, field))
            else:
                ring = PolyRing(field, ("z1", "z2"))
                reason = o.transcript(parser.parse_transcript(body, ring, n).factors)
        return reason, code == 5
    if cmd == "abelianize":
        if code != 0:
            return f"abelianize exit {code} on a {item.kind} input", False
        start = lines.index("matrix:") + 1
        ring = PolyRing(field, ("z",))
        factors = None
        if "transcript:" in lines:
            body = "\n".join(lines[lines.index("transcript:") + 1 :])
            factors = parser.parse_transcript(body, ring, n).factors
        elif n == 2:
            return "abelianize printed no transcript for two generators", False
        reasons = [
            o.abelianized(_matrix(lines[start : start + n], ring), factors),
            o.det_value(parser.parse_comm_poly(_after(lines, "det = "), ring), specialized=True),
        ]
        return _first_failure(reasons), False
    if cmd == "stabilize":
        if code == 5 and verdict == "unknown":
            return None, True
        if code != 0 or verdict != "stably_tame":
            return f"stabilize exit {code} / {verdict} on a {item.kind} input", False
        body = "\n".join(lines[2:])
        return o.stable_certificate(parser.parse_autofactors(body, field)), False
    if cmd == "invert":
        if code != 0:
            return f"invert exit {code} on a {item.kind} input", False
        return o.inverse(parser.parse_endo_file(out["stdout"])), False
    if cmd == "compose":
        if code != 0:
            return f"compose exit {code}", False
        return o.composite(parser.parse_endo_file(out["stdout"]), Oracle(call.items[1])), False
    raise ValueError(f"unknown command {cmd!r}")


# workload -> (op, check); an op's input and check subject come from
# run.Runner.cycle.
WORKLOADS = {
    "decide2_deep": (decide2_op, decide2_check),
    "gln_fp": (gln_op, gln_check),
    "cli_batch": (cli_op, cli_check),
}
