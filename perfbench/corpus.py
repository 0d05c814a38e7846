"""Seeded input generator for the freeaut benchmark.

Every input is an x-linear endomorphism written as endomorphism-file text,
built from its Jacobian over K[z1, z2]: the monomial c z1^p z2^q at entry
(i, j) is the term c z^p x_i z^q of the j-th image.  The construction truth
(tame / wild / not_automorphism, n, field, factor count, the exact Jacobian)
stays here; the program under test only ever sees the text.

Constructions, with M the Jacobian:

- tame: a product of elementary matrices I + p E_ij, so M lies in E_n.
- wild (n = 2): tame * C * tame with C = [[1+z1z2, z2^2], [-z1^2, 1-z1z2]],
  Cohn's matrix.  C is not in GE_2(K[z1, z2]) and GE_2 is a group, so the
  product is not in it either.
- not_automorphism: a tame product with one entry (i, j) perturbed by a
  non-constant monomial t.  det(M + t E_ij) = 1 + t (M^-1)_ji, and (i, j) is
  chosen with (M^-1)_ji non-zero even after z1 = z2 = z, so the determinant
  stays non-constant both over K[z1, z2] and over K[z].

The arithmetic is self-contained (dict polynomials with integer
coefficients, reduced mod p over F_p) so inputs do not depend on the code
being measured.  Inputs are drawn from random.Random seeded with a string of
(workload, seed, cycle, slot), so one seed gives byte-identical inputs at any
run length.

Run as a script to write a corpus to disk:

    python3 perfbench/corpus.py --workload decide2_deep --seed 1 --cycles 2 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FP = 10007

# Polynomials in z1, z2: {(p, q): c}.  Coefficients are Python ints; over
# F_p they are kept in [0, p).


def _norm(c: int, mod: int | None) -> int:
    return c % mod if mod else c


def padd(a: dict, b: dict, mod: int | None) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = _norm(out.get(m, 0) + c, mod)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict, mod: int | None) -> dict:
    out: dict = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            m = (p1 + p2, q1 + q2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in ((m, _norm(c, mod)) for m, c in out.items()) if c}


def pneg(a: dict, mod: int | None) -> dict:
    return {m: _norm(-c, mod) for m, c in a.items()}


def identity(n: int) -> list[list[dict]]:
    return [[{(0, 0): 1} if i == j else {} for j in range(n)] for i in range(n)]


def matmul(a: list, b: list, mod: int | None) -> list[list[dict]]:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = padd(acc, pmul(a[i][k], b[k][j], mod), mod)
            row.append(acc)
        out.append(row)
    return out


def right_elem(m: list, i: int, j: int, p: dict, mod: int | None) -> None:
    """m <- m (I + p E_ij): column j += p * column i (0-based, in place)."""
    for r in range(len(m)):
        if m[r][i]:
            m[r][j] = padd(m[r][j], pmul(m[r][i], p, mod), mod)


def cohn(mod: int | None) -> list[list[dict]]:
    return [
        [{(0, 0): 1, (1, 1): 1}, {(0, 2): 1}],
        [{(2, 0): _norm(-1, mod)}, {(0, 0): 1, (1, 1): _norm(-1, mod)}],
    ]


def specialize(p: dict, mod: int | None) -> dict:
    """z1 = z2 = z: {(p, q): c} -> {(p + q, 0): c}."""
    out: dict = {}
    for (a, b), c in p.items():
        out[(a + b, 0)] = out.get((a + b, 0), 0) + c
    return {m: c for m, c in ((m, _norm(c, mod)) for m, c in out.items()) if c}


# ----------------------------------------------------------------------------
# Text


def _coeff_text(c: int, mod: int | None) -> tuple[str, int]:
    """(sign, magnitude) as the file should show them."""
    if mod:
        return "+", c
    return ("-", -c) if c < 0 else ("+", c)


def endo_text(m: list, field_name: str, mod: int | None) -> str:
    n = len(m)
    names = [f"x{k + 1}" for k in range(n)]
    lines = [f"vars: {' '.join(names)}, fixed: z", f"field: {field_name}"]
    for j in range(n):
        pieces = []
        for i in range(n):
            for (p, q), c in sorted(m[i][j].items()):
                sign, mag = _coeff_text(c, mod)
                word = []
                if p:
                    word.append("z" if p == 1 else f"z^{p}")
                word.append(names[i])
                if q:
                    word.append("z" if q == 1 else f"z^{q}")
                body = " ".join(word)
                piece = body if mag == 1 else f"{mag} {body}"
                if not pieces:
                    pieces.append(f"-{piece}" if sign == "-" else piece)
                else:
                    pieces.append(f" {sign} {piece}")
        lines.append(f"{names[j]} -> {''.join(pieces) or '0'}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# Construction


@dataclass
class Item:
    """One generated input and the truth about how it was built."""

    id: str
    kind: str  # tame | wild | not_automorphism
    n: int
    field: str  # q | fp:<p>
    factors: int
    text: str
    matrix: list = field(repr=False)

    @property
    def mod(self) -> int | None:
        return FP if self.field != "q" else None

    def truth(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "n": self.n,
            "field": self.field,
            "factors": self.factors,
            "bytes": len(self.text.encode()),
        }


def _rand_coeff(rng: random.Random, mod: int | None) -> int:
    if mod:
        return rng.randrange(1, mod)
    return rng.choice((1, -1, 2, -2, 3, -3))


def _rand_poly(rng: random.Random, mod: int | None, maxdeg: int, maxterms: int) -> dict:
    monos = [(a, d - a) for d in range(maxdeg + 1) for a in range(d + 1)]
    poly: dict = {}
    while not poly or all(m == (0, 0) for m in poly):
        poly = {m: _rand_coeff(rng, mod) for m in rng.sample(monos, rng.randint(1, maxterms))}
    return poly


def _elem_sequence(rng, n, count, mod, maxdeg, maxterms):
    """count elementary factors (i, j, p), never twice in a row at one spot."""
    seq, last = [], None
    for _ in range(count):
        while True:
            i, j = rng.sample(range(n), 2)
            if (i, j) != last:
                break
        last = (i, j)
        seq.append((i, j, _rand_poly(rng, mod, maxdeg, maxterms)))
    return seq


def _product(seq, n, mod, start=None):
    m = identity(n) if start is None else [list(row) for row in start]
    for i, j, p in seq:
        right_elem(m, i, j, p, mod)
    return m


def _inverse_of_product(seq, n, mod):
    """(prod of I + p E_ij)^-1 = reversed product of I - p E_ij."""
    m = identity(n)
    for i, j, p in reversed(seq):
        right_elem(m, i, j, pneg(p, mod), mod)
    return m


def build(
    rng: random.Random,
    item_id: str,
    kind: str,
    n: int,
    field_name: str,
    count: int,
    maxdeg: int,
    maxterms: int,
) -> Item:
    mod = FP if field_name != "q" else None
    if kind == "wild":
        if n != 2:
            raise ValueError("wild inputs are built for n = 2 only")
        left = _elem_sequence(rng, n, count // 2, mod, maxdeg, maxterms)
        right = _elem_sequence(rng, n, count - count // 2, mod, maxdeg, maxterms)
        m = _product(right, n, mod, start=matmul(_product(left, n, mod), cohn(mod), mod))
    else:
        seq = _elem_sequence(rng, n, count, mod, maxdeg, maxterms)
        m = _product(seq, n, mod)
        if kind == "not_automorphism":
            inv = _inverse_of_product(seq, n, mod)
            spots = [
                (i, j) for i in range(n) for j in range(n) if specialize(inv[j][i], mod)
            ]
            i, j = rng.choice(spots)
            d = rng.randint(1, 2)
            a = rng.randint(0, d)
            t = {(a, d - a): _rand_coeff(rng, mod)}
            m[i][j] = padd(m[i][j], t, mod)
        elif kind != "tame":
            raise ValueError(f"unknown input kind {kind!r}")
    name = "q" if mod is None else f"fp:{mod}"
    return Item(item_id, kind, n, name, count, endo_text(m, name, mod), m)


# ----------------------------------------------------------------------------
# Workload mixes.  A cycle is one pass over a workload's fixed input mix;
# every cycle draws fresh inputs.

DECIDE2_LADDER = (8, 12, 16, 20, 24)
GLN_FACTORS = {3: 5, 4: 7, 5: 9, 6: 11}
GLN_PER_N = 5


def decide2_cycle(seed: int, cycle: int) -> list[Item]:
    items = []
    for s, count in enumerate(x for x in DECIDE2_LADDER for _ in (0, 1)):
        kind = "tame" if s % 2 == 0 else "wild"
        rng = random.Random(f"decide2_deep:{seed}:{cycle}:{s}")
        items.append(
            build(rng, f"d2-{seed}-{cycle}-{s}", kind, 2, "q", count, maxdeg=1, maxterms=1)
        )
    return items


def gln_cycle(seed: int, cycle: int) -> list[Item]:
    """Five inputs for each n = 3..6; two of the twenty (10%) are not
    automorphisms, at n = 3, 5 on even cycles and n = 4, 6 on odd ones."""
    bad = {3 + cycle % 2, 5 + cycle % 2}
    items = []
    for s in range(GLN_PER_N * len(GLN_FACTORS)):
        n = 3 + s // GLN_PER_N
        last = s % GLN_PER_N == GLN_PER_N - 1
        kind = "not_automorphism" if last and n in bad else "tame"
        rng = random.Random(f"gln_fp:{seed}:{cycle}:{s}")
        items.append(
            build(rng, f"gl-{seed}-{cycle}-{s}", kind, n, "fp", GLN_FACTORS[n], maxdeg=1, maxterms=2)
        )
    return items


# (field, n, kind) classes of the CLI batch; stabilize and abelianize's
# transcript only apply to n = 2.
CLI_CLASSES = (
    ("q", 2, "tame"),
    ("q", 2, "wild"),
    ("fp", 2, "tame"),
    ("fp", 2, "wild"),
    ("q", 3, "tame"),
    ("fp", 3, "tame"),
    ("q", 2, "not_automorphism"),
    ("fp", 3, "not_automorphism"),
)
CLI_COMMANDS = ("jacobian", "check", "tame", "decompose", "abelianize", "stabilize", "invert", "compose")


@dataclass
class CliCall:
    command: str
    items: tuple  # one Item, two for compose


def cli_cycle(seed: int, cycle: int) -> list[CliCall]:
    calls = []
    slot = 0
    for command in CLI_COMMANDS:
        for k, (fld, n, kind) in enumerate(CLI_CLASSES):
            if command == "stabilize" and n != 2:
                continue
            items = []
            for part in range(2 if command == "compose" else 1):
                count = 2 + (cycle + k + part) % 5
                rng = random.Random(f"cli_batch:{seed}:{cycle}:{slot}:{part}")
                items.append(
                    build(rng, f"cl-{seed}-{cycle}-{slot}-{part}", kind, n, fld, count, maxdeg=1, maxterms=1)
                )
            calls.append(CliCall(command, tuple(items)))
            slot += 1
    return calls


def cycle_items(workload: str, seed: int, cycle: int) -> list:
    if workload == "decide2_deep":
        return decide2_cycle(seed, cycle)
    if workload == "gln_fp":
        return gln_cycle(seed, cycle)
    if workload == "cli_batch":
        return cli_cycle(seed, cycle)
    raise ValueError(f"unknown workload {workload!r}")


def write_corpus(workload: str, seed: int, cycles: int, out: Path) -> int:
    """Write each input as <id>.endo plus one truth line per input; returns
    the number of inputs written."""
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    with open(out / "truth.jsonl", "w", encoding="utf-8") as truth:
        for cycle in range(cycles):
            for entry in cycle_items(workload, seed, cycle):
                items = entry.items if isinstance(entry, CliCall) else (entry,)
                for item in items:
                    (out / f"{item.id}.endo").write_text(item.text, encoding="utf-8")
                    row = item.truth()
                    if isinstance(entry, CliCall):
                        row["command"] = entry.command
                    truth.write(json.dumps(row, sort_keys=True) + "\n")
                    written += 1
    return written


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("decide2_deep", "gln_fp", "cli_batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    written = write_corpus(args.workload, args.seed, args.cycles, args.out)
    print(f"wrote {written} inputs and truth.jsonl to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
