"""Text format for polynomials, endomorphism files, and certificates.

Expression grammar:

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational factor* | factor+
    factor   := symbol ['^' uint] | '(' expr ')'
    rational := uint ['/' uint]

Juxtaposition is product (noncommutative in the free algebra, commutative in
polynomial rings); '*' is accepted between factors but never printed.  '#'
starts a comment running to the end of the line.

Printing is deterministic: terms ascend by degree then exponent/letter
sequence, repeated letters compress to powers, unit coefficients are
omitted.  parse(print(v)) = v holds for every canonical value.

Input limits: parsing expands products and powers, so an expression can
name far more terms than it has characters.  An exponent above
MAX_EXPONENT is rejected, and so is a product or power whose term bound
(len(a)*len(b) for a product, len(base)^e for a power of a base with more
than one term) exceeds MAX_TERMS.  A power base^e is also rejected when
e * degree(base) (word length or total degree) exceeds MAX_EXPONENT, or
when e times the bit length of its largest rational numerator or
denominator exceeds MAX_COEFF_BITS, so nested powers such as
(z^10000)^3 or ((2)^100)^100 cannot grow without bound.  All limits are
checked before expanding and raise ParseError at the offending token.  The
limits bound parsed input only; arithmetic on library values is unbounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .commpoly import CommPoly, PolyRing
from .errors import ParseError
from .freealg import FreeAlgebra, KzEndo, NCPoly, Word
from .matgroup import Diag, Elem, Swap, Transcript
from .scalars import Field, FpElement, QQ, Scalar, field_from_name

_TOKEN_RE = re.compile(
    r"(?P<WS>[ \t\r]+)"
    r"|(?P<COMMENT>#[^\n]*)"
    r"|(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<ARROW>->)"
    r"|(?P<OP>[-+*/^(),:])"
)

MAX_EXPONENT = 10_000
MAX_TERMS = 100_000
MAX_COEFF_BITS = 10_000


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def _tokenize(text: str, line: int = 1, col_offset: int = 0) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos + col_offset + 1
            )
        kind = m.lastgroup
        if kind not in ("WS", "COMMENT"):
            if kind == "OP" or kind == "ARROW":
                kind = m.group()
            tokens.append(_Token(kind, m.group(), line, m.start() + col_offset + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    """Recursive-descent expression parser over a symbol table.

    The symbol table maps generator names to values of ctx, a PolyRing or a
    FreeAlgebra; arithmetic is performed directly on those values, so one
    parser serves both the commutative and the noncommutative side.
    """

    def __init__(
        self, tokens: list[_Token], symbols: dict, ctx: PolyRing | FreeAlgebra, line: int
    ):
        self.tokens = tokens
        self.symbols = symbols
        self.ctx = ctx
        self.line = line
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.line, self._end_col())
        self.pos += 1
        return t

    def _end_col(self) -> int:
        if self.tokens:
            last = self.tokens[-1]
            return last.col + len(last.text)
        return 1

    def _expect(self, kind: str) -> _Token:
        t = self._peek()
        if t is None or t.kind != kind:
            where = (t.line, t.col) if t else (self.line, self._end_col())
            got = f"{t.text!r}" if t else "end of input"
            raise ParseError(f"expected {kind!r}, got {got}", *where)
        return self._next()

    def parse(self):
        value = self.expr()
        t = self._peek()
        if t is not None:
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return value

    def expr(self):
        parts = []
        t = self._peek()
        negate = t is not None and t.kind == "-"
        if t is not None and t.kind in ("+", "-"):
            self._next()
        while True:
            value = self.term()
            parts.append(-value if negate else value)
            t = self._peek()
            if t is None or t.kind not in ("+", "-"):
                return type(value).sum(self.ctx, parts)
            self._next()
            negate = t.kind == "-"

    def term(self):
        value = None
        t = self._peek()
        if t is not None and t.kind == "INT":
            self._next()
            num = int(t.text)
            if self._peek() is not None and self._peek().kind == "/":
                self._next()
                dt = self._expect("INT")
                den = int(dt.text)
                if den == 0:
                    raise ParseError("zero denominator", dt.line, dt.col)
                value = self.ctx.constant(Fraction(num, den))
            else:
                value = self.ctx.constant(Fraction(num))
        while True:
            t = self._peek()
            if t is not None and t.kind == "*":
                self._next()
                t = self._peek()
                if t is None or t.kind not in ("NAME", "(", "INT"):
                    raise ParseError(
                        "expected a factor after '*'",
                        self.line,
                        t.col if t else self._end_col(),
                    )
            if t is None or t.kind not in ("NAME", "("):
                break
            f = self.factor()
            if value is not None and len(value) * len(f) > MAX_TERMS:
                raise ParseError(
                    f"product of {len(value)} and {len(f)} terms exceeds the limit "
                    f"of {MAX_TERMS} terms",
                    t.line,
                    t.col,
                )
            value = f if value is None else value * f
        if value is None:
            t = self._peek()
            where = (t.line, t.col) if t else (self.line, self._end_col())
            got = f"{t.text!r}" if t else "end of input"
            raise ParseError(f"expected a term, got {got}", *where)
        return value

    def factor(self):
        t = self._next()
        if t.kind == "NAME":
            if t.text not in self.symbols:
                raise ParseError(f"unknown symbol {t.text!r}", t.line, t.col)
            value = self.symbols[t.text]
        elif t.kind == "(":
            value = self.expr()
            self._expect(")")
        else:
            raise ParseError(f"expected a factor, got {t.text!r}", t.line, t.col)
        nxt = self._peek()
        if nxt is not None and nxt.kind == "^":
            self._next()
            et = self._expect("INT")
            e = int(et.text)
            if e > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {e} exceeds the limit of {MAX_EXPONENT}", et.line, et.col
                )
            if len(value) > 1 and len(value) ** e > MAX_TERMS:
                raise ParseError(
                    f"power {e} of {len(value)} terms exceeds the limit of {MAX_TERMS} terms",
                    et.line,
                    et.col,
                )
            degree, bits = _degree_and_bits(value)
            if degree * e > MAX_EXPONENT:
                raise ParseError(
                    f"power {e} of degree {degree} has degree {degree * e}, which exceeds "
                    f"the limit of {MAX_EXPONENT}",
                    et.line,
                    et.col,
                )
            if bits * e > MAX_COEFF_BITS:
                raise ParseError(
                    f"power {e} of {bits}-bit coefficients needs up to {bits * e} bits, "
                    f"which exceeds the limit of {MAX_COEFF_BITS}",
                    et.line,
                    et.col,
                )
            value = value**e
        return value


def _degree_and_bits(value: NCPoly | CommPoly) -> tuple[int, int]:
    """The largest word length or total degree of the terms of value, and
    the largest bit length of a numerator or denominator among its rational
    coefficients (prime-field coefficients never grow, so they count 0)."""
    degree = bits = 0
    for key, c in value.terms():
        degree = max(degree, len(key) if isinstance(value, NCPoly) else sum(key))
        if isinstance(c, Fraction):
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return degree, bits


def _parse_with(text: str, symbols: dict, ctx: PolyRing | FreeAlgebra, line: int = 1):
    tokens = _tokenize(text, line)
    return _ExprParser(tokens, symbols, ctx, line).parse()


def parse_nc_poly(text: str, algebra: FreeAlgebra) -> NCPoly:
    """Parse an expression over the algebra's generators and z."""
    names = algebra.letter_names
    symbols = {name: algebra.word((k,)) for k, name in enumerate(names)}
    return _parse_with(text, symbols, algebra)


def parse_comm_poly(text: str, ring: PolyRing) -> CommPoly:
    """Parse an expression over the ring's variables."""
    symbols = {name: ring.gen(k) for k, name in enumerate(ring.names)}
    return _parse_with(text, symbols, ring)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_endo_file(text: str, field: Field | None = None) -> KzEndo:
    """Parse an endomorphism file.

    Optional headers: `vars: x y [...], fixed: z` and `field: q | fp:<p>`.
    Body lines read `name -> expression`, one per generator; with no vars
    header the generators are the left-hand names in file order.  An
    explicit field argument overrides the header.
    """
    header_names: list[str] | None = None
    header_field: Field | None = None
    body: list[tuple[str, str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("vars:"):
            if header_names is not None:
                raise ParseError("duplicate vars header", lineno)
            parts = stripped[5:].split(",")
            names = parts[0].split()
            for extra in parts[1:]:
                bits = extra.split(":")
                if len(bits) != 2 or bits[0].strip() != "fixed" or bits[1].strip() != "z":
                    raise ParseError(
                        f"unrecognized vars header clause {extra.strip()!r}", lineno
                    )
            if not names:
                raise ParseError("vars header lists no generators", lineno)
            for n in names:
                if not _NAME_RE.match(n):
                    raise ParseError(f"invalid generator name {n!r}", lineno)
            if "z" in names:
                raise ParseError("z is the fixed variable and cannot be a generator", lineno)
            if len(set(names)) != len(names):
                raise ParseError("repeated generator in vars header", lineno)
            header_names = names
            continue
        if stripped.startswith("field:"):
            if header_field is not None:
                raise ParseError("duplicate field header", lineno)
            try:
                header_field = field_from_name(stripped[6:].strip())
            except Exception as exc:
                raise ParseError(str(exc), lineno) from None
            continue
        if "->" not in line:
            raise ParseError("expected 'name -> expression'", lineno)
        lhs, rhs = line.split("->", 1)
        name = lhs.strip()
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid generator name {name!r} before '->'", lineno)
        if name == "z":
            raise ParseError("z is fixed and cannot be reassigned", lineno)
        body.append((name, rhs, lineno, len(lhs) + 2))
    if not body:
        raise ParseError("no image lines found", 1)
    seen: dict[str, int] = {}
    for name, _, lineno, _ in body:
        if name in seen:
            raise ParseError(f"duplicate image line for {name!r}", lineno)
        seen[name] = lineno
    names = header_names if header_names is not None else [b[0] for b in body]
    for name, _, lineno, _ in body:
        if name not in names:
            raise ParseError(f"generator {name!r} is not in the vars header", lineno)
    missing = [n for n in names if n not in seen]
    if missing:
        raise ParseError(f"no image line for generator {missing[0]!r}", 1)
    use_field = field if field is not None else (header_field or QQ)
    algebra = FreeAlgebra(use_field, tuple(names))
    symbols = {
        name: algebra.word((k,)) for k, name in enumerate(algebra.letter_names)
    }
    images = {n: algebra.zero for n in names}
    for name, rhs, lineno, col0 in body:
        tokens = _tokenize(rhs, lineno, col0)
        images[name] = _ExprParser(tokens, symbols, algebra, lineno).parse()
    return KzEndo(algebra, [images[n] for n in names])


def format_scalar(c) -> str:
    if isinstance(c, FpElement):
        return str(c.value)
    return str(c)


def format_word(word: Word, names: Sequence[str]) -> str:
    """Letter runs compressed to powers; the empty word prints as ''."""
    bits = []
    k = 0
    while k < len(word):
        run = 1
        while k + run < len(word) and word[k + run] == word[k]:
            run += 1
        name = names[word[k]]
        bits.append(name if run == 1 else f"{name}^{run}")
        k += run
    return " ".join(bits)


def format_monomial(mono: tuple[int, ...], names: Sequence[str]) -> str:
    bits = []
    for k, e in enumerate(mono):
        if e == 1:
            bits.append(names[k])
        elif e > 1:
            bits.append(f"{names[k]}^{e}")
    return " ".join(bits)


def _format_terms(pairs: list[tuple[str, Scalar]]) -> str:
    """Join (body, coefficient) pairs into a signed expression string."""
    if not pairs:
        return "0"
    out = []
    for body, coeff in pairs:
        if isinstance(coeff, FpElement):
            sign = ""
            mag = coeff
        else:
            sign = "-" if coeff < 0 else ""
            mag = -coeff if coeff < 0 else coeff
        if not body:
            piece = format_scalar(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{format_scalar(mag)} {body}"
        if not out:
            out.append(f"-{piece}" if sign else piece)
        else:
            out.append(f" - {piece}" if sign else f" + {piece}")
    return "".join(out)


def format_nc_poly(f: NCPoly) -> str:
    names = f.algebra.letter_names
    return _format_terms([(format_word(w, names), c) for w, c in f.terms()])


def format_comm_poly(p: CommPoly) -> str:
    names = p.ring.names
    return _format_terms([(format_monomial(m, names), c) for m, c in p.terms()])


def format_matrix(m) -> str:
    return "\n".join(
        "[" + ", ".join(format_comm_poly(e) for e in row) + "]" for row in m.entries
    )


def format_endo(endo: KzEndo) -> str:
    names = endo.algebra.xnames
    return "\n".join(
        f"{names[j]} -> {format_nc_poly(endo.images[j])}" for j in range(endo.n)
    )


def format_endo_file(endo: KzEndo) -> str:
    head = "vars: " + " ".join(endo.algebra.xnames) + ", fixed: z"
    return f"{head}\nfield: {endo.algebra.field.name}\n{format_endo(endo)}\n"


def format_factor(f) -> str:
    if isinstance(f, Elem):
        return f"E {f.i} {f.j} {format_comm_poly(f.poly)}"
    if isinstance(f, Diag):
        return "D " + " ".join(format_scalar(u) for u in f.units)
    if isinstance(f, Swap):
        return f"S {f.i} {f.j}"
    raise TypeError(f"not a matrix factor: {f!r}")


def format_transcript(t: Transcript) -> str:
    return "\n".join(format_factor(f) for f in t.factors)


def _parse_scalar_tokens(p: _ExprParser, field: Field):
    sign = 1
    t = p._peek()
    if t is not None and t.kind == "-":
        p._next()
        sign = -1
    it = p._expect("INT")
    num = int(it.text)
    if p._peek() is not None and p._peek().kind == "/":
        p._next()
        dt = p._expect("INT")
        den = int(dt.text)
        if den == 0:
            raise ParseError("zero denominator", dt.line, dt.col)
        return field(Fraction(sign * num, den))
    return field(Fraction(sign * num))


def parse_transcript(text: str, ring: PolyRing, n: int) -> Transcript:
    """Parse factor lines (E/D/S) into a transcript over the given ring."""
    symbols = {name: ring.gen(k) for k, name in enumerate(ring.names)}
    factors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line, lineno)
        p = _ExprParser(tokens, symbols, ring, lineno)
        head = p._expect("NAME")
        if head.text == "E":
            i = int(p._expect("INT").text)
            j = int(p._expect("INT").text)
            poly = p.expr()
            t = p._peek()
            if t is not None:
                raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
            factors.append(Elem(i, j, poly))
        elif head.text == "D":
            units = []
            while p._peek() is not None:
                units.append(_parse_scalar_tokens(p, ring.field))
            if len(units) != n:
                raise ParseError(f"expected {n} diagonal units", lineno)
            factors.append(Diag(tuple(units)))
        elif head.text == "S":
            i = int(p._expect("INT").text)
            j = int(p._expect("INT").text)
            factors.append(Swap(i, j))
        else:
            raise ParseError(f"unknown factor tag {head.text!r}", head.line, head.col)
    return Transcript(ring, n, tuple(factors))


def format_autofactor(f) -> str:
    from .autgroup import ElemAuto, ScaleAuto, SwapAuto

    if isinstance(f, ElemAuto):
        return f"A {f.i} {f.j} ({format_comm_poly(f.a)}) ({format_comm_poly(f.b)})"
    if isinstance(f, ScaleAuto):
        return "AS " + " ".join(format_scalar(u) for u in f.units)
    if isinstance(f, SwapAuto):
        return f"AX {f.i} {f.j}"
    raise TypeError(f"not an automorphism factor: {f!r}")


def format_autofactors(factors) -> str:
    return "\n".join(format_autofactor(f) for f in factors)


def parse_autofactors(text: str, field: Field):
    """Parse automorphism factor lines (A/AS/AX)."""
    from .autgroup import ElemAuto, ScaleAuto, SwapAuto

    ring = PolyRing(field, ("z",))
    symbols = {"z": ring.gen(0)}
    factors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line, lineno)
        p = _ExprParser(tokens, symbols, ring, lineno)
        head = p._expect("NAME")
        if head.text == "A":
            i = int(p._expect("INT").text)
            j = int(p._expect("INT").text)
            p._expect("(")
            a = p.expr()
            p._expect(")")
            p._expect("(")
            b = p.expr()
            p._expect(")")
            t = p._peek()
            if t is not None:
                raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
            factors.append(ElemAuto(i, j, a, b))
        elif head.text == "AS":
            units = []
            while p._peek() is not None:
                units.append(_parse_scalar_tokens(p, field))
            factors.append(ScaleAuto(tuple(units)))
        elif head.text == "AX":
            i = int(p._expect("INT").text)
            j = int(p._expect("INT").text)
            factors.append(SwapAuto(i, j))
        else:
            raise ParseError(f"unknown factor tag {head.text!r}", head.line, head.col)
    return tuple(factors)
