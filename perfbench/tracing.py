"""Span tracing of freeaut's layers from outside the program.

install() replaces public functions of freeaut's modules with wrappers that
record a span (name, start, end, parent, op id) per call.  A function is
replaced under every name that refers to it in any freeaut module, so calls
made inside cli.main or autgroup.is_tame through their imported names are
seen too.  Wrappers record only while an op is open, keep spans in memory,
and are removed by uninstall().  Only the traced run installs them; the
untraced run calls unmodified code.

Counters (calls, kernel term pairs, sizes) are taken at the same call
boundaries and reported per op or as maxima.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import freeaut
from freeaut import autgroup, cli, commpoly, freealg, jacobian, matgroup, parser

MODULES = (freeaut, autgroup, cli, commpoly, freealg, jacobian, matgroup, parser)

# (module, function, span name).  All format_* functions share one span name.
FUNCTIONS = [
    (parser, "parse_endo_file", "parser.parse_endo_file"),
    *(
        (parser, name, "parser.format")
        for name in (
            "format_autofactor",
            "format_autofactors",
            "format_comm_poly",
            "format_endo_file",
            "format_factor",
            "format_matrix",
            "format_transcript",
        )
    ),
    (jacobian, "jacobian_linear", "jacobian.jacobian_linear"),
    (jacobian, "abelianize_endo", "jacobian.abelianize_endo"),
    (matgroup, "is_gl", "matgroup.is_gl"),
    (matgroup, "ge2_decide", "matgroup.ge2_decide"),
    (matgroup, "stabilize3", "matgroup.stabilize3"),
    (matgroup, "verify_transcript", "matgroup.verify_transcript"),
    (matgroup, "gl2_univariate_decompose", "matgroup.gl2_univariate_decompose"),
    # Private, but it is the whole n >= 3 tameness search (is_tame, the
    # CLI's decompose and the last step of stabilize3).
    (matgroup, "_eliminate", "matgroup.eliminate"),
    (autgroup, "is_automorphism_linear", "autgroup.is_automorphism_linear"),
    (autgroup, "is_tame", "autgroup.is_tame"),
    (autgroup, "stable_tame", "autgroup.stable_tame"),
    (autgroup, "invert_linear", "autgroup.invert_linear"),
    (autgroup, "transcript_to_autofactors", "autgroup.transcript_to_autofactors"),
    (autgroup, "factors_to_endo", "autgroup.factors_to_endo"),
    (autgroup, "abelianized_tame_decomposition", "autgroup.abelianized_tame_decomposition"),
]

METHODS = [
    (matgroup.PolyMatrix, "det", "matgroup.det"),
    (matgroup.PolyMatrix, "adjugate", "matgroup.adjugate"),
    (freealg.KzEndo, "compose", "freealg.KzEndo.compose"),
]

# A det call inside one of these spans is a minor of a larger determinant
# or of the adjugate, and belongs to that span's own time.
_DET_PARENTS = ("matgroup.det", "matgroup.adjugate")


def _coeff_bits(c) -> int:
    value = getattr(c, "value", None)
    if value is not None:
        return value.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # Each span: [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: str, name: str) -> int:
        self.op = op_id
        return self.open(name)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = None

    def wrap(self, fn, name: str):
        tracer = self
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name == "matgroup.det" and tracer.stack:
                if tracer.spans[tracer.stack[-1]][0] in _DET_PARENTS:
                    return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at the wrapped boundaries ----------------------------------

    def _note_max(self, key: str, value) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def _note_matrix(self, m) -> None:
        for row in m.entries:
            for e in row:
                self._note_max("jacobian.entry_terms_max", len(e._terms))
                self._note_max("jacobian.entry_degree_max", e.total_degree())
                for _, c in e.terms():
                    self._note_max("scalars.coeff_bits_max", _coeff_bits(c))

    def _note_certificate(self, factors) -> None:
        self.counts["autgroup.certificates"] += 1
        self.counts["autgroup.certificate_factors"] += len(factors)
        for f in factors:
            for poly in (getattr(f, "a", None), getattr(f, "b", None)):
                if poly is not None:
                    for _, c in poly.terms():
                        self._note_max("scalars.coeff_bits_max", _coeff_bits(c))
            for u in getattr(f, "units", ()):
                self._note_max("scalars.coeff_bits_max", _coeff_bits(u))

    def _note_transcript(self, t) -> None:
        self.counts["matgroup.transcripts"] += 1
        self.counts["matgroup.transcript_factors"] += len(t.factors)

    def _note_endo(self, endo) -> None:
        for image in endo.images:
            self._note_max("freealg.nc_terms_max", len(image._terms))

    def _post_parser_parse_endo_file(self, args, result) -> None:
        self.counts["parser.input_bytes"] += len(args[0].encode())
        self.counts["parser.inputs"] += 1
        self._note_endo(result)

    def _post_jacobian_jacobian_linear(self, args, result) -> None:
        self._note_matrix(result)

    def _post_matgroup_is_gl(self, args, result) -> None:
        self.counts["matgroup.is_gl.calls"] += 1

    def _post_matgroup_ge2_decide(self, args, result) -> None:
        if isinstance(result, matgroup.Tame):
            self._note_transcript(result.transcript)

    def _post_matgroup_gl2_univariate_decompose(self, args, result) -> None:
        self._note_transcript(result)

    def _post_matgroup_eliminate(self, args, result) -> None:
        if result is not None:
            self._note_transcript(result)

    def _post_matgroup_stabilize3(self, args, result) -> None:
        self.counts["matgroup.stabilize3.calls"] += 1
        if result is not None:
            self.counts["matgroup.stabilize3.found"] += 1
            self._note_transcript(result)

    def _post_autgroup_is_tame(self, args, result) -> None:
        if args[0].n >= 3:
            self.counts["autgroup.tame_n3_calls"] += 1
            if result.kind == "tame":
                self.counts["autgroup.tame_n3_explicit"] += 1
        if result.kind == "tame":
            self._note_certificate(result.factors)

    def _post_autgroup_stable_tame(self, args, result) -> None:
        if result is not None:
            self._note_certificate(result[1])

    def _post_freealg_KzEndo_compose(self, args, result) -> None:
        self._note_endo(result)

    # -- installation -------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            original = getattr(module, attr)
            self._replace(original, self.wrap(original, name))
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, name))
            self._undo.append((cls, attr, original))
        mul = commpoly.CommPoly.__dict__["__mul__"]
        tracer = self

        def counted_mul(a, b):
            if tracer.op is not None:
                tracer.counts["commpoly.mul.calls"] += 1
                other = len(b._terms) if isinstance(b, commpoly.CommPoly) else 1
                tracer.counts["commpoly.mul.term_pairs"] += len(a._terms) * other
            return mul(a, b)

        for attr in ("__mul__", "__rmul__"):
            self._undo.append((commpoly.CommPoly, attr, commpoly.CommPoly.__dict__[attr]))
            setattr(commpoly.CommPoly, attr, counted_mul)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Total self time per span name, and the largest per-op gap between
        the sum of self times and the op's root span duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        per_op: dict[str, float] = defaultdict(float)
        root: dict[str, float] = {}
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child[k]
            totals[name] += own
            per_op[op] += own
            if parent is None:
                root[op] = end - start
        gap = max((abs(per_op[op] - d) for op, d in root.items()), default=0.0)
        return dict(totals), gap
