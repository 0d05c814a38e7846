"""Self-tests of the benchmark: seeded generation, the correctness oracle
behind failed_frac, and span tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import corpus  # noqa: E402
import workloads  # noqa: E402
from freeaut import autgroup, matgroup, parser  # noqa: E402
from freeaut.autgroup import ElemAuto  # noqa: E402
from oracle import Oracle  # noqa: E402
from run import _betainc, hd_quantile, ops_per_s, tail_ops, tail_rank  # noqa: E402
from tracing import Tracer  # noqa: E402


def _item(kind: str, n: int, field: str, count: int, tag: str = "t") -> corpus.Item:
    return corpus.build(random.Random(tag), tag, kind, n, field, count, maxdeg=1, maxterms=1)


def _altered(factors):
    """The same certificate with one elementary factor's a(z) changed."""
    k = next(k for k, f in enumerate(factors) if isinstance(f, ElemAuto))
    f = factors[k]
    return factors[:k] + (replace(f, a=f.a + f.a.ring.one),) + factors[k + 1 :]


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    for workload in ("decide2_deep", "gln_fp", "cli_batch"):
        a, b, c = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b", tmp_path / f"{workload}-c"
        corpus.write_corpus(workload, 5, 1, a)
        corpus.write_corpus(workload, 5, 1, b)
        corpus.write_corpus(workload, 6, 1, c)
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
        assert (a / "truth.jsonl").read_bytes() != (c / "truth.jsonl").read_bytes()


def test_generated_text_parses_to_the_constructed_jacobian():
    for kind, n, field in [("tame", 3, "fp"), ("wild", 2, "q"), ("not_automorphism", 4, "fp")]:
        item = _item(kind, n, field, 5, tag=kind)
        endo = parser.parse_endo_file(item.text)
        jac = workloads.jacobian.jacobian_linear(endo)
        o = Oracle(item)
        assert o.jacobian(jac) is None
        assert o.det_value(jac.det()) is None
        assert matgroup.is_gl(jac) == (kind != "not_automorphism")


def test_decide2_check_accepts_right_answers():
    for kind in ("tame", "wild"):
        item = _item(kind, 2, "q", 8, tag=f"d2{kind}")
        out = workloads.decide2_op(item)
        assert workloads.decide2_check(item, out)[0] is None


def test_altered_certificate_factor_is_failed():
    item = _item("tame", 2, "q", 8, tag="alter")
    out = workloads.decide2_op(item)
    assert out["verdict"] == "tame"
    bad = {**out, "factors": _altered(out["factors"])}
    reason, _ = workloads.decide2_check(item, bad)
    assert reason == "certificate does not reproduce the input"


def test_wrong_verdict_is_failed():
    item = _item("tame", 2, "q", 8, tag="verdict")
    out = workloads.decide2_op(item)
    reason, _ = workloads.decide2_check(item, {**out, "verdict": "wild", "factors": None})
    assert reason == "verdict wild on a tame input"

    bad_input = _item("not_automorphism", 3, "fp", 5, tag="na")
    out = workloads.gln_op(bad_input)
    assert workloads.gln_check(bad_input, out)[0] is None
    reason, _ = workloads.gln_check(bad_input, {**out, "verdict": "tame"})
    assert reason == "verdict tame on a not_automorphism input"
    reason, _ = workloads.gln_check(bad_input, {**out, "automorphism": True})
    assert reason == "automorphism=True on a not_automorphism input"


def test_wrong_inverse_is_failed():
    item = _item("tame", 3, "fp", 6, tag="inverse")
    out = workloads.gln_op(item)
    assert workloads.gln_check(item, out)[0] is None
    endo = parser.parse_endo_file(item.text)
    wrong = autgroup.factors_to_endo(endo.algebra, _altered(autgroup.is_tame(endo).factors))
    reason, _ = workloads.gln_check(item, {**out, "inverse": autgroup.invert_linear(wrong)})
    assert reason == "inverse does not invert the input"


def test_cli_output_is_checked(tmp_path):
    calls = [c for c in corpus.cli_cycle(3, 0) if c.items[0].kind != "not_automorphism"]
    argvs = workloads.cli_prepare(calls, tmp_path)
    seen = set()
    for call, argv in zip(calls, argvs):
        out = workloads.cli_op(argv)
        assert workloads.cli_check(call, out)[0] is None, (call.command, out)
        if call.command == "tame" and out["code"] == 0 and call.command not in seen:
            seen.add(call.command)
            lines = out["stdout"].splitlines()
            item = call.items[0]
            field = workloads.field_from_name(item.field)
            factors = _altered(parser.parse_autofactors("\n".join(lines[1:]), field))
            tampered = "\n".join([lines[0], parser.format_autofactors(factors)]) + "\n"
            reason, _ = workloads.cli_check(call, {**out, "stdout": tampered})
            assert reason == "certificate does not reproduce the input"
            reason, _ = workloads.cli_check(call, {**out, "code": 3})
            assert reason is not None
    assert seen == {"tame"}


def test_traced_self_times_add_up_and_uninstall_restores():
    original = autgroup.is_tame
    tracer = Tracer()
    tracer.install()
    try:
        assert autgroup.is_tame is not original
        for k, kind in enumerate(("tame", "wild")):
            item = _item(kind, 2, "q", 8, tag=f"trace{kind}")
            root = tracer.begin_op(str(k), "op")
            workloads.decide2_op(item)
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    assert autgroup.is_tame is original
    assert workloads.autgroup.is_tame is original
    totals, gap = tracer.self_times()
    assert gap < 1e-6
    assert totals["matgroup.det"] > 0 and totals["autgroup.is_tame"] > 0
    assert tracer.counts["matgroup.is_gl.calls"] >= 4
    assert tracer.counts["commpoly.mul.term_pairs"] >= tracer.counts["commpoly.mul.calls"]


def test_tail_keeps_ten_samples_above():
    assert [tail_ops(p) for p in (75.0, 90.0, 98.0)] == [40, 100, 500]
    for p in (75.0, 90.0, 98.0):
        n = tail_ops(p)
        assert n - tail_rank(n, p) == 10


def test_betainc_known_values():
    assert abs(_betainc(1.0, 1.0, 0.3) - 0.3) < 1e-12
    assert abs(_betainc(7.5, 7.5, 0.5) - 0.5) < 1e-12
    # I_x(a, 1) = x^a
    assert abs(_betainc(3.5, 1.0, 0.8) - 0.8**3.5) < 1e-12
    assert _betainc(2.0, 3.0, 0.0) == 0.0 and _betainc(2.0, 3.0, 1.0) == 1.0


def test_hd_quantile_tracks_the_percentile():
    assert abs(hd_quantile([7.0] * 40, 75.0) - 7.0) < 1e-9
    xs = [float(i) for i in range(1, 102)]
    random.Random(1).shuffle(xs)
    assert abs(hd_quantile(xs, 50.0) - 51.0) < 1e-6
    qs = [hd_quantile(xs, p) for p in (10.0, 50.0, 75.0, 90.0, 98.0)]
    assert qs == sorted(qs) and min(xs) < qs[0] and qs[-1] < max(xs)
    # Two clusters with the nearest rank of p50 at their edge: the estimate
    # lies between them instead of on either.
    q = hd_quantile([10.0] * 50 + [20.0] * 50, 50.0)
    assert 12.0 < q < 18.0


def test_ops_per_s_leaves_out_two_percent_at_each_end():
    rows = [{"latency_ms": 10.0} for _ in range(98)] + [{"latency_ms": 1.0}, {"latency_ms": 1e4}]
    assert abs(ops_per_s(rows) - 100.0) < 1e-9
