"""freeaut benchmark: run one workload from a seed, check every answer, and
print every metric by name and unit.

    python3 perfbench/run.py --workload decide2_deep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; freeaut is imported from ./src.
The load is a closed loop with one client in one process: each op starts
after the previous op's check has finished.  Ops run in cycles over the
workload's fixed input mix (see corpus.py), and a run ends at the first
cycle boundary after --seconds of op time.

--trace 0 measures the end-to-end metrics on unmodified code.  --trace 1
spends half the time untraced and half with span wrappers installed
(tracing.py) on the same inputs, and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  A result file with the environment,
every metric and one row per op is written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("decide2_deep", "gln_fp", "cli_batch")
SETUP_REPEATS = 9
# Each cycle's inputs are timed PASSES times, seconds apart; an op's latency
# is its fastest pass.  The library workloads take one pass: their figures
# spread mostly with the inputs a seed draws, so a run is better spent on
# more distinct inputs than on repeating them.
PASSES = {"decide2_deep": 1, "gln_fp": 1, "cli_batch": 3}
# The tail percentile of each workload: the highest that keeps at least
# TAIL_MIN_ABOVE samples above it at --seconds 30 or more, fixed so that every run
# reports the same percentile.  A run goes on until it has enough ops.
TAIL_PERCENTILE = {"decide2_deep": 75.0, "gln_fp": 90.0, "cli_batch": 98.0}
TAIL_MIN_ABOVE = 10
# ops_per_s is a trimmed mean: a few gln_fp inputs per seed take 20-50 times
# their class's median, and in a plain mean they swing the figure by seed
# alone.  op_tail_ms reports the slow end.
THROUGHPUT_TRIM = 0.02
# How often, at most, the harness moves to the least loaded CPU.
PIN_INTERVAL_S = 0.25
# The probe's time on an unloaded CPU of the reference machine (2-vCPU
# Intel Xeon VM, CPython 3.11): latencies scaled by PROBE_REF_MS / probe
# read as milliseconds on that machine.
PROBE_REF_MS = 1.0
# The end-to-end metrics of the JSON line (BENCHMARK.json's end_to_end).
# failed_frac and undecided_frac are printed above it and kept in the result
# file; they can read 0, so the line carries failures as "failed" and
# decisions as decided_frac.
REPORTED_E2E = ("ops_per_s_ref", "op_p50_ms_ref", "op_tail_ms_ref", "decided_frac", "setup_s", "peak_rss_mib")


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import freeaut, freeaut.cli; print(time.perf_counter() - t)"
)


# ----------------------------------------------------------------------------
# Environment


def git_tree_id(path: Path) -> str:
    """The git tree id of a directory's files, computed without git, so a
    plain source checkout reports the same id as `git rev-parse HEAD:<dir>`
    on a clean tree.  __pycache__ and .pyc files are skipped."""
    entries = []
    for child in path.iterdir():
        if child.name == "__pycache__" or child.suffix == ".pyc":
            continue
        if child.is_dir():
            entries.append((child.name + "/", b"40000", bytes.fromhex(git_tree_id(child))))
        else:
            data = child.read_bytes()
            mode = b"100755" if os.access(child, os.X_OK) else b"100644"
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            entries.append((child.name, mode, blob))
    entries.sort(key=lambda e: e[0])
    body = b"".join(
        mode + b" " + name.rstrip("/").encode() + b"\0" + digest for name, mode, digest in entries
    )
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, trace: int, seconds: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "src_freeaut_tree": git_tree_id(SRC / "freeaut"),
    }


# ----------------------------------------------------------------------------
# Measurement


def measure_setup(cpus: list[int]) -> tuple[float, float]:
    """Median time to import freeaut and freeaut.cli in a fresh interpreter,
    as measured and scaled to the reference probe time.  The interpreter
    inherits the CPU this process was just pinned to."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe = pin_fastest_cpu(cpus)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            cwd=ROOT,
        )
        times.append(float(proc.stdout.strip()))
        scaled.append(times[-1] * PROBE_REF_MS / (probe * 1e3))
    return statistics.median(times), statistics.median(scaled)


def tail_rank(n: int, percentile: float) -> int:
    """1-based nearest rank of a percentile among n sorted samples."""
    return max(1, math.ceil(percentile * n / 100))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (Lentz's method)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def hd_quantile(values: list[float], percentile: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of all
    order statistics.  It reads the same percentile as the nearest rank but
    with a much smaller spread between runs when the latencies form clusters
    (one per input size), where a single order statistic jumps between
    neighbouring clusters."""
    xs = sorted(values)
    n = len(xs)
    p = percentile / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail_ops(percentile: float) -> int:
    """The fewest samples that leave TAIL_MIN_ABOVE above the percentile."""
    n = TAIL_MIN_ABOVE
    while n - tail_rank(n, percentile) < TAIL_MIN_ABOVE:
        n += 1
    return n


def _probe() -> float:
    """Time a fixed ~2 ms loop of the dict and Fraction work freeaut does."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(1, 200):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    return time.perf_counter() - t0


def pin_fastest_cpu(cpus: list[int]) -> float:
    """Pin this process to the CPU on which the probe runs fastest, and
    return that probe time.

    On a shared host each vCPU is slowed by other tenants' load, by up to
    2x and for seconds at a time, and not always both at once; measuring on
    the currently faster one keeps that load out of the figures.
    """
    if not cpus:
        return min(_probe(), _probe())
    best = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(_probe(), _probe())
    fastest = min(best, key=best.get)
    os.sched_setaffinity(0, {fastest})
    return best[fastest]


class Runner:
    """One workload's cycles: inputs, the timed op and the untimed check."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import corpus
        import workloads

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.corpus = corpus
        self.workloads = workloads
        self.op, self.check = workloads.WORKLOADS[workload]
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.pinned_at = -math.inf
        self.probes: list[float] = []

    @staticmethod
    def settle() -> None:
        """Collect garbage and freeze the harness's own objects out of later
        collections, so collections inside an op only scan what it allocates."""
        gc.collect()
        gc.freeze()

    def cycle(self, cycle: int) -> list[tuple]:
        """[(op id, op input, check subject, row fields, root span name)]."""
        entries = self.corpus.cycle_items(self.workload, self.seed, cycle)
        if self.workload == "cli_batch":
            argvs = self.workloads.cli_prepare(entries, self.workdir)
            return [
                (
                    c.items[0].id,
                    argv,
                    c,
                    {**c.items[0].truth(), "command": c.command},
                    f"cli.{c.command}",
                )
                for c, argv in zip(entries, argvs)
            ]
        return [(it.id, it, it, it.truth(), "op") for it in entries]

    @staticmethod
    def verdict(out) -> str:
        if "code" in out:
            return f"exit {out['code']}"
        return out["verdict"]

    def _timed(self, inp, tracer, op_id: str, span: str) -> tuple[float, tuple]:
        """(latency, (output, error)) of one op; self.probes[-1] is the
        probe time of the CPU it ran on."""
        if time.perf_counter() - self.pinned_at > PIN_INTERVAL_S:
            self.probes.append(pin_fastest_cpu(self.cpus))
            self.pinned_at = time.perf_counter()
        root = tracer.begin_op(op_id, span) if tracer else None
        t0 = time.perf_counter()
        try:
            out = self.op(inp), None
        except Exception as exc:  # an op that raises counts as failed
            out = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            tracer.end_op(root)
        return t1 - t0, out

    def phase(self, seconds: float, passes: int, tracer=None) -> list[dict]:
        """Time whole cycles of fresh inputs until seconds / passes of op
        time have passed and the tail percentile has TAIL_MIN_ABOVE samples
        above it, checking each answer; then run the same cycles passes - 1
        more times.  An op's latency is its fastest pass, and the
        passes lie seconds apart, so a burst of load from other processes on
        the machine seldom covers all of them.  Returns one row per op."""
        rows: list[dict] = []
        plan: list[tuple[int, int]] = []
        busy = 0.0
        cycle = 0
        min_ops = tail_ops(TAIL_PERCENTILE[self.workload])
        while busy < seconds / passes or len(rows) < min_ops:
            entries = self.cycle(cycle)
            if cycle == 0:
                self.op(entries[0][1])  # warm-up, untimed
            self.settle()
            timed = []
            for k, (op_id, inp, _, _, span) in enumerate(entries):
                latency, out = self._timed(inp, tracer, f"{op_id}#{len(rows) + k}", span)
                timed.append((latency, out, self.probes[-1]))
                busy += timed[-1][0]
            plan.append((len(rows), cycle))
            for (_, _, subject, fields, _), (latency, (out, error), probe) in zip(entries, timed):
                undecided = False
                if error is None:
                    try:
                        error, undecided = self.check(subject, out)
                    except Exception as exc:
                        error = f"output check raised {type(exc).__name__}: {exc}"
                rows.append(
                    {
                        **fields,
                        "workload": self.workload,
                        "cycle": cycle,
                        "latency_ms": latency * 1e3,
                        "ref_ms": latency * 1e3 * PROBE_REF_MS / (probe * 1e3),
                        "verdict": self.verdict(out) if out is not None else "error",
                        "undecided": undecided,
                        "failure": error,
                        "traced": tracer is not None,
                    }
                )
            cycle += 1
        for _ in range(passes - 1):
            for base, cycle in plan:
                # Inputs are drawn again rather than kept, so the harness's
                # memory does not grow with the number of ops.
                entries = self.cycle(cycle)
                self.settle()
                for k, (op_id, inp, _, _, span) in enumerate(entries):
                    latency, _ = self._timed(inp, None, op_id, span)
                    row = rows[base + k]
                    row["latency_ms"] = min(row["latency_ms"], latency * 1e3)
                    ref = latency * 1e3 * PROBE_REF_MS / (self.probes[-1] * 1e3)
                    row["ref_ms"] = min(row["ref_ms"], ref)
        return rows


def ops_per_s(rows: list[dict], key: str = "latency_ms") -> float:
    """Ops per second of op time over whole cycles of the fixed input mix,
    leaving out the fastest and the slowest THROUGHPUT_TRIM of ops."""
    lat = sorted(r[key] for r in rows)
    k = int(len(lat) * THROUGHPUT_TRIM)
    kept = lat[k : len(lat) - k]
    return 1e3 * len(kept) / sum(kept)


def latency_metrics(rows: list[dict], key: str, suffix: str) -> dict:
    lat = [r[key] for r in rows]
    n = len(rows)
    pct = TAIL_PERCENTILE[rows[0]["workload"]]
    value = hd_quantile(lat, pct)
    return {
        f"ops_per_s{suffix}": {"value": ops_per_s(rows, key), "unit": "1/s"},
        f"op_p50_ms{suffix}": {"value": hd_quantile(lat, 50.0), "unit": "ms"},
        f"op_tail_ms{suffix}": {
            "value": value,
            "unit": "ms",
            "percentile": pct,
            "samples": n,
            "samples_above": sum(1 for x in lat if x > value),
        },
    }


def end_to_end(rows: list[dict]) -> dict:
    n = len(rows)
    undecided = sum(r["undecided"] for r in rows) / n
    return {
        **latency_metrics(rows, "latency_ms", ""),
        **latency_metrics(rows, "ref_ms", "_ref"),
        "failed_frac": {"value": sum(r["failure"] is not None for r in rows) / n, "unit": "frac"},
        "undecided_frac": {"value": undecided, "unit": "frac"},
        "decided_frac": {"value": 1.0 - undecided, "unit": "frac"},
    }


COMMANDS = ("jacobian", "check", "tame", "decompose", "abelianize", "stabilize", "invert", "compose")
EXIT_CODES = (0, 1, 3, 4, 5)
SELF_TIMES = (
    "parser.parse_endo_file",
    "jacobian.jacobian_linear",
    "jacobian.abelianize_endo",
    "matgroup.is_gl",
    "matgroup.det",
    "matgroup.adjugate",
    "matgroup.ge2_decide",
    "matgroup.stabilize3",
    "matgroup.verify_transcript",
    "matgroup.gl2_univariate_decompose",
    "matgroup.eliminate",
    "autgroup.is_tame",
    "autgroup.stable_tame",
    "autgroup.invert_linear",
    "autgroup.transcript_to_autofactors",
    "autgroup.factors_to_endo",
    "freealg.KzEndo.compose",
)


def per_layer(tracer, rows: list[dict], untraced_ops_per_s: float, traced_ops_per_s: float) -> tuple[dict, float]:
    totals, gap = tracer.self_times()
    c, mx = tracer.counts, tracer.maxima
    ops = len(rows)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (totals.get(name, 0.0) / ops, "s/op")
    m["parser.format.self_s"] = (totals.get("parser.format", 0.0) / ops, "s/op")
    m["parser.input_bytes"] = (ratio(c["parser.input_bytes"], c["parser.inputs"]), "B")
    m["jacobian.entry_terms_max"] = (mx["jacobian.entry_terms_max"], "count")
    m["jacobian.entry_degree_max"] = (mx["jacobian.entry_degree_max"], "count")
    m["matgroup.is_gl.calls_per_op"] = (c["matgroup.is_gl.calls"] / ops, "count/op")
    m["matgroup.stabilize3.found_frac"] = (
        ratio(c["matgroup.stabilize3.found"], c["matgroup.stabilize3.calls"]),
        "frac",
    )
    m["matgroup.transcript_len"] = (
        ratio(c["matgroup.transcript_factors"], c["matgroup.transcripts"]),
        "count",
    )
    m["autgroup.certificate_factors"] = (
        ratio(c["autgroup.certificate_factors"], c["autgroup.certificates"]),
        "count",
    )
    m["autgroup.explicit_frac"] = (
        ratio(c["autgroup.tame_n3_explicit"], c["autgroup.tame_n3_calls"]),
        "frac",
    )
    m["freealg.nc_terms_max"] = (mx["freealg.nc_terms_max"], "count")
    m["commpoly.mul.calls_per_op"] = (c["commpoly.mul.calls"] / ops, "count/op")
    m["commpoly.mul.term_pairs_per_op"] = (c["commpoly.mul.term_pairs"] / ops, "count/op")
    m["scalars.coeff_bits_max"] = (mx["scalars.coeff_bits_max"], "bit")
    for cmd in COMMANDS:
        calls = sum(1 for r in rows if r.get("command") == cmd)
        m[f"cli.{cmd}.self_s"] = (ratio(totals.get(f"cli.{cmd}", 0.0), calls), "s/call")
    for code in EXIT_CODES:
        m[f"cli.exit_code.{code}"] = (sum(1 for r in rows if r["verdict"] == f"exit {code}"), "count")
    m["trace.ops_per_s"] = (traced_ops_per_s, "1/s")
    m["trace.overhead_ops_per_s"] = (untraced_ops_per_s - traced_ops_per_s, "1/s")
    m["trace.overhead_frac"] = (1.0 - traced_ops_per_s / untraced_ops_per_s, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, gap


# ----------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="freeaut benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "freeaut" / "__init__.py").is_file():
        print(f"error: freeaut sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))

    env = environment(args.workload, args.seed, args.trace, args.seconds)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir)

    result: dict = {"environment": env}
    if args.trace == 0:
        setup_raw_s, setup_s = measure_setup(runner.cpus)
        rows = runner.phase(args.seconds, PASSES[args.workload])
        e2e = end_to_end(rows)
        e2e["setup_s"] = {"value": setup_s, "unit": "s"}
        e2e["setup_raw_s"] = {"value": setup_raw_s, "unit": "s"}
        e2e["peak_rss_mib"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        }
        result["end_to_end"] = e2e
        reported = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in REPORTED_E2E}
        shown = e2e
    else:
        from tracing import Tracer

        plain_rows = runner.phase(args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced_rows = runner.phase(args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        rows = plain_rows + traced_rows
        layers, gap = per_layer(
            tracer,
            traced_rows,
            ops_per_s(plain_rows),
            ops_per_s(traced_rows),
        )
        if gap > 1e-6:
            raise SystemExit(f"span self times do not add up to op durations (gap {gap:.3g} s)")
        result["per_layer"] = layers
        result["trace_self_sum_gap_s"] = gap
        result["end_to_end_untraced"] = end_to_end(plain_rows)
        reported = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}
        shown = layers

    # The probe's speed on the chosen CPU: how loaded the machine was.
    env["cpu_probe_ms_median"] = statistics.median(runner.probes) * 1e3 if runner.probes else None
    failures = [r for r in rows if r["failure"] is not None]
    result["failures"] = [{"id": r["id"], "failure": r["failure"]} for r in failures]
    result["rows"] = rows
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {len(rows)}")
    for name, m in shown.items():
        extra = ""
        if name.startswith("op_tail_ms"):
            extra = f"  (p{m['percentile']:g} of {m['samples']} ops, {m['samples_above']} above)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{extra}")
    for r in failures:
        print(f"  FAILED {r['id']}: {r['failure']}")
    print(f"  result file: {out_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(rows),
                "failed": len(failures),
                "metrics": reported,
            }
        )
    )
    return 0



if __name__ == "__main__":
    sys.exit(main())
