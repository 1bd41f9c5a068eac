"""Seeded end-to-end benchmark of the starmetric command line.

    python3 bench/run.py --workload diagnose-star --seed 1 --seconds 30 --trace 0
    for w in diagnose-star diagnose-reject campaign; do python3 bench/run.py --workload $w --seed 1 --seconds 30; done

Run from a checkout of the repository: the program is imported from
``src/``.  An op is one CLI invocation made in-process through
``starmetric.cli.main(argv)`` on a warm interpreter, with stdout and stderr
captured.  One client runs ops in a closed loop, whole rounds of the
workload's ops until ``--seconds`` have passed.  Every input is generated from ``--seed`` and the op's position and
written to a file under ``.bench_work/``, so no input repeats within a run.
Every output is checked by ``check.py``; a wrong exit code, a wrong output
or an exception counts as a failed op.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
over every op's time divided by the slowdown of the host around it (see
``scaled``): items (spaces diagnosed, or campaign instances checked) per
second, the median op time, and the op time at the highest percentile with
at least ten ops beyond it.  Besides: the cold start of a fresh ``python -m
starmetric dplus 1`` (median of several, each scaled the same way) and the
peak RSS of the op-running process.  The lines above it give the unscaled
figures, the failed fraction and the median time of each op class (the ops
of one ``Op`` value, which do the same work on inputs of the same shape).

With ``--trace 1`` the workload runs ``TRACE_ROUNDS`` rounds untraced and as
many with ``spans.Tracer`` installed, alternating, on inputs of the same
shapes, and the last line reports per-function calls and self time, the
weak-similarity found fraction and the tracing overhead.  The number of
rounds is fixed, so ``.calls`` repeat exactly for a seed whatever
``--seconds`` is.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import check
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COLD_STARTS = 15
TAIL_BEYOND = 10
TRACE_ROUNDS = 8


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a diagnose on a generated space or a campaign."""

    kind: str  # "star" | "forbidden" | "nonultra" | "sample" | "exhaustive"
    n: int
    variant: str = ""  # hub "first"/"last", 4-cycle "early"/"late", or the conjecture
    fmt: str = "json"
    dot: bool = False
    count: int = 0


def _star(n, hub, fmt, dot=False):
    return Op("star", n, hub, fmt, dot)


# One round of each workload: its ops in order, repeated in whole rounds.
WORKLOADS = {
    # US spaces: forbidden_scan visits all C(n,4) quads and validate runs
    # twice.  A third of the ops each at n = 24, 30 and 36, so the median
    # op lies in the middle of the n = 30 ops and the tail op among the
    # n = 36 ones.
    "diagnose-star": (
        _star(24, "first", "json", True),
        _star(36, "last", "csv"),
        _star(30, "last", "json"),
        _star(24, "last", "csv"),
        _star(36, "first", "json", True),
        _star(30, "first", "csv", True),
    ),
    # FORBIDDEN spaces, the first 4-cycle early or late in point order, and
    # a quarter non-ultrametric ones that stop in validate with a full
    # metric re-check.
    "diagnose-reject": (
        Op("forbidden", 48, "early", "json"),
        Op("forbidden", 48, "late", "csv"),
        Op("nonultra", 48, fmt="json"),
        Op("forbidden", 48, "late", "json"),
    ),
    # Sampled n = 8 campaigns, k13 and k112 alternating (the median op),
    # and an exhaustive n = 5 k13 campaign over 3 seeded letters, 358
    # spaces (the tail op).
    "campaign": (
        Op("sample", 8, "k13", count=12),
        Op("sample", 8, "k112", count=12),
        Op("sample", 8, "k13", count=12),
        Op("sample", 8, "k112", count=12),
        Op("exhaustive", 5, "k13"),
    ),
}


def alphabet(rng: random.Random, k: int) -> list[str]:
    return [gen.rational_text(v, rng.random() < 0.5) for v in gen.distinct_rationals(rng, k)]


def prepare(op: Op, rng: random.Random, path: Path, op_seed: int):
    """Write the op's input, return (argv, items, check) with ``check``
    taking (rc, stdout, stderr)."""
    if op.kind in ("sample", "exhaustive"):
        letters = alphabet(rng, 4 if op.kind == "sample" else 3)
        argv = ["conjecture", "--which", op.variant, "--n", str(op.n), "--alphabet", ",".join(letters)]
        if op.kind == "sample":
            argv += ["--mode", "sample", "--seed", str(op_seed), "--count", str(op.count)]
            expected = check.campaign_report(op.variant, "sample", op.n, letters, op_seed, op.count, op.count)
            items = op.count
        else:
            items = check.count_ultrametrics(op.n, len(letters))
            expected = check.campaign_report(op.variant, "exhaustive", op.n, letters, 0, None, items)
        return argv, items, lambda rc, out, err: check.same_report(expected, rc, out, err)
    if op.kind == "star":
        points, rows = gen.star_space(rng, op.n, op.variant == "first")
    else:
        points, rows = gen.forbidden_space(rng, op.n, op.variant == "late")
        if op.kind == "nonultra":
            rows = gen.raise_diameter_entry(rng, rows)
    path = path.with_suffix("." + op.fmt)
    path.write_text(gen.space_text(points, rows, op.fmt, rng.random() < 0.5))
    argv = ["diagnose", str(path)] + (["--dot"] if op.dot else [])
    if op.kind == "star":
        verdict = lambda rc, out, err: check.us_verdict(points, rows, op.dot, rc, out, err)
    elif op.kind == "forbidden":
        verdict = lambda rc, out, err: check.forbidden_verdict(points, rows, rc, out, err)
    else:
        verdict = lambda rc, out, err: check.not_ultrametric(points, rows, rc, out, err)
    return argv, 1, verdict


@dataclass
class Result:
    op: Op
    seconds: float
    items: int
    error: str | None
    slowdown: float = 1.0  # reference() time around the op over REFERENCE_S


# A 16-point exact matrix for the reference computation.
_REF_ROWS = [[Fraction(max(i, j) % 7 + 1, 1 + (i * j) % 3) if i != j else Fraction(0) for j in range(16)]
             for i in range(16)]
# reference() time, lower decile over a run, on the 2-vCPU Xeon VM that defined the benchmark
REFERENCE_S = 0.008


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation shaped like the
    program's inner loops: strong-triangle checks over all triples, diameter
    tests over quads, and rank tables, on exact rationals.  It is timed
    before and after every op to measure how fast the host runs at the time.
    """
    rows, n = _REF_ROWS, len(_REF_ROWS)
    start = time.perf_counter()
    hits = 0
    for a in range(n):
        row_a = rows[a]
        for b in range(n):
            dab, row_b = row_a[b], rows[b]
            for c in range(n):
                bound = dab if dab >= row_b[c] else row_b[c]
                hits += row_a[c] > bound
    for quad in combinations(range(10), 4):
        values = [rows[i][j] for i, j in combinations(quad, 2)]
        top = max(values)
        hits += sum(v < top for v in values)
    for k in range(100):
        hits += len({v: i for i, v in enumerate(sorted(set(rows[k % n])))})
    return time.perf_counter() - start


def run_op(cli, op: Op, seed: int, pass_id: int, index: int, work: Path) -> Result:
    rng = random.Random(f"{seed}:{pass_id}:{index}")
    op_seed = seed * 100_000 + pass_id * 50_000 + index
    argv, items, verdict = prepare(op, rng, work / f"op{index}", op_seed)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # any crash of the program is a failed op, reported below
        error = f"raised {exc!r}"
    seconds = time.perf_counter() - start
    if error is None:
        try:
            error = verdict(rc, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            error = f"unreadable output: {exc!r}"
    for leftover in work.iterdir():
        leftover.unlink()
    if error is not None:
        print(f"FAILED {op} argv={argv}: {error}", file=sys.stderr)
    return Result(op, seconds, items, error)


def run_round(cli, ops: tuple[Op, ...], seed: int, pass_id: int, first_index: int, work: Path) -> list[Result]:
    """One round of ops, numbered from ``first_index``; reference() runs
    before the first op and after every op."""
    results: list[Result] = []
    refs = [reference()]
    for i, op in enumerate(ops):
        results.append(run_op(cli, op, seed, pass_id, first_index + i, work))
        refs.append(reference())
    for i, r in enumerate(results):
        r.slowdown = (refs[i] + refs[i + 1]) / (2 * REFERENCE_S)
    return results


def cold_starts(count: int) -> tuple[list[float], list[float], int]:
    """Wall times of fresh ``python -m starmetric dplus 1`` processes (after
    one unmeasured warm-up), the slowdown that reference() shows around each,
    and how many gave wrong output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    expected = json.dumps({"points": ["1"], "dist": [["0"]]}, indent=2) + "\n"
    times, slowdowns, failed = [], [], 0
    ref = reference()
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "starmetric", "dplus", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout != expected:
            failed += 1
            print(f"FAILED cold start: exit {proc.returncode}, stderr {proc.stderr[:200]!r}", file=sys.stderr)
        ref, before = reference(), ref
        if i:
            times.append(elapsed)
            slowdowns.append((before + ref) / (2 * REFERENCE_S))
    return times, slowdowns, failed


def scaled(results: list[Result]) -> list[float]:
    """Each op's time divided by the slowdown of the host around it.

    On a shared host, co-tenants slow ops by up to 2x, in bursts of seconds
    and in spells that cover whole runs.  On the 2-vCPU Xeon VM that defined
    the benchmark, dividing each op's time by the reference() time around it
    halved the run-to-run spread of diagnose-star's op times.
    """
    return [r.seconds / r.slowdown for r in results]


def by_class(results: list[Result], times: list[float]) -> dict[Op, list[float]]:
    classes: dict[Op, list[float]] = {}
    for r, t in zip(results, times):
        classes.setdefault(r.op, []).append(t)
    return classes


def tail(times: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least TAIL_BEYOND ops beyond
    it, and that percentile."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(cli, ops: tuple[Op, ...], seed: int, seconds: float, work: Path):
    results: list[Result] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        results += run_round(cli, ops, seed, 0, len(results), work)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup, setup_slowdowns, setup_failed = cold_starts(COLD_STARTS)
    items = sum(r.items for r in results)
    raw = [r.seconds for r in results]
    times = scaled(results)
    tail_s, tail_pct = tail(times)
    for op, op_times in sorted(by_class(results, times).items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# class {op}: {len(op_times)} ops, median {statistics.median(op_times):.5g} s")
    failed = sum(r.error is not None for r in results) + setup_failed
    attempted = len(results) + COLD_STARTS + 1
    metrics = {
        "items_per_s": (items / sum(times), "1/s"),
        "latency_p50_s": (statistics.median(times), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(t / k for t, k in zip(setup, setup_slowdowns)), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    print(f"# {len(results)} ops, tail at p{tail_pct:.1f}; "
          f"unscaled: items_per_s {items / sum(raw):.5g}, latency_p50_s {statistics.median(raw):.5g}, "
          f"latency_tail_s {tail(raw)[0]:.5g}")
    print(f"# failed_frac {failed / attempted:.4f} ({failed} of {attempted} ops and cold starts)")
    return metrics, attempted, failed


def shares(values: dict[str, float]) -> dict[str, float]:
    """Each traced function's self time over traced op time, largest first.
    Every op is one ``cli.main`` span and every other span nests in one, so
    the self times add up to the traced op time."""
    self_s = {name[: -len(".self_s")]: v for name, v in values.items() if name.endswith(".self_s")}
    total = sum(self_s.values())
    return {name: v / total for name, v in sorted(self_s.items(), key=lambda kv: -kv[1])}


def class_total(results: list[Result]) -> float:
    """Sum over op classes of the class's ops times their median scaled time."""
    return sum(len(t) * statistics.median(t) for t in by_class(results, scaled(results)).values())


def per_layer(cli, ops: tuple[Op, ...], seed: int, work: Path):
    plain: list[Result] = []
    traced: list[Result] = []
    tracer = spans.Tracer()
    for _ in range(TRACE_ROUNDS):
        plain += run_round(cli, ops, seed, 0, len(plain), work)
        tracer.install()
        try:
            traced += run_round(cli, ops, seed, 1, len(traced), work)
        finally:
            tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_frac"] = class_total(traced) / class_total(plain) - 1
    units = {"calls": "count", "self_s": "s", "found_frac": "frac", "overhead_frac": "frac"}
    metrics = {name: (values[name], units[name.rsplit(".", 1)[1]]) for name in spans.layer_metric_names()}
    top = list(shares(values).items())[:6]
    print("# self-time share of traced op time: " + ", ".join(f"{name} {s:.3f}" for name, s in top))
    results = plain + traced
    failed = sum(r.error is not None for r in results)
    return metrics, len(results), failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "starmetric" / "__init__.py").is_file():
        print(f"error: {SRC / 'starmetric'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from starmetric import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported starmetric from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload}, seed {args.seed}, python {platform.python_version()}, nproc {os.cpu_count()}")
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload]
        if args.trace:
            metrics, attempted, failed = per_layer(cli, ops, args.seed, work)
        else:
            metrics, attempted, failed = end_to_end(cli, ops, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
