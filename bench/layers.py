"""Write ``bench/layers.json``: the layer-interaction table with measured
shares, the environment, and a one-off reproduction of ROADMAP's baseline.

    python3 bench/layers.py --seed 1

The table says which end-to-end metric each per-layer metric should move,
and on which workload.  Each row carries the layer's measured share of op
time (self time over traced op time) on those workloads, from one traced run
of every workload (``run.py --trace 1``).  The baseline times single calls
of the library, once each, next to the figures ROADMAP quotes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import gen
import run

OUT = run.BENCH / "layers.json"
ALL = sorted(run.WORKLOADS)

# (per-layer metric, end-to-end metrics it should move, workloads, note)
TABLE = [
    ("decision.forbidden_scan.self_s", ["items_per_s", "latency_p50_s", "latency_tail_s"], ["diagnose-star"],
     "visits all C(n,4) quads of a US space; near zero on diagnose-reject"),
    ("spaces.validate.self_s", ["items_per_s", "latency_p50_s", "latency_tail_s"], ["diagnose-reject", "diagnose-star"],
     "dominant on diagnose-reject (accepting and rejecting path), second on diagnose-star"),
    ("spaces.validate.calls", ["latency_p50_s"], ["diagnose-star", "diagnose-reject"],
     "2 calls per US op (diagnose and star_from_center)"),
    ("decision.find_center.self_s", ["latency_p50_s"], ["diagnose-reject"], "rejects every candidate"),
    ("stars.center_condition_violation.calls", ["latency_p50_s"], ["diagnose-reject"], "candidates tried"),
    ("similarity.classify_forbidden.self_s", ["latency_p50_s"], ["diagnose-reject"], "once per FORBIDDEN op"),
    ("stars.star_from_center.self_s", ["latency_p50_s"], ["diagnose-star"], ""),
    ("stars.star_to_dot.self_s", ["latency_p50_s"], ["diagnose-star"], "ops with --dot"),
    ("fileio.parse_space_file.self_s", ["latency_p50_s", "latency_tail_s"], ["diagnose-reject"], "grows with n^2"),
    ("spaces.FiniteMetricSpace.self_s", ["latency_p50_s", "items_per_s"], ["diagnose-reject", "campaign"],
     "one large space per diagnose op; thousands of 4-point ones per campaign op"),
    ("spaces.restrict.self_s", ["items_per_s"], ["campaign"], "one per quad"),
    ("spaces.spectrum.self_s", ["items_per_s"], ["campaign"], "recomputed for the models on every weakly_similar"),
    ("similarity.weakly_similar.self_s", ["items_per_s"], ["campaign"], ""),
    ("similarity.weakly_similar.found_frac", ["items_per_s"], ["campaign"], "useful outcomes per search"),
    ("similarity.rank_matrix.self_s", ["items_per_s"], ["campaign"], ""),
    ("diametrical.classify_four_point.self_s", ["items_per_s"], ["campaign"], ""),
    ("decision.embeds_in_dplus.self_s", ["items_per_s"], ["campaign"], "k13 statement iii"),
    ("lab.sample_dendrogram.self_s", ["items_per_s"], ["campaign"], "space generation"),
    ("lab.run_campaign.self_s", ["items_per_s", "latency_p50_s"], ["campaign"],
     "campaign loop and exhaustive enumeration"),
    ("cli.main.self_s", ["latency_p50_s"], ALL, "argparse and JSON emission"),
]

ROADMAP = {
    "validate_n64_s": 0.46,
    "validate_n128_s": 2.8,
    "forbidden_scan_star_n64_s": 8.3,
    "campaign_ms_per_space": 15.0,
    "cold_start_s": 0.25,
}


def traced(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],  # a traced run has a fixed number of rounds
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"{workload}: traced run had {report['failed']} failed ops")
    return {name: m["value"] for name, m in report["metrics"].items()}


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit.stdout.strip() or None,
    }


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def baseline(seed: int) -> dict:
    from starmetric import FiniteMetricSpace, lab
    from starmetric.decision import forbidden_scan
    from starmetric.spaces import validate

    rng = random.Random(seed)
    ultra = {n: FiniteMetricSpace(*gen.forbidden_space(rng, n, late=False)) for n in (64, 128)}
    star = FiniteMetricSpace(*gen.star_space(rng, 64, hub_first=True))
    per_space = []
    for which in ("k112", "k13"):
        spec = lab.GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=seed, count=100)
        per_space.append(timed(lab.run_campaign, spec, which) / spec.count * 1000)
    setup, _, _ = run.cold_starts(run.COLD_STARTS)
    return {
        "validate_n64_s": timed(validate, ultra[64]),
        "validate_n128_s": timed(validate, ultra[128]),
        "forbidden_scan_star_n64_s": timed(forbidden_scan, star),
        "campaign_ms_per_space": statistics.mean(per_space),
        "cold_start_s": statistics.median(setup),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    measured = {w: traced(w, args.seed) for w in ALL}
    share = {w: run.shares(values) for w, values in measured.items()}
    table = []
    for metric, moves, workloads, note in TABLE:
        layer = metric.rsplit(".", 1)[0]
        row = {"layer_metric": metric, "moves": moves, "workloads": workloads, "note": note}
        row["share_of_op_time"] = {w: round(share[w].get(layer, 0.0), 4) for w in workloads}
        row["value"] = {w: measured[w][metric] for w in workloads}
        table.append(row)
    reproduced = baseline(args.seed)
    record = {
        "how": f"python3 bench/layers.py --seed {args.seed}",
        "environment": environment(),
        "table": table,
        "top_layers": {w: {k: round(v, 4) for k, v in list(s.items())[:6]} for w, s in share.items()},
        "trace_overhead_frac": {w: measured[w]["trace.overhead_frac"] for w in ALL},
        "baseline": {k: {"roadmap": ROADMAP[k], "measured": round(v, 4)} for k, v in reproduced.items()},
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
