#!/usr/bin/env python3
"""Compare two result sets, or calibrate the end-to-end bounds.

    python3 benchmarks/e2e/compare.py A B
    python3 benchmarks/e2e/compare.py --calibrate [--sets 2] [--out DIR]

``A`` and ``B`` are directories of untraced ``run.py`` results (one JSON
per workload and seed) taken with the same window.  The comparison
prints a metric × workload table of medians against ``BENCHMARK.json``'s
bounds and exits 1 when any pair got worse than its bound, when B fails
a larger share of its requests than A, when any run failed a check or
was invalid, or when a seed's ``plan_quality`` dropped by more than
:data:`PAIRED_BOUNDS` allows.  ``plan_quality`` is fixed by the seed
(the same requests, deterministic solves), so it is also compared seed
by seed, where its seed-to-seed spread does not hide a loss.

``--calibrate`` runs every workload once per seed 1..10, ``--sets``
times over, and measures two spreads per metric and workload: the
seed spread, the distance between the first and third quartile of one
set's ten values as a share of their median (the larger over the sets),
and the set drift, how far the medians of the sets lie apart as a
share of the smallest.  A bound must hold the set drift, and three
times the seed spread, so that the seed spread stays below a third of
it.  Each bound becomes the larger of its starting bound and those,
capped at :data:`MAX_BOUND`; ``setup_s`` gets the largest bound.  A
metric that would need more than the cap is reported, not widened:
lengthen its workload or drop it.  Bounds go into ``BENCHMARK.json``,
the spreads into ``calibration.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
CALIBRATION = HERE / "calibration.json"

MAX_BOUND = 0.25
CALIBRATION_SEEDS = 10
#: Starting bounds; calibration only ever raises them.
STARTING_BOUNDS = {
    "latency_p50_ms": 0.10, "latency_p90_ms": 0.15,
    "throughput_rps": 0.10, "setup_s": 0.20, "server_rss_mb": 0.10,
    "plan_quality": 0.005,
}
#: Metrics fixed by the seed, compared seed by seed at these bounds.
PAIRED_BOUNDS = {"plan_quality": 0.005}


def load_set(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced results in ``directory``, grouped by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "metrics" in data and not data.get("trace"):
            runs.setdefault(data["workload"], []).append(data)
    return runs


def values(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def spread(vals: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else math.inf


def drift(medians: List[float]) -> float:
    """How far ``medians`` lie apart, as a share of the smallest."""
    low = min(medians)
    return (max(medians) - low) / low if low else math.inf


def loss(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (NaN and
    infinities count as infinitely worse)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    change = (b - a) / a if a else 0.0
    return change if better == "lower" else -change


def _failed_share(runs: List[Dict[str, Any]]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def _window(runs: Dict[str, List[Dict[str, Any]]]) -> set:
    return {(r["seconds"], r["smoke"]) for rs in runs.values() for r in rs}


def compare(a: Path, b: Path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    runs_a, runs_b = load_set(a), load_set(b)
    windows = _window(runs_a) | _window(runs_b)
    if len(windows) > 1:
        print(f"compare.py: the sets mix windows (seconds, smoke) {sorted(windows)}; "
              f"compare results taken with the same window", file=sys.stderr)
        return 2
    bad = 0
    print(f"{'workload':14s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in (x["name"] for x in spec["workloads"]):
        if w not in runs_a or w not in runs_b:
            print(f"{w:14s} (missing from {'A' if w not in runs_a else 'B'})")
            bad += 1
            continue
        for side, runs in (("A", runs_a[w]), ("B", runs_b[w])):
            for r in runs:
                if not r["correct"] or not r.get("valid", True):
                    print(f"{w:14s} seed {r['seed']} in {side}: "
                          f"{'failed a check' if not r['correct'] else 'invalid'}")
                    bad += 1
        fa, fb = _failed_share(runs_a[w]), _failed_share(runs_b[w])
        verdict = "worse" if fb > fa else "ok"
        bad += verdict == "worse"
        print(f"{w:14s} {'failed share':16s} {fa:12.5g} {fb:12.5g} {'':>8s} {0:6.3f}  {verdict}")
        for m in spec["end_to_end"]:
            va, vb = values(runs_a[w], m["name"]), values(runs_b[w], m["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = loss(ma, mb, m["better"])
            verdict = "worse" if not worse <= m["bound"] else "ok"
            bad += verdict == "worse"
            change = (mb - ma) / ma if ma and math.isfinite(ma) and math.isfinite(mb) else math.nan
            print(f"{w:14s} {m['name']:16s} {ma:12.5g} {mb:12.5g} {change:+8.2%} "
                  f"{m['bound']:6.3f}  {verdict}")
            paired = _paired_loss(runs_a[w], runs_b[w], m["name"], m["better"])
            if m["name"] in PAIRED_BOUNDS and paired is not None:
                verdict = "worse" if not paired <= PAIRED_BOUNDS[m["name"]] else "ok"
                bad += verdict == "worse"
                print(f"{w:14s} {m['name'] + ' /seed':16s} {'':>12s} {'':>12s} "
                      f"{-paired:+8.2%} {PAIRED_BOUNDS[m['name']]:6.3f}  {verdict}")
    return 1 if bad else 0


def _paired_loss(runs_a: List[Dict[str, Any]], runs_b: List[Dict[str, Any]],
                 metric: str, better: str) -> Optional[float]:
    """The worst loss of ``metric`` over the seeds both sets ran."""
    by_seed = {r["seed"]: r["metrics"][metric]["value"] for r in runs_a}
    losses = [loss(by_seed[r["seed"]], r["metrics"][metric]["value"], better)
              for r in runs_b if r["seed"] in by_seed]
    return max(losses) if losses else None


def calibrate(out: Path, sets: int) -> int:
    spec = json.loads(BENCHMARK.read_text())
    started = time.monotonic()
    set_runs = []
    for k in range(sets):
        directory = out / f"set{k + 1}"
        directory.mkdir(parents=True, exist_ok=True)
        for w in (x["name"] for x in spec["workloads"]):
            for seed in range(1, CALIBRATION_SEEDS + 1):
                t0 = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w,
                     "--seed", str(seed), "--out", str(directory)],
                    cwd=ROOT, capture_output=True, text=True)
                print(f"set {k + 1} {w} seed {seed}: exit {proc.returncode} in "
                      f"{time.monotonic() - t0:.1f}s", flush=True)
                if proc.returncode != 0:
                    print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                    return 1
        set_runs.append(load_set(directory))
    seed_spread: Dict[str, Dict[str, float]] = {}
    set_drift: Dict[str, Dict[str, float]] = {}
    bounds: Dict[str, float] = {}
    too_noisy = []
    for m in spec["end_to_end"]:
        name = m["name"]
        seed_spread[name], set_drift[name] = {}, {}
        for w in set_runs[0]:
            per_set = [values(runs[w], name) for runs in set_runs]
            seed_spread[name][w] = max(spread(v) for v in per_set)
            set_drift[name][w] = drift([statistics.median(v) for v in per_set])
        needed = max(max(3.0 * s for s in seed_spread[name].values()),
                     max(set_drift[name].values()))
        bound = max(STARTING_BOUNDS.get(name, m["bound"]), needed)
        if bound > MAX_BOUND and name != "setup_s":
            too_noisy.append(name)
        bounds[name] = min(MAX_BOUND, math.ceil(bound * 1000) / 1000)
    bounds["setup_s"] = max(bounds.values())
    for m in spec["end_to_end"]:
        m["bound"] = bounds[m["name"]]
    BENCHMARK.write_text(_dump_benchmark(spec))
    CALIBRATION.write_text(json.dumps({
        "seeds": list(range(1, CALIBRATION_SEEDS + 1)),
        "sets": sets,
        "run_seconds": spec["run_seconds"],
        "elapsed_s": round(time.monotonic() - started, 1),
        "seed_spread": seed_spread,
        "set_drift": set_drift,
        "medians": {
            m["name"]: {w: [statistics.median(values(runs[w], m["name"])) for runs in set_runs]
                        for w in set_runs[0]}
            for m in spec["end_to_end"]
        },
        "bounds": bounds,
    }, indent=2) + "\n")
    for name in seed_spread:
        cells = "  ".join(f"{w}={seed_spread[name][w]:.3f}/{set_drift[name][w]:.3f}"
                          for w in seed_spread[name])
        print(f"{name:16s} bound {bounds[name]:.3f}  seed spread/set drift {cells}")
    for name in too_noisy:
        print(f"TOO NOISY: {name} needs a bound over {MAX_BOUND}", file=sys.stderr)
    return 1 if too_noisy else 0


def _dump_benchmark(spec: Dict[str, Any]) -> str:
    """BENCHMARK.json with one line per list entry, as it is kept."""
    lines = ["{"]
    keys = list(spec)
    for i, key in enumerate(keys):
        value = spec[key]
        end = "," if i < len(keys) - 1 else ""
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"  {json.dumps(key)}: [")
            lines.extend(f"    {json.dumps(v)}" + ("," if j < len(value) - 1 else "")
                         for j, v in enumerate(value))
            lines.append(f"  ]{end}")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}{end}")
    return "\n".join(lines + ["}"]) + "\n"


def main(argv: List[str] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sets", nargs="*", type=Path, help="result directories A and B")
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--sets", dest="n_sets", type=int, default=2,
                   help="repeated sets of seeds 1..10 to calibrate from")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if args.calibrate:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        return calibrate(args.out or HERE / "runs" / f"calibrate-{stamp}", args.n_sets)
    if len(args.sets) != 2:
        p.error("give two result directories, or --calibrate")
    return compare(*args.sets)


if __name__ == "__main__":
    sys.exit(main())
