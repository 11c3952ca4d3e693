#!/usr/bin/env python3
"""Reference figures for README.md: spreads over seeds, the shift between
two sets of runs, latency quantiles, per-layer numbers, tracing overhead
and host drift.

    python3 benchmarks/report.py

Every workload runs once per seed of the first set (seeds 1-10), one run
at a time and for BENCHMARK.json's ``run_seconds``, then once per seed of
the second set (11-20), as two sets of runs of the same code are compared.
Then one traced run per workload (seed 1) and DRIFT_S seconds of a fixed
pure-Python loop.  Markdown tables go to standard output; raw results to
.bench_results/report-<time>.json.  It takes about 40 minutes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_results"
WORKLOADS = ("verdict-ext", "span-dim-large", "analyze-cli", "selftest")
SEED_SETS = (range(1, 11), range(11, 21))
TRACE_SEED = 1
DRIFT_S = 60


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    summary = next((json.loads(line[len("summary "):])
                    for line in proc.stderr.splitlines() if line.startswith("summary ")),
                   None)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with exit {proc.returncode}")
    return {"seed": seed, "result": result, "summary": summary}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_table(workload, runs):
    seeds = f"seeds {runs[0]['seed']}-{runs[-1]['seed']}"
    rows = [f"| {workload}, {seeds} | metric | median | Q1 | Q3 | (Q3-Q1)/median | runs |",
            "|---|---|---|---|---|---|---|"]
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        q1, med, q3 = quartiles(values)
        rows.append(f"| | {name} ({unit}) | {statistics.median(values):.4g} | {q1:.4g} | "
                    f"{q3:.4g} | {(q3 - q1) / statistics.median(values):.1%} | {len(values)} |")
    attempted = [r["result"]["attempted"] for r in runs]
    failed = [r["result"]["failed"] for r in runs]
    rows.append(f"| | attempted / failed | {statistics.median(attempted):g} / "
                f"{statistics.median(failed):g} | | | failed share "
                f"{sorted({round(f / a, 6) for f, a in zip(failed, attempted)})} | |")
    return rows


def shift_rows(workload, sets, better):
    """Per metric: the two set medians and how much worse the second is."""
    rows = []
    for name in sets[0][0]["result"]["metrics"]:
        meds = [statistics.median(r["result"]["metrics"][name]["value"] for r in runs)
                for runs in sets]
        worse = (meds[1] - meds[0]) / meds[0]
        if better[name] == "higher":
            worse = -worse
        rows.append(f"| {workload} | {name} | {meds[0]:.4g} | {meds[1]:.4g} | {worse:+.1%} |")
    shares = [{round(r["result"]["failed"] / r["result"]["attempted"], 6) for r in runs}
              for runs in sets]
    rows.append(f"| {workload} | failed share | {sorted(shares[0])} | {sorted(shares[1])} | "
                f"{'equal' if shares[0] == shares[1] else 'DIFFERENT'} |")
    return rows


def latency_row(workload, runs):
    samples = sorted(x for r in runs for x in r["summary"]["op_ms"])
    q1, med, q3 = quartiles(samples)
    p90 = statistics.quantiles(samples, n=10)[-1]
    return (f"| {workload} | {len(samples)} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
            f"{p90:.4g} | {samples[-1]:.4g} |")


def drift(seconds):
    """Throughput of a fixed pure-Python loop in one-second windows."""
    rates = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        window = time.perf_counter() + 1.0
        loops = 0
        start = time.perf_counter()
        while time.perf_counter() < window:
            acc = 0
            for i in range(20000):
                acc += i * i % 7
            loops += 1
        rates.append(loops / (time.perf_counter() - start))
    med = statistics.median(rates)
    q1, _, q3 = quartiles(rates)
    return {"windows": len(rates), "median": med, "min": min(rates), "max": max(rates),
            "iqr_share": (q3 - q1) / med,
            "range_share": (max(rates) - min(rates)) / med}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    report = {"seeds": [list(seeds) for seeds in SEED_SETS], "seconds": seconds,
              "runs": {w: [[], []] for w in WORKLOADS}, "traced": {}}
    for k, seeds in enumerate(SEED_SETS):
        for workload in WORKLOADS:
            for seed in seeds:
                report["runs"][workload][k].append(run(workload, seed, seconds, 0))
                print(f"{workload} seed {seed}: " + json.dumps(
                    {m: round(v["value"], 4) for m, v in
                     report["runs"][workload][k][-1]["result"]["metrics"].items()}),
                    file=sys.stderr, flush=True)
    for workload in WORKLOADS:
        report["traced"][workload] = run(workload, TRACE_SEED, seconds, 1)
    report["drift"] = drift(DRIFT_S)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"report-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")

    for workload in WORKLOADS:
        for runs in report["runs"][workload]:
            print("\n".join(spread_table(workload, runs)))
            print()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    print("| workload | metric | first set median | second set median | second worse by |")
    print("|---|---|---|---|---|")
    for workload in WORKLOADS:
        print("\n".join(shift_rows(workload, report["runs"][workload], better)))
    print()
    print("| workload | operations | median ms | Q1 | Q3 | p90 | max |")
    print("|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        print(latency_row(workload, [r for runs in report["runs"][workload] for r in runs]))
    names = list(report["traced"][WORKLOADS[0]]["result"]["metrics"])
    print()
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---|" + "---|" * len(WORKLOADS))
    for name in names:
        cells = [f"{report['traced'][w]['result']['metrics'][name]['value']:.4g}"
                 for w in WORKLOADS]
        print(f"| {name} | " + " | ".join(cells) + " |")
    print()
    print("drift: " + json.dumps({k: round(v, 4) for k, v in report["drift"].items()}))
    print(f"\nraw results: {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
