"""Regenerate the reference figures of bench/README.md.

    python3 bench/reference.py

Runs every workload untraced with seeds 1..RUNS and once traced with seed 1,
each through bench/run.py for BENCHMARK.json's run_seconds, then prints as
Markdown: per workload the median of each end-to-end metric with its
quartile spread (the distance between the first and third quartile as a
share of the median), the failed share, the per-layer figures of the traced
run, and the tracing overhead: the traced round's wall time over the median
untraced round's.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

RUNS = 10


def call(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    layers = {}
    for workload in run.WORKLOADS:
        results, rounds = [], []
        for seed in range(1, RUNS + 1):
            result, record = call(workload, seed, seconds, 0)
            results.append(result)
            rounds.append(statistics.median(record["worker"]["round_s"]))
        traced, record = call(workload, 1, seconds, 1)
        layers[workload] = traced["metrics"]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n### {workload}\n")
        print(f"{RUNS} runs of {seconds} s; correct in all: "
              f"{all(r['correct'] for r in results)}; failed share: "
              f"{', '.join(f'{s:.5f}' for s in sorted(shares))} "
              f"({results[0]['failed']} of {results[0]['attempted']} in run 1)\n")
        print("| metric | median | quartile spread |")
        print("|---|---|---|")
        for name, unit in run.END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in results]
            print(f"| `{name}` ({unit}) | {statistics.median(values):.4g} "
                  f"| {spread(values):.3f} |")
        traced_round = record["worker"]["round_s"][0]
        print(f"\nTracing overhead: the traced round took {traced_round:.2f} s, "
              f"the median untraced round {statistics.median(rounds):.2f} s: "
              f"{100 * (traced_round / statistics.median(rounds) - 1):.0f}% more.")
    print("\n### Per-layer figures (traced run, seed 1)\n")
    print("| metric | " + " | ".join(f"`{w}`" for w in run.WORKLOADS) + " |")
    print("|---|" + "---|" * len(run.WORKLOADS))
    for name in run.PER_LAYER:
        cells = []
        for workload in run.WORKLOADS:
            value = layers[workload][name]["value"]
            cells.append(str(value) if name.endswith(".calls") else f"{value:.3f}")
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
