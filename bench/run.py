"""conetube benchmark: one workload per call, figures as JSON on the last line.

    python3 bench/run.py --workload desk_analyze --seed 1 --seconds 25 --trace 0

Each workload runs in fresh interpreters (bench/worker.py) with one BLAS
thread. With --trace 0 the command prints the end-to-end metrics: setup_s is
the median of SETUPS fresh set-ups, the others come from one process that
runs whole rounds of ops for --seconds (see worker.measure). With --trace 1
it runs one traced round and prints the per-layer metrics; spans go to
bench/out/. Every run writes its full record, with the machine and library
versions, to bench/out/. Exits 1 if an output is wrong, 2 if the program
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("desk_analyze", "orbit_census", "large_rank_analyze")
SETUPS = 5  # odd: the median is one of them
# a worker may run one round past --seconds; the slowest round and set-up
# take under 20 s on a 2-core virtual machine
WORKER_MARGIN_S = 60
# More BLAS threads do not speed up these small matrices here, and threads
# that outnumber free cores make timings swing by several times.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "algebra.multiplication_table.s", "fields.gl_omega_span.s", "fields.self.s",
    "linalg.svd.calls", "linalg.svd.s",
    "tube.levi_kernel.calls", "tube.levi_kernel.s", "tube.levi_form.calls",
    "tube.nondegeneracy_order.s", "tube.beta_map.calls",
    "numpy.einsum.calls", "numpy.einsum.s", "tube.self.s",
    "tube.make_orbit.s", "tube.minimality_check.s", "spectral.joint_peirce.s",
    "spectral.spectral_decompose.calls", "spectral.spectral_decompose.s",
    "spectral.orbit_signature.s", "spectral.self.s",
    "algebra.jordan_product.calls", "algebra.jordan_product.s",
    "algebra.pquad.calls", "algebra.pquad.s", "algebra.lmul.calls",
    "algebra.as_element.calls", "algebra.self.s",
    "cli.self.s", "serialize.dumps_canonical.s",
)


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: BLAS_THREADS for var in THREAD_VARS}}


def worker(args, mode: str) -> dict:
    env = dict(os.environ, **{var: BLAS_THREADS for var in THREAD_VARS})
    timeout = args.seconds + WORKER_MARGIN_S
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def run(args) -> tuple[dict, dict]:
    """(record, result line) for one call of the benchmark."""
    if not (ROOT / "src" / "conetube" / "__init__.py").is_file():
        raise BenchError(f"no conetube sources under {ROOT / 'src'}")
    if args.trace:
        main = worker(args, "trace")
        missing = [m for m in PER_LAYER if m not in main["layers"]]
        if missing:
            raise BenchError(f"traced run lacks {missing}")
        metrics = {m: {"value": main["layers"][m],
                       "unit": "count" if m.endswith(".calls") else "s"}
                   for m in PER_LAYER}
        setups = [main["setup_s"]]
    else:
        # set-ups before and after the timed run sample the machine at more moments
        before = [worker(args, "setup") for _ in range(SETUPS // 2)]
        main = worker(args, "run")
        after = [worker(args, "setup") for _ in range(SETUPS // 2)]
        setups = [w["setup_s"] for w in before + [main] + after]
        values = dict(main, setup_s=statistics.median(setups))
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
    result = {"correct": main["incorrect"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "machine": dict(machine(), numpy=main["numpy"], blas=main["blas"]),
              "setups_s": setups, "worker": main, "result": result}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("machine " + json.dumps(record["machine"]))
    for example in record["worker"]["incorrect_examples"]:
        print(f"incorrect: {example}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
