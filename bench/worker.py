"""Run one workload in a fresh interpreter and print its figures as JSON.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up, report setup_s, stop), `run` (set up, then run
whole rounds of the workload's ops until SECONDS have passed) or `trace`
(set up and run exactly one round with every layer traced). The ops run in
a closed loop: one caller, each op starting when the previous one returned.
bench/run.py starts this script; the last stdout line is the result.
"""

import time

T0 = time.perf_counter()  # setup_s runs from here: imports count as set-up

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (imports conetube)


def measure(ops, seconds, tracer=None) -> dict:
    """Run whole rounds of `ops` until `seconds` have passed (at least one).

    The timed phase is the rounds' op loops; each round's outputs are checked
    after its loop. ops_per_s is the ops that did not fail over the wall time
    of the timed phase. op_p50_ms and op_p90_ms are taken over the latency of
    every op that did not fail, in every round. A failed op is incorrect too
    unless its input is one the workload names as failing.
    """
    latencies_ms, round_s, failed, incorrect = [], [], set(), []
    n_failed = 0
    start = time.perf_counter()
    while True:
        outcomes, times = [], []
        begun = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = len(round_s) * len(ops) + i
            t = time.perf_counter()
            outcomes.append(workloads.run_op(op))
            times.append(time.perf_counter() - t)
        round_s.append(time.perf_counter() - begun)
        for op, outcome, t in zip(ops, outcomes, times):
            if workloads.failed(op, outcome):
                n_failed += 1
                failed.add(op.label)
                if not op.may_fail:
                    incorrect.append(f"{op.label}: failed, but no failure is expected here "
                                     f"({workloads.failure_text(outcome)})")
                continue
            latencies_ms.append(1000.0 * t)
            problem = workloads.check(op, outcome)
            if problem is not None:
                incorrect.append(problem)
        if time.perf_counter() - start >= seconds:
            break
    if not latencies_ms:
        raise RuntimeError(f"every op failed; first: {incorrect[:1]}")
    return {
        "attempted": len(round_s) * len(ops),
        "failed": n_failed,
        "failed_inputs": sorted(failed),
        "incorrect": len(incorrect),
        "incorrect_examples": incorrect[:5],
        "ops_per_round": len(ops),
        "round_s": round_s,
        "ops_per_s": len(latencies_ms) / sum(round_s),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": (statistics.quantiles(latencies_ms, n=10)[-1]
                      if len(latencies_ms) > 1 else latencies_ms[0]),
    }


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import conetube
    if Path(conetube.__file__).resolve().parent != SRC / "conetube":
        print(f"conetube imported from {conetube.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workloads.setup(workload)
    result = {"setup_s": time.perf_counter() - T0}
    if mode != "setup":
        if tracer is not None:
            tracer.enabled = False
        ops = workloads.make_ops(workload, seed)  # input generation is not timed
        if tracer is not None:
            tracer.enabled = True
        result.update(measure(ops, seconds if mode == "run" else 0.0, tracer))
        if tracer is not None:
            tracer.enabled = False
            result["layers"] = tracer.metrics()
            out = BENCH / "out"
            out.mkdir(exist_ok=True)
            path = out / f"{workload}-seed{seed}-spans.npz"
            tracer.save(path)
            result["spans_file"] = str(path.relative_to(BENCH.parent))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    result["blas"] = blas_name()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
