"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from conetube import algebra as al  # noqa: E402
from conetube.spectral import Signature  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_to_its_end_at_tiny_size(name):
    ops = workloads.make_ops(name, seed=3)
    tiny = sorted(ops, key=lambda op: op.algebra.dim)[:4]
    summary = worker.measure(tiny, 0.0)
    assert summary["attempted"] == 4 and summary["ops_per_round"] == 4
    assert summary["failed"] == 0 and summary["incorrect"] == 0
    assert 0 < summary["op_p50_ms"] <= summary["op_p90_ms"]


def test_inputs_follow_the_seed():
    first, again, other = (workloads.make_ops("orbit_census", s) for s in (5, 5, 6))
    assert all(a.label == b.label and (a.element == b.element).all()
               for a, b in zip(first, again))
    assert any((a.element != b.element).any() for a, b in zip(first, other))
    assert len(first) == len(other)


def _analyze(family, rank, p, q):
    algebra = al.make_algebra(family, rank)
    op = workloads.Op("test", algebra, p, q, argv=workloads.analyze_argv(algebra, p, q))
    return op, workloads.run_op(op)


def _edited(outcome, **changes):
    code, text, err = outcome
    report = json.loads(text)
    report.update(changes)
    return code, json.dumps(report), err


def test_census_check_rejects_a_flipped_signature():
    algebra = al.make_algebra("hermR", 3)
    op = workloads.Op("test", algebra, 2, 1, element=al.unit(algebra))
    assert workloads.check(op, Signature(2, 1)) is None
    assert "signature" in workloads.check(op, Signature(1, 2))


def test_analyze_check_accepts_the_program_output():
    for family, rank, p, q in (("hermR", 3, 0, 0), ("hermR", 3, 1, 1), ("hermC", 2, 2, 0)):
        op, outcome = _analyze(family, rank, p, q)
        assert not workloads.failed(op, outcome)
        assert workloads.check(op, outcome) is None


def test_analyze_check_rejects_an_off_by_one_kernel_dimension():
    op, outcome = _analyze("hermR", 3, 1, 1)
    report = json.loads(outcome[1])
    bad = _edited(outcome, levi_kernel_dim=report["levi_kernel_dim"] + 1)
    assert "levi_kernel_dim" in workloads.check(op, bad)


def test_analyze_check_rejects_a_wrong_order():
    op, outcome = _analyze("hermR", 3, 1, 0)
    assert "nondegeneracy_order" in workloads.check(op, _edited(outcome, nondegeneracy_order=3))
    assert "minimal" in workloads.check(op, _edited(outcome, minimal=1))


def test_analyze_check_rejects_bare_nan():
    op, (code, text, err) = _analyze("hermR", 3, 1, 0)
    for token in ("nan", "NaN", "Infinity"):
        bad = text.replace('"crdim":3', f'"crdim":{token}')
        assert bad != text
        assert "strict JSON" in workloads.check(op, (code, bad, err))


def test_typed_errors_count_as_failed():
    op, _ = _analyze("hermR", 3, 1, 0)
    assert workloads.failed(op, (3, "", "numerical failure: x"))
    assert not workloads.failed(op, (1, "", "Traceback"))
    assert "exit code 1" in workloads.check(op, (1, "", "Traceback"))

    ops = workloads.make_ops("orbit_census", seed=1)
    passing, known = ops[0], ops[-1]
    assert known.may_fail and not passing.may_fail
    summary = worker.measure([passing, known], 0.0)
    assert (summary["attempted"], summary["failed"], summary["incorrect"]) == (2, 1, 0)
    unexpected = dataclasses.replace(known, may_fail=False)
    summary = worker.measure([passing, unexpected], 0.0)
    assert (summary["attempted"], summary["failed"], summary["incorrect"]) == (2, 1, 1)
    assert "no failure is expected" in summary["incorrect_examples"][0]


def test_declared_workloads_and_metrics_match_the_command():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "orbit_census",
             "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in DECLARED[key]}
        assert printed == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit_census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
