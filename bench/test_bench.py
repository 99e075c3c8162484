"""Tests of the benchmark's own code: the reference, the counts, the gate.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from sosdw import closed_form, contour, sampling, yb_algebra  # noqa: E402


def _draw(L, seed):
    return sampling.draw_model(random.Random(seed), L,
                               routes=("algebra", "permutation", "residue"))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_reference_matches_brute_force(L):
    for seed in (L, 100 + L):
        params, lams = _draw(L, seed)
        dp = reference.permutation_reference(params, lams)
        brute = reference.brute_force_reference(params, lams)
        with reference.mpmath.workdps(reference.DPS):
            assert abs(dp - brute) / abs(brute) < reference.mpmath.mpf("1e-40")


@pytest.mark.parametrize("L", [2, 4, 6, 8])
def test_reference_matches_float_routes(L):
    params, lams = _draw(L, 7 * L)
    ref = reference.permutation_reference(params, lams)
    for route in (closed_form.partition_permutation_sum,
                  contour.partition_residue, yb_algebra.partition_algebraic):
        assert reference.relative_error(route(params, lams), ref) < 1e-8


def _traced_counts(workload, job):
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.job = "j"
        values, _ = harness.run_in_process(workload, job)
    finally:
        uninstall()
    return values, dict(tracer.counts["j"])


@pytest.mark.parametrize("name, expected", [
    ("crosscheck_L5", {"face_model.configs": 429,
                       "face_model.face_weight_calls": 10725}),
    ("crosscheck_L8", {"closed_form.permutation_terms": 40320,
                       "contour.residue_terms": 40320}),
])
def test_layer_counts_are_fixed(name, expected):
    workload = harness.WORKLOADS[name]
    job = harness.make_jobs(workload, 3)[0]
    _, counts = _traced_counts(workload, job)
    for key, want in expected.items():
        assert counts[key] == want


def test_route_term_counts_follow_what_the_route_sums(monkeypatch):
    params, lams = _draw(4, 1)
    full = contour._residue_terms
    monkeypatch.setattr(contour, "_residue_terms",
                        lambda *args: full(*args)[:5])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.job = "j"
        contour.partition_residue(params, lams)
        closed_form.partition_permutation_sum(params, lams)
    finally:
        uninstall()
    assert tracer.counts["j"]["contour.residue_terms"] == 5
    assert tracer.counts["j"]["closed_form.permutation_terms"] == 24


def test_same_seed_same_jobs_values_and_counts():
    workload = harness.WORKLOADS["crosscheck_L5"]
    first = harness.make_jobs(workload, 11)
    texts = [j.path.read_text() for j in first]
    second = harness.make_jobs(workload, 11)
    assert [j.path.read_text() for j in second] == texts
    for a, b in zip(first[:4], second[:4]):
        assert _traced_counts(workload, a) == _traced_counts(workload, b)
    other = harness.make_jobs(workload, 12)
    assert [j.path.read_text() for j in other] != texts


def test_tracing_leaves_values_bit_identical():
    workload = harness.WORKLOADS["crosscheck_L5"]
    job = harness.make_jobs(workload, 5)[1]
    plain, _ = harness.run_in_process(workload, job)
    traced, _ = _traced_counts(workload, job)
    assert plain == traced
    assert closed_form.partition_permutation_sum.__module__ == "sosdw.closed_form"
    assert not hasattr(closed_form.partition_permutation_sum, "__wrapped__")


def test_tail_needs_ten_samples_beyond():
    assert harness.tail(list(range(19))) is None
    pct, value = harness.tail([float(x) for x in range(40)])
    assert value == 29.0 and math.isclose(pct, 75.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "crosscheck_L5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_operation_counts_do_not_depend_on_run_length():
    workload = harness.Workload("count_check", 3, ("algebra", "permutation"),
                                4, 1)
    short = harness.timed_run(workload, 21, 0.2)["ledger"]
    long = harness.timed_run(workload, 21, 1.5)["ledger"]
    assert short.attempted == long.attempted == workload.pool
    assert short.failed == long.failed
    assert not short.problems and not long.problems
