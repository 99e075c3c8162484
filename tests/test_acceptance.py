"""Acceptance gate for the package.

One test per shipped criterion, each ending in a single printed verdict
line.  Tolerances are written out literally here on purpose; they are the
contract, not tunables.  Run with ``pytest -s tests/test_acceptance.py``
to see the verdict lines on passing runs as well.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from sosdw.closed_form import (
    degree_residual,
    functional_equation_residual,
    partition_permutation_sum,
)
from sosdw.cli import main as cli_main
from sosdw.contour import (
    ContourInvalid,
    auto_contour,
    check_contour,
    partition_residue,
    partition_quadrature_info,
)
from sosdw.core import ValidationError
from sosdw.face_model import enumerate_partition
from sosdw.sampling import draw_model, draw_spectral
from sosdw.verify import SUITES, run_suite
from sosdw.yb_algebra import partition_algebraic


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_four_route_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for L in (1, 2, 3, 4):
        rng = random.Random(2000 + L)
        for _ in range(20):
            params, lams = draw_model(
                rng, L,
                routes=("face", "algebra", "permutation", "residue"))
            values = (
                enumerate_partition(params, lams),
                partition_algebraic(params, lams),
                partition_permutation_sum(params, lams),
                partition_residue(params, lams),
            )
            for a in range(4):
                for b in range(a + 1, 4):
                    scale = max(abs(values[a]), abs(values[b]))
                    worst = max(worst,
                                abs(values[a] - values[b]) / scale)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        f"four-route agreement over 20 draws x L=1..4 "
        f"(worst relative deviation {worst:.3g}, {elapsed:.1f} s)",
        worst < 1e-9 and elapsed < 60.0,
    )


def _auto_contour_legal(lams) -> bool:
    try:
        check_contour(auto_contour(lams), lams)
    except ContourInvalid:
        return False
    return True


def test_criterion_2_quadrature(quadrature_convergence):
    worst_rel = 0.0
    ratio_ok = True
    for L in (1, 2, 3):
        rng = random.Random(3000 + L)
        params, lams = draw_model(
            rng, L, routes=("residue", "quadrature"),
            predicate=lambda p, ls: max(
                (abs(a - b) for a in ls for b in ls), default=0.0
            ) < 1.0 and _auto_contour_legal(ls))
        ref = partition_residue(params, lams)

        value, nodes = partition_quadrature_info(params, lams)
        assert nodes <= 512
        worst_rel = max(worst_rel, abs(value - ref) / abs(ref))

        seq = quadrature_convergence(params, lams,
                                     auto_contour(lams, nodes=8),
                                     max_nodes=512)
        errs = [(n, abs(v - ref)) for n, v in seq]
        for (n_prev, e_prev), (_, e_next) in zip(errs, errs[1:]):
            if n_prev >= 32 and e_prev > 1e-12 * abs(ref):
                if not e_next < 0.5 * e_prev:
                    ratio_ok = False
    _verdict(
        2,
        f"quadrature matches residue route at L=1..3 "
        f"(worst relative error {worst_rel:.3g}) with error at least "
        f"halving per node doubling beyond 32 nodes",
        worst_rel < 1e-8 and ratio_ok,
    )


IDENTITY_SUITES = {
    "dybe": 1e-12,
    "ice": 1e-14,
    "unitarity": 1e-13,
    "hexagon": 1e-12,
    "commut": 1e-11,
    "cbb": 1e-10,
    "nilpotency": 1e-11,
}


def test_criterion_3_identity_suites():
    worst = {}
    for name, contract_threshold in IDENTITY_SUITES.items():
        assert SUITES[name].threshold == contract_threshold, (
            f"suite {name} runs at a threshold other than the contract")
        rep = run_suite(name, seed=0, draws=100)
        assert rep.passed, rep.render()
        worst[name] = max(r.residual for r in rep.rows)
    summary = ", ".join(f"{k} {v:.2g}" for k, v in worst.items())
    _verdict(3, f"identity suites x100 draws (worst residuals: {summary})",
             True)


def test_criterion_4_functional_equation():
    worst = 0.0
    for route, l_values in (("permutation", (1, 2, 3, 4)),
                            ("face", (1, 2, 3))):
        for L in l_values:
            rng = random.Random(4000 + L)
            params, _ = draw_model(rng, L, routes=("permutation",))
            accepted = 0
            attempts = 0
            while accepted < 10:
                attempts += 1
                assert attempts < 500
                pool = draw_spectral(rng, L + 2)
                try:
                    res = functional_equation_residual(params, pool, route)
                except ValidationError:
                    continue
                worst = max(worst, res)
                accepted += 1
    _verdict(
        4,
        f"functional equation residual over 10 draws per size and route "
        f"(worst {worst:.3g})",
        worst < 1e-9,
    )


def test_criterion_5_structure_checks():
    pieces = []

    assert SUITES["degree"].threshold == 1e-10
    worst_deg = 0.0
    for L in (1, 2, 3, 4):
        rng = random.Random(5000 + L)
        params, _ = draw_model(rng, L, routes=("permutation",))
        for which in range(L):
            worst_deg = max(worst_deg, degree_residual(params, which))
    assert worst_deg < SUITES["degree"].threshold
    pieces.append(f"degree residual {worst_deg:.2g} for every variable, "
                  f"L<=4")

    assert SUITES["zeroes"].threshold == 1e-9
    rep = run_suite("zeroes", seed=0, draws=12)
    assert rep.passed, rep.render()
    assert {int(r.label.split("L=")[1]) for r in rep.rows} == {2, 3, 4}
    pieces.append(f"special zero {max(r.residual for r in rep.rows):.2g}")

    assert SUITES["symmetry"].threshold == 1e-11
    rep = run_suite("symmetry", seed=0, draws=12)
    assert rep.passed, rep.render()
    pieces.append(f"row/column symmetry "
                  f"{max(r.residual for r in rep.rows):.2g}")

    assert SUITES["asymptotic"].threshold == 1e-12
    rep = run_suite("asymptotic", seed=0, draws=12)
    assert rep.passed, rep.render()
    assert {int(r.label.split("L=")[1]) for r in rep.rows} == {1, 2, 3}
    pieces.append(f"asymptotic coefficient "
                  f"{max(r.residual for r in rep.rows):.2g}")

    assert SUITES["ode"].threshold == 1e-12
    rep = run_suite("ode", seed=0, draws=100)
    assert rep.passed, rep.render()
    pieces.append(f"size-one differential relation x100 "
                  f"{max(r.residual for r in rep.rows):.2g}")

    worst_stab = 0.0
    for L in (1, 2, 3):
        rng = random.Random(6000 + L)
        params, lams = draw_model(rng, L, routes=("permutation",))
        za = partition_permutation_sum(params._replace(theta=30.0), lams)
        zb = partition_permutation_sum(params._replace(theta=35.0), lams)
        worst_stab = max(worst_stab, abs(za - zb) / abs(za))
    pieces.append(f"large-argument stabilization {worst_stab:.2g}")
    assert worst_stab < 1e-8

    _verdict(5, "structure checks (" + "; ".join(pieces) + ")", True)


def test_criterion_6_determinism(tmp_path, capsys):
    renders = [run_suite("commut", seed=9, draws=3).render()
               for _ in range(2)]
    assert renders[0] == renders[1]

    cfg = {
        "L": 2,
        "gamma": {"re": 0.31, "im": 0.12},
        "theta": {"re": 0.57, "im": -0.08},
        "mu": [{"re": 0.13, "im": -0.21}, {"re": -0.22, "im": 0.15}],
        "lambda": [{"re": 0.41, "im": 0.05}, {"re": 0.18, "im": -0.27}],
        "routes": ["face", "algebra", "permutation", "residue"],
        "seed": 0,
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for _ in range(2):
        code = cli_main(["compute", "--config", str(path), "--json",
                         "--no-timings"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    _verdict(6, "same seed reproduces bit-identical reports", True)
