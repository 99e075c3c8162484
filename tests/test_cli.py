"""End-to-end tests for the command line interface and job config format."""

from __future__ import annotations

import json
import math
import random
import types
import warnings
from pathlib import Path

import pytest

from sosdw import cli, verify
from sosdw.cli import (
    BENCH_REPEATS,
    DEFAULT_TOLERANCES,
    ConfigError,
    load_job_config,
    main,
    pairwise_deviations,
)
from sosdw.contour import ContourSpec, auto_contour
from sosdw.core import ROUTE_TABLE, ROUTES, BadLength, ModelParams, TooLarge
from sosdw.sampling import draw_model


def cfg_dict(**overrides):
    base = {
        "L": 2,
        "gamma": {"re": 0.31, "im": 0.0},
        "theta": {"re": 0.57, "im": 0.0},
        "mu": [{"re": 0.13, "im": 0.0}, {"re": -0.22, "im": 0.0}],
        "lambda": [{"re": 0.41, "im": 0.0}, {"re": 0.18, "im": 0.0}],
        "routes": ["face", "algebra", "permutation", "residue"],
        "seed": 0,
    }
    base.update(overrides)
    return base


def write_cfg(tmp_path, name="job.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict(**overrides)))
    return str(path)


class TestLoadJobConfig:
    def test_valid_config_parses(self, tmp_path):
        cfg = load_job_config(write_cfg(tmp_path))
        assert cfg.params.L == 2
        assert cfg.params.gamma == 0.31 + 0j
        assert cfg.params.mu == (0.13 + 0j, -0.22 + 0j)
        assert cfg.lambdas == (0.41 + 0j, 0.18 + 0j)
        assert cfg.routes == ("face", "algebra", "permutation", "residue")
        assert cfg.tolerances == DEFAULT_TOLERANCES
        assert cfg.contour is None

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus_key"):
            load_job_config(write_cfg(tmp_path, bogus_key=1))

    def test_missing_key_rejected(self, tmp_path):
        raw = cfg_dict()
        del raw["theta"]
        path = tmp_path / "job.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="theta"):
            load_job_config(str(path))

    def test_bare_number_not_accepted_for_complex(self, tmp_path):
        with pytest.raises(ConfigError):
            load_job_config(write_cfg(tmp_path, gamma=0.31))

    def test_extra_complex_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_job_config(
                write_cfg(tmp_path, gamma={"re": 0.3, "im": 0.0, "x": 1}))

    def test_wrong_length_arrays_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mu"):
            load_job_config(
                write_cfg(tmp_path, mu=[{"re": 0.1, "im": 0.0}]))
        with pytest.raises(ConfigError, match="lambda"):
            load_job_config(
                write_cfg(tmp_path, **{"lambda": [{"re": 0.1, "im": 0.0}]}))

    def test_bad_routes_rejected(self, tmp_path):
        for routes in ([], ["warp"], ["face", "face"]):
            with pytest.raises(ConfigError):
                load_job_config(write_cfg(tmp_path, routes=routes))

    def test_bad_seed_rejected(self, tmp_path):
        for seed in (-1, 1.5, True):
            with pytest.raises(ConfigError):
                load_job_config(write_cfg(tmp_path, seed=seed))

    def test_unknown_tolerance_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="route_agremnt"):
            load_job_config(
                write_cfg(tmp_path, tolerances={"route_agremnt": 1e-9}))

    def test_tolerance_override_applied(self, tmp_path):
        cfg = load_job_config(
            write_cfg(tmp_path, tolerances={"route_agreement": 1e-6}))
        assert cfg.tolerances["route_agreement"] == 1e-6

    def test_contour_key_parsed(self, tmp_path):
        cfg = load_job_config(write_cfg(
            tmp_path,
            contour={"center": {"re": 0.3, "im": 0.0}, "radius": 0.9,
                     "nodes": 32}))
        assert isinstance(cfg.contour, ContourSpec)
        assert cfg.contour.center == 0.3 + 0j
        assert cfg.contour.radius == 0.9
        assert cfg.contour.nodes == 32

    def test_contour_node_default_is_shared(self, tmp_path):
        cfg = load_job_config(write_cfg(
            tmp_path, contour={"center": {"re": 0.3, "im": 0.0},
                               "radius": 0.9}))
        assert (cfg.contour.nodes == ContourSpec(0.3, 0.9).nodes
                == auto_contour(cfg.lambdas).nodes)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                       "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400-int"])
    def test_non_finite_numbers_rejected(self, tmp_path, token):
        # json.load accepts these tokens; the config layer must not
        raw = json.dumps(cfg_dict(gamma={"re": 0.0, "im": 0.12}))
        raw = raw.replace('"re": 0.0', f'"re": {token}', 1)
        path = tmp_path / "job.json"
        path.write_text(raw)
        with pytest.raises(ConfigError, match="gamma.re"):
            load_job_config(str(path))
        raw = json.dumps(cfg_dict(tolerances={"route_agreement": 0.5}))
        path.write_text(raw.replace('"route_agreement": 0.5',
                                    f'"route_agreement": {token}'))
        with pytest.raises(ConfigError, match="route_agreement"):
            load_job_config(str(path))

    def test_contour_rejects_unknown_or_missing_fields(self, tmp_path):
        with pytest.raises(ConfigError):
            load_job_config(write_cfg(
                tmp_path,
                contour={"center": {"re": 0.3, "im": 0.0}, "radius": 0.9,
                         "wobble": 2}))
        with pytest.raises(ConfigError):
            load_job_config(
                write_cfg(tmp_path, contour={"radius": 0.9}))


class TestComputeCommand:
    def test_compute_json_success(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code = main(["compute", "--config", path, "--json", "--no-timings"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["L"] == 2
        assert set(report["routes"]) == {"face", "algebra", "permutation",
                                         "residue"}
        assert len(report["deviations"]) == 6
        assert all(d["within_tolerance"] for d in report["deviations"])
        assert report["tolerances"]["route_agreement"] == 1e-9
        assert set(report) == {"L", "routes", "deviations", "tolerances"}

    def test_compute_json_deterministic_without_timings(self, tmp_path,
                                                        capsys):
        path = write_cfg(tmp_path)
        main(["compute", "--config", path, "--json", "--no-timings"])
        first = capsys.readouterr().out
        main(["compute", "--config", path, "--json", "--no-timings"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("job", ["readme", "crosscheck_L5_job_000",
                                     "crosscheck_L8_job_000"])
    def test_compute_json_matches_recorded_output(self, job, capsys):
        # the README job and job 0 of the benchmark's L = 5 and L = 8 pools
        # at seed 0: the recorded reports pin every route's bits, and a change
        # that moves them on purpose records the files again
        data = Path(__file__).parent / "data" / "compute"
        code = main(["compute", "--config", str(data / f"{job}.json"),
                     "--json", "--no-timings"])
        assert capsys.readouterr().out == (data / f"{job}.out").read_text()
        assert code == 0

    def test_compute_human_table(self, tmp_path, capsys):
        path = write_cfg(tmp_path, routes=["face", "permutation"])
        code = main(["compute", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "partition function report  L=2"
        assert lines[1].startswith("route")
        assert "wall_ms" in lines[1]
        assert any(line.startswith("face") for line in lines)
        assert any("face|permutation" in line and line.rstrip().endswith(
            "PASS") for line in lines)

    def test_compute_exit_1_when_tolerance_not_met(self, tmp_path, capsys):
        path = write_cfg(tmp_path,
                         tolerances={"route_agreement": 1e-18})
        code = main(["compute", "--config", path, "--json", "--no-timings"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("tol", [-1, 0, -0.0, -1e-9])
    def test_compute_exit_2_on_nonpositive_tolerance(self, tmp_path, capsys,
                                                     tol):
        path = write_cfg(tmp_path, tolerances={"route_agreement": tol})
        code = main(["compute", "--config", path, "--json", "--no-timings"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"]["type"] == "ConfigError"
        assert "tolerances.route_agreement" in payload["error"]["message"]

    def test_compute_exit_2_on_unknown_config_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, whatever=3)
        code = main(["compute", "--config", path, "--json"])
        err = capsys.readouterr().err
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "ConfigError"
        assert "whatever" in payload["error"]["message"]

    def test_compute_exit_2_on_nan_parameter(self, tmp_path, capsys):
        raw = json.dumps(cfg_dict(theta={"re": 0.0, "im": 0.0}))
        path = tmp_path / "job.json"
        path.write_text(raw.replace('"re": 0.0', '"re": NaN', 1))
        code = main(["compute", "--config", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("override", [
        {"gamma": {"re": 800, "im": 0.12}},
        {"lambda": [{"re": 900, "im": 0.05}, {"re": 0.18, "im": -0.27}]},
        {"L": 1, "mu": [{"re": 0.13, "im": -0.21}],
         "lambda": [{"re": 900, "im": 0.05}], "routes": ["quadrature"]},
        # sinh(gamma)^L overflows too; the validation window must be judged
        # before the prefactor is taken
        {"gamma": {"re": 710, "im": 0.0}, "theta": {"re": -1062.5, "im": 0.0},
         "mu": [{"re": 0.13, "im": 0.0}, {"re": 1.5, "im": 0.0}],
         "lambda": [{"re": 0.4, "im": 0.05}, {"re": 0.1, "im": -0.1}],
         "routes": ["permutation"]},
    ], ids=["gamma", "lambda", "quadrature", "permutation-prefactor"])
    def test_compute_exit_2_on_sinh_overflow(self, tmp_path, capsys,
                                             override):
        path = write_cfg(tmp_path, **override)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compute", "--config", path, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "SinhOverflow"
        assert "sinh of" in error["message"]

    @pytest.mark.parametrize("lambdas", [
        [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 3.1}],
        [{"re": 0.0, "im": 0.0}, {"re": 1.0, "im": 1.5 * math.pi},
         {"re": -1.0, "im": 1.5 * math.pi}],
    ], ids=["gap-near-i-pi", "centroid-on-a-copy"])
    def test_compute_exit_2_without_a_separating_circle(self, tmp_path,
                                                        capsys, lambdas):
        L = len(lambdas)
        path = write_cfg(tmp_path, L=L, routes=["quadrature"],
                         mu=[{"re": 0.13 * (k + 1), "im": 0.0}
                             for k in range(L)],
                         **{"lambda": lambdas})
        code = main(["compute", "--config", path, "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ContourInvalid"

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"),
                                     complex("nan+nanj")])
    def test_non_finite_route_value_never_passes(self, bad):
        for values in ({"face": bad, "permutation": 1.0 + 0j},
                       {"face": 1.0 + 0j, "permutation": bad},
                       {"face": bad, "permutation": bad}):
            [dev] = pairwise_deviations(values, 1e-9)
            assert not dev["within_tolerance"], values

    def test_zero_route_values_agree(self):
        [dev] = pairwise_deviations({"face": 0j, "permutation": 0j}, 1e-9)
        assert dev["relative"] == 0.0 and dev["within_tolerance"]

    def test_compute_exit_2_on_degenerate_anisotropy(self, tmp_path, capsys):
        path = write_cfg(tmp_path, gamma={"re": 0.0, "im": 0.0})
        code = main(["compute", "--config", path, "--json"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DegenerateGamma"

    def test_compute_exit_2_on_oversized_face_request(self, tmp_path,
                                                      capsys):
        mu = [{"re": 0.05 * k, "im": 0.0} for k in range(6)]
        lam = [{"re": 0.4 + 0.11 * k, "im": 0.0} for k in range(6)]
        path = write_cfg(tmp_path, L=6, mu=mu, **{"lambda": lam},
                         routes=["face"])
        code = main(["compute", "--config", path, "--json"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["type"] == "TooLarge"


class TestVerifyCommand:
    def test_verify_passes_and_is_deterministic(self, capsys):
        code = main(["verify", "--suite", "dybe", "--seed", "3",
                     "--draws", "4"])
        first = capsys.readouterr().out
        assert code == 0
        assert first.splitlines()[0] == "suite dybe  seed 3  draws 4"
        assert first.rstrip().endswith("suite dybe: 4/4 passed -> PASS")
        main(["verify", "--suite", "dybe", "--seed", "3", "--draws", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_verify_runs_each_named_suite(self, capsys):
        code = main(["verify", "--suite", "ice", "--suite", "ode",
                     "--suite", "contour", "--draws", "2"])
        reports = capsys.readouterr().out.split("\n\n")
        assert code == 0
        assert [r.splitlines()[0] for r in reports] == [
            f"suite {name}  seed 0  draws 2"
            for name in ("ice", "ode", "contour")]
        assert all(r.rstrip().endswith("-> PASS") for r in reports)

    def test_verify_without_suite_runs_all_in_table_order(self, capsys):
        code = main(["verify", "--draws", "1"])
        reports = capsys.readouterr().out.split("\n\n")
        assert code == 0
        assert [r.splitlines()[0] for r in reports] == [
            f"suite {name}  seed 0  draws 1" for name in verify.SUITE_NAMES]

    def test_verify_unknown_suite_rejected_by_parser(self, capsys):
        # before any suite runs, the named ones included
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "dybe", "--suite", "nonsense"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "invalid choice: 'nonsense'" in captured.err

    def test_verify_exit_1_when_every_draw_is_rejected(self, capsys,
                                                        monkeypatch):
        # gamma = 0 makes every ModelParams raise DegenerateGamma.
        monkeypatch.setattr(verify, "draw_complex", lambda rng: 0j)
        code = main(["verify", "--suite", "dybe", "--draws", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "NoAdmissibleDraw"
        assert "2000" in error["message"]

    def test_verify_exit_2_on_nonpositive_draws(self, capsys):
        code = main(["verify", "--suite", "dybe", "--draws", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "ValidationError"


class TestBenchCommand:
    def test_bench_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "bench.csv"
        code = main(["bench", "--lmin", "1", "--lmax", "3",
                     "--routes", "face,permutation",
                     "--csv", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "route,L,nodes_or_terms,wall_ms,value_re,value_im"
        rows = [line.split(",") for line in lines[1:]]
        face_rows = [r for r in rows if r[0] == "face"]
        perm_rows = [r for r in rows if r[0] == "permutation"]
        assert [int(r[1]) for r in face_rows] == [1, 2, 3]
        assert [int(r[2]) for r in face_rows] == [1, 2, 7]
        assert [int(r[2]) for r in perm_rows] == [1, 2, 6]
        for r in rows:
            assert complex(float(r[4]), float(r[5])) != 0

    def test_bench_exit_2_on_unwritable_csv(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "bench.csv"
        code = main(["bench", "--lmin", "1", "--lmax", "1",
                     "--routes", "permutation", "--csv", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ConfigError"
        assert "bench.csv" in error["message"]

    def test_bench_workload_column_monotone_within_route(self, tmp_path,
                                                         capsys):
        out_path = tmp_path / "bench.csv"
        main(["bench", "--lmin", "1", "--lmax", "4",
              "--routes", "permutation", "--csv", str(out_path)])
        capsys.readouterr()
        counts = [int(line.split(",")[2])
                  for line in out_path.read_text().splitlines()[1:]]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)

    def test_bench_silently_skips_sizes_past_route_cap(self, tmp_path,
                                                       capsys):
        out_path = tmp_path / "bench.csv"
        code = main(["bench", "--lmin", "5", "--lmax", "6",
                     "--routes", "face", "--csv", str(out_path)])
        capsys.readouterr()
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["face", "5"]]

    def test_bench_stdout_when_no_csv(self, capsys):
        code = main(["bench", "--lmin", "1", "--lmax", "1",
                     "--routes", "residue"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == (
            "route,L,nodes_or_terms,wall_ms,value_re,value_im")
        assert out.splitlines()[1].startswith("residue,1,1,")

    @pytest.mark.parametrize("route", ROUTES)
    def test_bench_emits_one_row_per_route(self, route, capsys):
        code = main(["bench", "--lmin", "1", "--lmax", "1",
                     "--routes", route])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == 0
        assert [r.split(",")[:2] for r in rows] == [[route, "1"]]

    @pytest.mark.parametrize("route", ROUTES)
    def test_bench_stops_one_below_where_route_raises(self, route, capsys,
                                                      monkeypatch):
        spec = ROUTE_TABLE[route]
        # bench walks its sizes against a stub; the real route judges them
        monkeypatch.setitem(ROUTE_TABLE, route, spec._replace(
            evaluate=lambda p, lams, c: (1j, None),
            workload=lambda L, detail: 0))
        main(["bench", "--lmin", "1", "--lmax", str(spec.cap + 2),
              "--routes", route])
        last = int(capsys.readouterr().out.splitlines()[-1].split(",")[1])

        def size_check(L):
            # too few spectral parameters: past the size check, validation
            # rejects them before any work is done
            params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                                 mu=tuple(0.05 * k for k in range(L)), L=L)
            spec.evaluate(params, (), None)

        with pytest.raises(BadLength):
            size_check(last)
        with pytest.raises(TooLarge):
            size_check(last + 1)

    @pytest.mark.parametrize("route", ROUTES)
    def test_bench_evaluates_each_route_once_untimed(self, route, capsys,
                                                     monkeypatch):
        # the first draw is evaluated once before the timed rows, so that
        # no row times a lazy import
        calls = []

        def evaluate(params, lams, contour):
            calls.append(params.L)
            return 1j, None

        monkeypatch.setitem(ROUTE_TABLE, route, ROUTE_TABLE[route]._replace(
            evaluate=evaluate,
            workload=lambda L, detail: 0))
        main(["bench", "--lmin", "1", "--lmax", "3", "--routes", route])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows
        sizes = [int(r.split(",")[1]) for r in rows]
        assert calls == [1] + [L for L in sizes for _ in range(BENCH_REPEATS)]

    def test_bench_draws_each_route_for_itself(self, capsys, monkeypatch):
        # L = 9 and 10 are past the face and permutation caps, so only an
        # algebra draw of its own reaches them
        seen = []

        def evaluate(params, lams, contour):
            seen.append((params, lams))
            return 1j, None

        monkeypatch.setitem(ROUTE_TABLE, "algebra", ROUTE_TABLE[
            "algebra"]._replace(evaluate=evaluate))
        assert main(["bench", "--lmin", "9", "--lmax", "10",
                     "--routes", "algebra"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["algebra", "9"],
                                                    ["algebra", "10"]]
        assert set(seen) == {
            draw_model(random.Random(1000 + L), L, routes=("algebra",))
            for L in (9, 10)}

    def test_bench_row_reports_median_of_timed_evaluations(self, capsys,
                                                            monkeypatch):
        # a stub clock that each evaluation advances by its own duration:
        # untimed warm-up, then 5, 1 and 3 ms
        clock = [0.0]
        durations = iter([0.0, 0.005, 0.001, 0.003])

        def evaluate(params, lams, contour):
            clock[0] += next(durations)
            return 1j, None

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            perf_counter=lambda: clock[0]))
        monkeypatch.setitem(ROUTE_TABLE, "face", ROUTE_TABLE["face"]._replace(
            evaluate=evaluate,
            workload=lambda L, detail: 0))
        main(["bench", "--lmin", "1", "--lmax", "1", "--routes", "face"])
        row = capsys.readouterr().out.splitlines()[1]
        assert float(row.split(",")[3]) == pytest.approx(3.0)

    def test_bench_bad_flags_rejected(self, capsys):
        code = main(["bench", "--lmin", "2", "--lmax", "1",
                     "--routes", "face"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ConfigError"
        code = main(["bench", "--lmin", "1", "--lmax", "1",
                     "--routes", "face,warp"])
        err = capsys.readouterr().err
        assert code == 2

    @pytest.mark.parametrize("routes", [",", "warp", "face,face"])
    def test_bench_route_list_judged_like_a_job_file(self, routes, tmp_path,
                                                     capsys):
        code = main(["bench", "--lmin", "1", "--lmax", "1",
                     "--routes", routes])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ConfigError"
        with pytest.raises(ConfigError) as info:
            load_job_config(write_cfg(
                tmp_path, routes=[r for r in routes.split(",") if r]))
        assert error["message"] == str(info.value)

    def test_missing_required_flags_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["compute"])
        capsys.readouterr()
