"""Smoke tests: each script in scripts/ runs end to end and exits 0, and
rejects with exit 2 an argument set under which it would check nothing."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv", [
    ("compare_routes",
     ["--lmin", "1", "--lmax", "3", "--draws", "1", "--seed", "0"]),
    # the command the README quotes for the routes' agreement
    ("compare_routes",
     ["--lmin", "1", "--lmax", "5", "--draws", "2", "--seed", "0"]),
    # the agreement gate at the L! routes' cap
    ("compare_routes",
     ["--lmin", "6", "--lmax", "8", "--draws", "6", "--seed", "0"]),
])
def test_script_main_returns_zero(name, argv, capsys):
    assert _load(name).main(argv) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--lmin", "0"], "--lmin must be at least 1"),
    (["--lmin", "5", "--lmax", "4"], "--lmax must be at least --lmin"),
    (["--draws", "0"], "--draws must be at least 1"),
    # past the caps of all but the algebra route
    (["--lmin", "9", "--lmax", "10", "--draws", "1"],
     "no size in L = 9..10 has two exact routes to compare"),
])
def test_compare_routes_rejects_an_empty_comparison(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        _load("compare_routes").main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.rstrip().endswith(f"error: {message}")
