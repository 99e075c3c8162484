"""Seeded rejection sampling of admissible parameter draws."""

import random

import pytest

from sosdw.core import (
    ROUTE_TABLE,
    ROUTES,
    ModelParams,
    NumericalError,
    TooLarge,
    validate,
)
from sosdw.sampling import MAX_TRIES, NoAdmissibleDraw, draw_model


def test_exhausted_draw_raises_numerical_error():
    calls = []

    def never(params, lambdas):
        calls.append(params)
        return False

    with pytest.raises(NoAdmissibleDraw) as info:
        draw_model(random.Random(0), 1, predicate=never)
    assert isinstance(info.value, NumericalError)
    assert 0 < len(calls) <= MAX_TRIES


@pytest.mark.parametrize("route", ROUTES)
def test_route_past_its_cap_admits_no_draw(route):
    # validate judges the cap, so no draw past it reaches the route
    L = ROUTE_TABLE[route].cap + 1
    with pytest.raises(NoAdmissibleDraw):
        draw_model(random.Random(0), L, routes=(route,))


@pytest.mark.parametrize("setting", ["x", "6"])
def test_face_cap_ignores_the_environment(setting, monkeypatch):
    # the caps are constants of the route table; no variable moves them
    monkeypatch.setenv("SOSDW_MAX_L_FACE", setting)
    params, _ = draw_model(random.Random(0), 2, routes=("face",))
    assert params.L == 2
    big = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                      mu=tuple(0.05 * k for k in range(6)), L=6)
    with pytest.raises(TooLarge,
                       match=r"^route face capped at L = 5 \(requested 6\)$"):
        validate(big, tuple(0.1 * k + 0.2j for k in range(6)), "face")
