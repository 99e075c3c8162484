"""Seeded rejection sampling of admissible parameter draws."""

import random

import pytest

from sosdw.core import ROUTE_TABLE, ROUTES, NumericalError
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
def test_route_past_its_cap_admits_no_draw(route, monkeypatch):
    # validate judges the cap, so no draw past it reaches the route
    monkeypatch.delenv("SOSDW_MAX_L_FACE", raising=False)
    L = ROUTE_TABLE[route].cap() + 1
    with pytest.raises(NoAdmissibleDraw):
        draw_model(random.Random(0), L, routes=(route,))
