"""Seeded rejection sampling of admissible parameter draws."""

import random

import pytest

from sosdw.core import NumericalError
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
