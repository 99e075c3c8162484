"""Seeded random draws of model parameters and spectral vectors.

All randomness goes through the standard library Mersenne Twister
(`random.Random`) so that a fixed seed yields the same draws on every
platform and Python build.
"""

from __future__ import annotations

import random

from .core import ModelParams, NumericalError, ValidationError, validate

RE_BOX = (-1.0, 1.0)
IM_BOX = (-0.8, 0.8)
MAX_TRIES = 2000


class NoAdmissibleDraw(NumericalError):
    """Every one of MAX_TRIES draws in a row was rejected."""


def first_admissible(draw, accept, what: str):
    """Rejection-sample: the first ``draw()`` that ``accept`` holds for.

    A draw that raises ValidationError counts as rejected.  ``accept`` runs
    outside that guard, so its own errors propagate.  Raises
    NoAdmissibleDraw after MAX_TRIES rejections in a row.
    """
    for _ in range(MAX_TRIES):
        try:
            candidate = draw()
        except ValidationError:
            continue
        if accept(candidate):
            return candidate
    raise NoAdmissibleDraw(f"no admissible {what} in {MAX_TRIES} tries")


def draw_complex(rng: random.Random) -> complex:
    """One complex number from the sampling box."""
    return complex(rng.uniform(*RE_BOX), rng.uniform(*IM_BOX))


def draw_model(rng: random.Random, L: int, routes=("permutation",),
               predicate=None):
    """Draw (params, lambdas) accepted by every requested route check.

    Rejection-samples through :func:`first_admissible` until `validate`
    passes for each route in `routes` and the optional extra predicate
    holds; a listed route capped below L admits no draw (NoAdmissibleDraw).
    """
    def draw():
        gamma = draw_complex(rng)
        theta = draw_complex(rng)
        mu = draw_spectral(rng, L)
        lambdas = draw_spectral(rng, L)
        params = ModelParams(gamma=gamma, theta=theta, mu=mu, L=L)
        for route in routes:
            validate(params, lambdas, route)
        return params, lambdas

    return first_admissible(
        draw, lambda drawn: predicate is None or predicate(*drawn),
        "model draw")


def draw_spectral(rng: random.Random, n: int):
    """n independent spectral parameters from the sampling box."""
    return tuple(draw_complex(rng) for _ in range(n))
