"""Shared fixtures: seeded draws of validated model parameters."""

import random

import pytest

from sosdw import rmatrix
from sosdw.contour import check_contour, tensor_quadrature
from sosdw.core import ModelParams, s


@pytest.fixture
def rng():
    return random.Random(20260822)


@pytest.fixture
def broken_weights(monkeypatch):
    """Patch ``rmatrix.weights`` so that the identities fail at order 0.1.

    A residual near rounding cannot tell a faithful port of its check from
    a wrong numerator or scale; a residual of order 0.1 can.  The patch
    scales one c-weight by 1.1 and adds two entries that flip the first
    spin alone, which breaks the ice rule and the nilpotency of B as well.
    """
    real = rmatrix.weights

    def broken(lam, theta, params):
        w = real(lam, theta, params)
        w[1, 2] *= 1.1
        w[0, 2] = w[2, 0] = 0.1 * w[0, 0]
        return w
    monkeypatch.setattr(rmatrix, "weights", broken)


@pytest.fixture
def partition_L1():
    """Oracle: the one-row partition function in closed form."""
    def value(params, lam):
        g = params.gamma
        th = params.theta
        return s(g) * s(th + g - lam + params.mu[0]) / s(th + g)
    return value


@pytest.fixture
def quadrature_convergence():
    """Oracle: quadrature values under node doubling, as (nodes, value).

    Starts at ``spec.nodes`` and doubles up to ``max_nodes``.
    """
    def values(params, lambdas, spec, max_nodes):
        check_contour(spec, lambdas)
        pairs = []
        nodes = spec.nodes
        while nodes <= max_nodes:
            pairs.append(
                (nodes, tensor_quadrature(params, lambdas, spec, nodes)))
            nodes *= 2
        return pairs
    return values


@pytest.fixture
def ref_params_l2():
    """The pinned real-parameter point used for the frozen reference value."""
    return ModelParams(gamma=0.31, theta=0.57, mu=(0.13, -0.22), L=2), \
        (0.41, 0.18)


@pytest.fixture
def complex_params_l2():
    """A generic complex point exercised throughout the suite."""
    params = ModelParams(gamma=0.31 + 0.12j, theta=0.57 - 0.08j,
                         mu=(0.13 - 0.21j, -0.22 + 0.15j), L=2)
    return params, (0.41 + 0.05j, 0.18 - 0.27j)
