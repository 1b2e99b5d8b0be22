"""Self-tests of the reference oracles on exact anchors.

Run with ``python3 -m pytest -q bench/test_reference.py``.  Nothing here
imports ``specgap``.
"""

import math

import numpy as np
import pytest

import reference as ref


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("r", [1.0, 2.0, 0.5])
def test_round_sphere_closes_at_n_over_r2(r):
    # S^3(r): K = 1/r^2, diameter pi r, lambda_1 = 3 / r^2
    assert rel(ref.lambda1_symmetric(1.0 / r ** 2, math.pi * r), 3.0 / r ** 2) < 1e-14


@pytest.mark.parametrize("D", [0.3, 1.0, 7.0])
def test_flat_is_pi2_over_d2(D):
    assert ref.lambda1_symmetric(0.0, D) == pytest.approx(math.pi ** 2 / D ** 2, rel=1e-15)
    assert rel(ref.lambda1_interval(0.0, -0.2, D - 0.2, "zero"), math.pi ** 2 / D ** 2) < 1e-13


def test_known_tanh_values():
    # values recorded from an independent 50-digit evaluation of
    # k = tanh(k D/2) tanh(D/2), lambda = 1 - k^2
    assert rel(ref.lambda1_symmetric(-1.0, 10.0), 3.63463724e-4) < 1e-8
    assert rel(ref.lambda1_symmetric(-1.0, 30.0), 7.486e-13) < 1e-3


@pytest.mark.parametrize("K,D", [(1.0, 1.0), (-1.0, 2.0), (0.25, 5.0), (-4.0, 1.3)])
def test_interval_route_agrees_with_symmetric_route(K, D):
    branch = "tan" if K > 0 else "tanh"
    assert rel(ref.lambda1_interval(K, -D / 2, D / 2, branch),
               ref.lambda1_symmetric(K, D)) < 1e-13


def test_scaling_identity():
    for K, D in [(1.0, 1.2), (-1.0, 2.0), (0.3, 0.7)]:
        assert rel(ref.lambda1_symmetric(4 * K, D / 2), 4 * ref.lambda1_symmetric(K, D)) < 1e-13


def test_full_tan_interval_from_the_pole():
    # pole to pole on S^3: the eigenvalue is again 3 K
    P = math.pi / 2
    assert rel(ref.lambda1_interval(1.0, -P, P, "tan"), 3.0) < 1e-12


def test_sphere_solution_from_the_pole_is_minus_cos():
    # at lam = 3 K the pole start gives w = -cos(distance): no interior
    # maximum, and the level -1 + eps sits at arccos(1 - eps)
    P = math.pi / 2
    assert ref.first_maximum(1.0, 3.0, -P, "tan") is None
    for eps in (0.1, 0.5, 1.5):
        d = ref.level_distance(1.0, 3.0, -P, "tan", -1.0 + eps)
        assert d == pytest.approx(math.acos(1.0 - eps), rel=1e-13)


@pytest.mark.parametrize("K,D", [(1.0, 1.5), (-1.0, 2.0), (0.0, 2.0)])
def test_symmetric_start_reaches_one(K, D):
    # at lam = lambda_1(D) the start -D/2 is the odd eigenfunction,
    # so the first maximum is at D/2 with value 1
    lam = ref.lambda1_symmetric(K, D)
    branch = "tan" if K > 0 else ("tanh" if K < 0 else "zero")
    b, m = ref.first_maximum(K, lam, -D / 2, branch)
    assert b == pytest.approx(D / 2, abs=1e-12)
    assert m == pytest.approx(1.0, abs=1e-12)


def test_level_distance_flat():
    # K = 0: w = -cos(sqrt(lam) t), level -1 + eps at arccos(1 - eps)/sqrt(lam)
    for eps in (0.2, 1.0, 1.9):
        d = ref.level_distance(0.0, 4.0, 0.0, "zero", -1.0 + eps)
        assert d == pytest.approx(math.acos(1.0 - eps) / 2.0, rel=1e-13)


def test_shi_zhang_is_the_maximum_over_s():
    s_grid = np.linspace(0.0, 1.0, 200001)
    for n, K, D in [(3, 1.0, 1.0), (4, -1.0, 2.0), (5, 1.0, 3.0), (3, -4.0, 0.5)]:
        val, s = ref.shi_zhang(n, K, D)
        brute = np.max(4 * (s_grid - s_grid ** 2) * math.pi ** 2 / D ** 2
                       + s_grid * (n - 1) * K)
        assert val == pytest.approx(brute, rel=1e-9)
        assert 0.0 <= s <= 1.0


def test_floors_anchor_values():
    assert ref.zhong_yang(math.pi) == pytest.approx(1.0)
    assert ref.lichnerowicz(3, 1.0) == 3.0
    assert ref.yang(3, 0.0, 2.0) == pytest.approx(math.pi ** 2 / 4)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 3.0])
def test_hill_matrix_matches_mathieu_a(beta):
    assert ref.hill_sigma_tilde(beta) == pytest.approx(
        ref.mathieu_sigma_tilde(beta), abs=1e-11)


def test_top_eigenvalue_of_constant_potential():
    # V = c: the constant vector is the top eigenvector with value c
    for periodic in (True, False):
        V = np.full(256, 0.7)
        assert ref.top_eigenvalue(V, 0.01, periodic) == pytest.approx(0.7, abs=1e-8)


def test_top_eigenvalue_converges_to_hill():
    beta = 1.0
    exact = ref.hill_sigma_tilde(beta)
    errs = []
    for m in (256, 512):
        h = 2 * math.pi / m
        V = beta * (1 + np.cos(np.arange(m) * h))
        errs.append(abs(ref.top_eigenvalue(V, h, True) - exact))
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.05)
