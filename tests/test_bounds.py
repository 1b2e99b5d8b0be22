"""Tests for the closed-form spectral-gap lower bounds and the
cross-consistency report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap.bounds import (
    aubry,
    bound_report,
    lichnerowicz,
    main_bound,
    shi_zhang,
    shi_zhang_maximizer,
    yang,
    zhong_yang,
)
from specgap.errors import DomainError

_PI2 = math.pi ** 2


# ---------------------------------------------------------------------------
# exact evaluation points

def test_zhong_yang_values():
    assert zhong_yang(math.pi) == pytest.approx(1.0, rel=1e-15)
    assert zhong_yang(1.0) == pytest.approx(_PI2, rel=1e-15)


def test_lichnerowicz_values():
    assert lichnerowicz(3, 1.0) == 3.0
    assert lichnerowicz(5, 0.5) == 2.5
    with pytest.raises(DomainError):
        lichnerowicz(3, 0.0)
    with pytest.raises(DomainError):
        lichnerowicz(3, -1.0)


def test_shi_zhang_unit_sphere_point():
    # interior maximizer s* = 3/4 gives exactly 9/4 at (3, 1, pi)
    s, clamped = shi_zhang_maximizer(3, 1.0, math.pi)
    assert s == pytest.approx(0.75, rel=1e-14)
    assert not clamped
    assert shi_zhang(3, 1.0, math.pi) == pytest.approx(2.25, rel=1e-14)


def test_shi_zhang_flat_reduces_to_zhong_yang():
    for n in (3, 5):
        for D in (0.7, 2.0):
            assert shi_zhang(n, 0.0, D) == pytest.approx(zhong_yang(D), rel=1e-14)
            s, clamped = shi_zhang_maximizer(n, 0.0, D)
            assert s == pytest.approx(0.5, rel=1e-14)
            assert not clamped


def test_shi_zhang_maximizer_formula():
    # s* = 1/2 + (n-1) K D^2 / (8 pi^2), clamped to [0, 1]
    s, clamped = shi_zhang_maximizer(4, -2.0, 1.5)
    assert s == pytest.approx(0.5 + 3.0 * (-2.0) * 2.25 / (8 * _PI2), rel=1e-13)
    assert not clamped
    s, clamped = shi_zhang_maximizer(9, 40.0, 3.0)
    assert s == 1.0 and clamped
    s, clamped = shi_zhang_maximizer(9, -40.0, 3.0)
    assert s == 0.0 and clamped


@given(n=st.floats(min_value=2.0, max_value=9.0),
       K=st.floats(min_value=-3.0, max_value=3.0),
       D=st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_shi_zhang_maximizer_beats_grid(n, K, D):
    """Property: the closed-form maximizer attains the sup of the
    one-parameter family 4s(1-s) pi^2/D^2 + s(n-1)K over s in [0, 1]."""
    grid = np.linspace(0.0, 1.0, 4001)
    family = 4.0 * grid * (1.0 - grid) * _PI2 / D ** 2 + grid * (n - 1.0) * K
    assert shi_zhang(n, K, D) >= family.max() - 1e-10 * max(1.0, abs(family).max())


def test_yang_values():
    # c_n = max(2, n-1): penalty exponent switches at n = 4
    D = 1.3
    assert yang(3, 0.0, D) == pytest.approx(zhong_yang(D), rel=1e-14)
    expo2 = math.exp(-2.0 * D * math.sqrt(2.0))
    assert yang(3, -1.0, D) == pytest.approx(zhong_yang(D) * expo2, rel=1e-13)
    expo4 = math.exp(-4.0 * D * math.sqrt(4.0 * 2.0))
    assert yang(5, -2.0, D) == pytest.approx(zhong_yang(D) * expo4, rel=1e-13)
    with pytest.raises(DomainError):
        yang(3, 0.5, D)


def test_aubry_values():
    # floor at zero once the integral deficit eats the whole gap
    assert aubry(3, 1.0, 2.0, 0.0, 0.5) == pytest.approx(3.0, rel=1e-14)
    assert aubry(3, 1.0, 2.0, 10.0, 1.0) == 0.0
    vals = [aubry(3, 1.0, 2.0, kb, 0.4) for kb in (0.0, 0.1, 0.5, 1.0)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        aubry(3, 0.0, 2.0, 0.1, 0.5)
    with pytest.raises(DomainError):
        aubry(4, 1.0, 2.0, 0.1, 0.5)  # needs p > n/2


# ---------------------------------------------------------------------------
# the model bound and its dominance over the closed forms

def test_main_bound_alpha_scaling():
    lam = main_bound(3, -1.0, 1.0, alpha=1.0)
    assert main_bound(3, -1.0, 1.0, alpha=0.5) == pytest.approx(0.5 * lam, rel=1e-12)
    with pytest.raises(DomainError):
        main_bound(3, -1.0, 1.0, alpha=0.0)
    with pytest.raises(DomainError):
        main_bound(3, -1.0, 1.0, alpha=1.5)


@pytest.mark.parametrize("n,K,D", [
    (3, 1.0, 2.0), (3, 0.0, 1.0), (3, -1.0, 1.0),
    (5, 2.0, 1.5), (4, -2.0, 2.0),
])
def test_model_dominates_shi_zhang(n, K, D):
    assert main_bound(n, K, D) >= shi_zhang(n, K, D) - 1e-9


@pytest.mark.parametrize("n,K,D", [(3, -1.0, 1.0), (4, -0.5, 2.0), (5, -2.0, 1.3)])
def test_model_dominates_yang(n, K, D):
    assert main_bound(n, K, D) >= yang(n, K, D) - 1e-9


def test_model_meets_lichnerowicz_at_closing_diameter():
    got = main_bound(3, 1.0, math.pi)
    assert got == pytest.approx(lichnerowicz(3, 1.0), rel=1e-8)


# ---------------------------------------------------------------------------
# consistency report

def test_bound_report_positive_curvature():
    rep = bound_report(3, 1.0, 2.0)
    assert rep.lichnerowicz == pytest.approx(3.0)
    assert rep.yang is None
    assert rep.consistency["shi_zhang_le_model"]
    assert rep.consistency["zhong_yang_le_model"]
    assert rep.all_ok


def test_bound_report_negative_curvature():
    rep = bound_report(3, -1.0, 1.0, aubry_inputs=(2.0, 0.05, 0.5))
    assert rep.lichnerowicz is None
    assert rep.yang is not None
    # flat-space comparison flips sides below zero curvature
    assert rep.consistency["zhong_yang_ge_model"]
    assert rep.consistency["shi_zhang_le_model"]
    assert rep.consistency["yang_le_model"]
    assert rep.all_ok


def test_bound_report_flat():
    rep = bound_report(4, 0.0, 1.5)
    assert rep.model_lambda1 == pytest.approx(zhong_yang(1.5), rel=1e-9)
    assert rep.all_ok


@pytest.mark.parametrize("alpha", [0.0, 1.5, 5.0])
def test_bound_report_rejects_alpha_outside_unit_interval(alpha):
    # main_bound = alpha * model is a lower bound only for alpha in (0, 1]
    with pytest.raises(DomainError):
        bound_report(3, 1.0, 1.0, alpha=alpha)


def test_bound_report_as_dict_omits_missing():
    d = bound_report(3, 0.0, 1.0).as_dict()
    assert "lichnerowicz" not in d
    assert "yang" not in d
    assert "aubry" not in d
    assert "model_lambda1" in d
