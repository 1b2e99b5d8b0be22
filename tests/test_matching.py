"""Tests for the maximum-matching solver: given a target level u* in
(0, 1], find the family member whose first maximum equals u*."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap import matching
from specgap.errors import CertifiedInfinite, DomainError, TargetBelowMinimum
from specgap.matching import (
    constant_drift_limit,
    m_min,
    match_maximum,
    r_epsilon,
    reflection_check,
)
from specgap.model import Branch, ModelParams, solve_ivp

from n3_oracle import first_maximum

TAN3 = ModelParams(3.0, 1.0, Branch.TAN)
TANH3 = ModelParams(3.0, -1.0, Branch.TANH)
COTH3 = ModelParams(3.0, -1.0, Branch.COTH)
ZERO3 = ModelParams(3.0, 0.0, Branch.ZERO)


# ---------------------------------------------------------------------------
# the family minimum and the constant-drift limit

def test_constant_drift_limit_closed_form():
    # exp(-theta pi/(2 omega)) with theta = 2, omega = sqrt(lam - 1)
    assert constant_drift_limit(COTH3, 2.0) == pytest.approx(math.exp(-math.pi), rel=1e-14)
    assert constant_drift_limit(TANH3, 5.0) == pytest.approx(
        math.exp(-math.pi / math.sqrt(4.0)), rel=1e-14)


def test_m_min_pins():
    assert m_min(COTH3, 2.0) == pytest.approx(0.02787489550418002, rel=1e-6)
    assert m_min(TAN3, 4.5) == pytest.approx(0.48319331569629015, rel=1e-6)


def test_m_min_below_constant_limit():
    # the singular start undershoots the far-field constant-drift value
    assert m_min(COTH3, 2.0) < constant_drift_limit(COTH3, 2.0)


def test_m_min_tan_anchor_boundary():
    assert m_min(TAN3, 3.0) == 1.0
    with pytest.raises(DomainError):
        m_min(TAN3, 2.5)


def test_m_min_zero_branch():
    assert m_min(ZERO3, 2.0) == 1.0


def test_m_min_subthreshold_certified_infinite():
    with pytest.raises(CertifiedInfinite):
        m_min(COTH3, 0.9)


def test_m_min_increasing_in_lambda():
    vals = [m_min(COTH3, lam) for lam in (1.5, 2.0, 3.0, 4.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# matching: every dispatch case lands on its target

def _check(result, u_star, tol=1e-8):
    assert result.residual == pytest.approx(0.0, abs=tol)
    assert result.attained == pytest.approx(u_star, abs=tol)


def test_match_tan_interior():
    res = match_maximum(TAN3, 4.5, 0.7)
    assert res.case == "tan-interior"
    _check(res, 0.7)
    sol = solve_ivp(res.params, 4.5, res.a)
    assert sol.m == pytest.approx(0.7, abs=1e-8)


def test_match_tan_symmetric():
    res = match_maximum(TAN3, 4.5, 1.0)
    assert res.case == "tan-symmetric"
    assert res.attained == 1.0
    sol = solve_ivp(res.params, 4.5, res.a)
    assert sol.m == pytest.approx(1.0, abs=1e-9)
    # symmetric: maximum at -a
    assert sol.b == pytest.approx(-res.a, abs=1e-9)


def test_match_tan_pole_boundary():
    lo = m_min(TAN3, 4.5)
    res = match_maximum(TAN3, 4.5, lo)
    assert res.case == "tan-pole"
    assert res.boundary
    assert res.residual == pytest.approx(0.0, abs=1e-10)


def test_match_tan_below_minimum():
    with pytest.raises(TargetBelowMinimum):
        match_maximum(TAN3, 4.5, 0.3)


def test_match_tan_anchor_degenerate():
    res = match_maximum(TAN3, 3.0, 1.0)
    assert res.case == "tan-anchor"
    assert res.boundary
    with pytest.raises(TargetBelowMinimum):
        match_maximum(TAN3, 3.0, 0.9)


def test_match_negative_supercritical_coth():
    lo = m_min(COTH3, 2.0)
    mc = constant_drift_limit(COTH3, 2.0)
    u = 0.5 * (lo + mc)
    res = match_maximum(COTH3, 2.0, u)
    assert res.case == "neg-super-coth"
    assert res.params.branch is Branch.COTH
    _check(res, u)
    sol = solve_ivp(res.params, 2.0, res.a)
    assert sol.m == pytest.approx(u, abs=1e-8)


def test_match_negative_supercritical_tanh():
    res = match_maximum(COTH3, 2.0, 0.5)
    assert res.case == "neg-super-tanh"
    assert res.params.branch is Branch.TANH
    _check(res, 0.5)
    sol = solve_ivp(res.params, 2.0, res.a)
    assert sol.m == pytest.approx(0.5, abs=1e-8)


def test_match_negative_constant_band():
    mc = constant_drift_limit(COTH3, 2.0)
    res = match_maximum(COTH3, 2.0, mc)
    assert res.case == "neg-constant"
    assert res.residual == pytest.approx(0.0, abs=1e-8)


def test_match_negative_pole_boundary():
    lo = m_min(COTH3, 2.0)
    res = match_maximum(COTH3, 2.0, lo)
    assert res.case == "neg-pole"
    assert res.boundary


def test_match_negative_subthreshold():
    res = match_maximum(COTH3, 0.9, 0.5)
    assert res.case == "neg-sub"
    assert res.params.branch is Branch.TANH
    _check(res, 0.5)
    sol = solve_ivp(res.params, 0.9, res.a)
    assert sol.m == pytest.approx(0.5, abs=1e-8)


def test_match_negative_subthreshold_small_target():
    # deep targets push the start toward the certified-infinite cutoff;
    # at 1e-3 the walk's far probe lies past it, where m counts as 0
    for u in (0.02, 1e-3):
        res = match_maximum(COTH3, 0.9, u)
        assert res.case == "neg-sub"
        assert res.residual == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("params, lam, u, case", [
    (TAN3, 4.5, 0.75, "tan-interior"),
    (COTH3, 3.0, 0.09, "neg-super-coth"),
    (COTH3, 3.0, 0.5, "neg-super-tanh"),
    (COTH3, 0.9, 0.05, "neg-sub"),
])
def test_match_solves_each_start_once(monkeypatch, params, lam, u, case):
    # the walk's probes, Brent's bracket ends, the returned start and the
    # singular-start minimum all share one solve per start
    solve, starts = matching.model.solve_ivp, []

    def counted(p, lam_bar, a):
        starts.append((p, a))
        return solve(p, lam_bar, a)

    monkeypatch.setattr(matching.model, "solve_ivp", counted)
    assert match_maximum(params, lam, u).case == case
    assert len(starts) == len(set(starts)), starts


@pytest.mark.parametrize("params, lam, u, case", [
    (TAN3, 4.5, 0.7, "tan-interior"),
    (COTH3, 3.0, 0.07, "neg-super-coth"),
    (COTH3, 3.0, 0.3, "neg-super-tanh"),
    (COTH3, 0.9, 0.9, "neg-sub"),
])
def test_match_stops_where_a_shot_resolves(params, lam, u, case):
    # Brent stops at the first start within model.RTOL u of the target;
    # the n = 3 closed form at that start still attains u to 1e-9
    res = match_maximum(params, lam, u)
    assert res.case == case
    assert abs(res.residual) <= matching.model.RTOL * u
    _, m = first_maximum(params.curv, lam, res.a, res.params.branch.value)
    assert m == pytest.approx(u, abs=1e-9)


def _count_shots(monkeypatch, cases):
    shoot, shots = matching.model._scipy_solve_ivp, []

    def counted(*args, **kwargs):
        shots[-1] += 1
        return shoot(*args, **kwargs)

    monkeypatch.setattr(matching.model, "_scipy_solve_ivp", counted)
    for params, lam, u in cases:
        shots.append(0)
        match_maximum(params, lam, u)
    return shots


def test_match_shot_count(monkeypatch):
    # the tan, supercritical and subthreshold families of the benchmark's
    # matching; the count repeats exactly (134 before the stopping rule,
    # m = 1 at the symmetric start and no m_min shot for tanh targets)
    cases = ([(TAN3, 4.5, u) for u in (0.55, 0.7, 0.85, 0.95)]
             + [(COTH3, 3.0, u) for u in (0.07, 0.09, 0.3, 0.6, 0.9)]
             + [(COTH3, 0.9, u) for u in (0.05, 0.3, 0.6, 0.9)])
    assert sum(_count_shots(monkeypatch, cases)) == 106


def test_match_shot_count_on_the_m_zero_plateau(monkeypatch):
    # small subthreshold targets, whose walk probes past the critical
    # start where m counts as 0: no more shots than 16, 18 and 16
    cases = [(ModelParams(4.0, -0.5, Branch.COTH), 0.3, 0.0044),
             (ModelParams(4.0, -0.5, Branch.COTH), 0.3, 1e-3),
             (COTH3, 0.9, 0.0016)]
    shots = _count_shots(monkeypatch, cases)
    assert all(n <= most for n, most in zip(shots, (16, 18, 16))), shots


def test_family_max_zero_only_below_threshold():
    # a tanh start far right of the critical position is certified never
    # to turn below the threshold and counts as m = 0; a tan start right
    # of the symmetric one runs into the pole, where 0 is no limit of m
    assert matching._family_max(TANH3, 0.9, 20.0) == 0.0
    with pytest.raises(CertifiedInfinite):
        matching._family_max(TAN3, 4.5, 0.5)


def test_match_zero_branch():
    res = match_maximum(ZERO3, 4.0, 1.0)
    assert res.case == "zero-symmetric"
    assert res.a == pytest.approx(-math.pi / 4.0, rel=1e-13)
    with pytest.raises(TargetBelowMinimum):
        match_maximum(ZERO3, 4.0, 0.9)


def test_match_input_validation():
    with pytest.raises(DomainError):
        match_maximum(TAN3, 4.5, 0.0)
    with pytest.raises(DomainError):
        match_maximum(TAN3, 4.5, 1.1)
    with pytest.raises(DomainError):
        match_maximum(TAN3, -1.0, 0.5)


@given(u=st.floats(min_value=0.05, max_value=0.999))
@settings(max_examples=15, deadline=None)
def test_match_tanh_family_property(u):
    """Property: matched starts reproduce their target maximum."""
    res = match_maximum(COTH3, 2.0, max(u, 0.05))
    assert abs(res.residual) < 1e-8


# ---------------------------------------------------------------------------
# reflection identity w_-(x) = -w(-x)/m

@pytest.mark.parametrize("params,lam,a", [
    (TANH3, 3.0, -1.3),
    (TAN3, 4.5, -1.0),
    (ZERO3, 4.0, -0.6),
])
def test_reflection_identity(params, lam, a):
    rep = reflection_check(params, lam, a)
    assert rep.sup_err < 1e-8
    assert rep.d_err < 1e-8
    assert rep.max_product_err < 1e-8


def test_reflection_rejects_coth():
    with pytest.raises(DomainError):
        reflection_check(COTH3, 2.0, 0.5)


# ---------------------------------------------------------------------------
# inner radius surrogate

def test_r_epsilon_zero_branch_closed_form():
    # w = -cos(sqrt(lam)(t - a)): level -1+eps at arccos(1-eps)/sqrt(lam)
    lam, eps, delta = 4.0, 0.3, 0.19
    want = math.sqrt(1.0 - delta) * math.acos(1.0 - eps) / math.sqrt(lam)
    assert r_epsilon(ZERO3, lam, 0.0, eps, delta) == pytest.approx(want, rel=1e-9)


def test_r_epsilon_validation():
    with pytest.raises(DomainError):
        r_epsilon(ZERO3, 4.0, 0.0, 0.3, 1.0)
    with pytest.raises(DomainError):
        r_epsilon(ZERO3, 4.0, 0.0, 0.0, 0.1)
    with pytest.raises(DomainError):
        r_epsilon(COTH3, 0.9, 1.0, 0.3, 0.1)  # never turns: no level
