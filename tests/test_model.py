"""Tests for the comparison-model ODE layer: drift families, the
Neumann shooting IVP, and the first-maximum search."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap import model
from specgap.eigen import symmetric_interval_length
from specgap.errors import DomainError, HorizonReached, IntegrationFailure
from specgap.model import (
    Branch,
    ModelParams,
    branch_for_curvature,
    drift_eval,
    prufer_angle,
    riccati_residual,
    solve_ivp,
    weight_mu,
)

TAN3 = ModelParams(3.0, 1.0, Branch.TAN)
TANH3 = ModelParams(3.0, -1.0, Branch.TANH)
COTH3 = ModelParams(3.0, -1.0, Branch.COTH)
ZERO3 = ModelParams(3.0, 0.0, Branch.ZERO)


# ---------------------------------------------------------------------------
# branch dispatch and parameter validation

def test_branch_for_curvature_dispatch():
    assert branch_for_curvature(1.0) is Branch.TAN
    assert branch_for_curvature(1.0, "pole") is Branch.TAN
    assert branch_for_curvature(-1.0) is Branch.TANH
    assert branch_for_curvature(-1.0, "pole") is Branch.COTH
    assert branch_for_curvature(0.0) is Branch.ZERO
    assert branch_for_curvature(0.0, "pole") is Branch.ZERO


def test_branch_curvature_mismatch_rejected():
    with pytest.raises(DomainError):
        ModelParams(3.0, -1.0, Branch.TAN)
    with pytest.raises(DomainError):
        ModelParams(3.0, 1.0, Branch.COTH)
    with pytest.raises(DomainError):
        ModelParams(3.0, 0.5, Branch.ZERO)


def test_dimension_must_exceed_one():
    with pytest.raises(DomainError):
        ModelParams(1.0, 1.0, Branch.TAN)
    with pytest.raises(DomainError):
        ModelParams(0.0, 0.0, Branch.ZERO)


def test_domains():
    p = math.pi / 2
    dom = TAN3.domain()
    assert dom.lo == pytest.approx(-p) and dom.hi == pytest.approx(p)
    assert dom.lo_singular and dom.hi_singular
    dom = COTH3.domain()
    assert dom.lo == 0.0 and dom.hi == math.inf and dom.lo_singular
    dom = TANH3.domain()
    assert dom.lo == -math.inf and dom.hi == math.inf
    assert not dom.lo_singular and not dom.hi_singular


# ---------------------------------------------------------------------------
# drift closed forms and the Riccati identity

def test_drift_values():
    # tan: +(N-1) sqrt(K) tan(sqrt(K) t); tanh/coth: -(N-1) sqrt(|K|) *
    assert drift_eval(TAN3, 0.5) == pytest.approx(2.0 * math.tan(0.5), rel=1e-14)
    assert drift_eval(TANH3, 0.5) == pytest.approx(-2.0 * math.tanh(0.5), rel=1e-14)
    assert drift_eval(COTH3, 0.5) == pytest.approx(-2.0 / math.tanh(0.5), rel=1e-14)
    assert drift_eval(ZERO3, 0.5) == 0.0
    assert drift_eval(TAN3, 0.0) == 0.0


def test_drift_scaling():
    # T_{N,K}(t) = sqrt(K) T_{N,1}(sqrt(K) t)
    p4 = ModelParams(3.0, 4.0, Branch.TAN)
    assert drift_eval(p4, 0.3) == pytest.approx(2.0 * drift_eval(TAN3, 0.6), rel=1e-13)


@pytest.mark.parametrize("params,span", [
    (TAN3, (-1.4, 1.4)),
    (TANH3, (-3.0, 3.0)),
    (COTH3, (0.05, 4.0)),
    (ZERO3, (-5.0, 5.0)),
])
def test_riccati_residual_vanishes(params, span):
    """Property: T' = T^2/(N-1) + (N-1)*Kbar along every branch."""
    t = np.linspace(*span, 313)
    res = riccati_residual(params, t)
    scale = 1.0 + np.abs(drift_eval(params, t)) ** 2
    assert np.max(np.abs(res) / scale) < 1e-8


@given(dim=st.floats(min_value=2.0, max_value=12.0),
       curv=st.floats(min_value=0.1, max_value=9.0),
       x=st.floats(min_value=-0.9, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_riccati_residual_tan_property(dim, curv, x):
    """Property: the Riccati identity holds for random (N, Kbar, t)."""
    p = ModelParams(dim, curv, Branch.TAN)
    t = x * (math.pi / 2) / math.sqrt(curv)
    assert abs(riccati_residual(p, t)) < 1e-7 * (1.0 + drift_eval(p, t) ** 2)


def test_weight_closed_forms():
    assert weight_mu(TAN3, 0.4) == pytest.approx(math.cos(0.4) ** 2, rel=1e-14)
    assert weight_mu(TANH3, 0.4) == pytest.approx(math.cosh(0.4) ** 2, rel=1e-14)
    assert weight_mu(COTH3, 0.4) == pytest.approx(math.sinh(0.4) ** 2, rel=1e-14)
    assert weight_mu(ZERO3, 0.4) == 1.0
    # weight vanishes at the tan pole and the coth origin
    assert weight_mu(TAN3, math.pi / 2) == pytest.approx(0.0, abs=1e-30)
    assert weight_mu(COTH3, 0.0) == pytest.approx(0.0, abs=1e-30)


# ---------------------------------------------------------------------------
# the zero branch has a closed-form solution: w = -cos(sqrt(lam) (t - a))

@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 9.869604401089358])
def test_zero_branch_closed_form(lam):
    sol = solve_ivp(ZERO3, lam, 0.25)
    root = math.sqrt(lam)
    assert sol.d == pytest.approx(math.pi / root, rel=1e-10)
    assert sol.m == pytest.approx(1.0, abs=1e-9)
    t = np.linspace(0.25, 0.25 + sol.d, 101)
    w_exact = -np.cos(root * (t - 0.25))
    assert np.max(np.abs([sol.w_at(x) for x in t] - w_exact)) < 1e-9


def test_initial_conditions_from_grid():
    sol = solve_ivp(TANH3, 3.0, -1.0)
    assert sol.a == -1.0
    assert sol.w_at(-1.0) == pytest.approx(-1.0, abs=1e-12)
    assert sol.wp_at(-1.0) == pytest.approx(0.0, abs=1e-12)


def test_wprime_positive_before_first_zero():
    sol = solve_ivp(TANH3, 3.0, -1.0)
    interior = np.linspace(sol.a + 1e-6, sol.b - 1e-6, 400)
    assert np.all(sol.wp_at(interior) > 0.0)
    assert sol.m > 0.0


# ---------------------------------------------------------------------------
# the scaled Pruefer angle phi = atan2(sqrt(lam) w, w')

@pytest.mark.parametrize("lam", [0.5, 4.0, 30.0])
def test_prufer_angle_zero_branch_closed_form(lam):
    # T = 0: phi' = sqrt(lam), from -pi/2 (regular) or 0 (odd)
    root = math.sqrt(lam)
    assert prufer_angle(ZERO3, lam, 0.25, 2.0) == pytest.approx(
        -math.pi / 2 + root * 1.75, abs=1e-11)
    assert prufer_angle(ZERO3, lam, 0.0, 1.3, odd=True) == pytest.approx(
        root * 1.3, abs=1e-11)


@pytest.mark.parametrize("params,lam,a", [
    (TANH3, 3.0, -1.0),
    (TAN3, 6.0, -math.pi / 2),   # Frobenius launch at the pole
    (COTH3, 4.0, 0.0),           # Frobenius launch at the origin
    (COTH3, 2.0, 0.7),
])
def test_prufer_angle_matches_trajectory(params, lam, a):
    """The angle at t is the unwrapped atan2(sqrt(lam) w, w') of the event
    shot's dense trajectory, up to its first maximum."""
    sol = solve_ivp(params, lam, a)
    t = np.linspace(a, sol.b, 25)[1:]
    ref = np.unwrap(np.arctan2(math.sqrt(lam) * sol.w_at(t), sol.wp_at(t)))
    got = [prufer_angle(params, lam, a, x) for x in t]
    assert np.max(np.abs(got - ref)) < 1e-8
    assert got[-1] == pytest.approx(math.pi / 2, abs=1e-8)


def test_prufer_angle_failure_is_typed(monkeypatch):
    # LSODA's failure report (here: too many steps) is an
    # IntegrationFailure, and no ODEintWarning escapes
    monkeypatch.setattr(model, "_ANGLE_MXSTEP", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailure):
            prufer_angle(TANH3, 3.0, 0.0, 10.0, odd=True)


def test_prufer_angle_that_never_moves_is_typed():
    # at lam = 1e300 LSODA reports success after one step that never
    # leaves the launch, which would read as the launch angle
    with pytest.raises(IntegrationFailure, match="short of"):
        prufer_angle(TAN3, 1e300, 0.0, 1.0, odd=True)
    with pytest.raises(IntegrationFailure):
        symmetric_interval_length(TAN3, 1e300)


# ---------------------------------------------------------------------------
# distance-to-first-maximum behavior

@pytest.mark.parametrize("params,a,lams", [
    (TAN3, -1.0, np.linspace(5.0, 12.0, 20)),
    (TANH3, -1.0, np.linspace(1.3, 6.0, 20)),
    (COTH3, 0.5, np.linspace(1.3, 6.0, 20)),
    (ZERO3, 0.0, np.linspace(0.5, 8.0, 20)),
])
def test_d_strictly_decreasing_in_lambda(params, a, lams):
    """Property: d(a, T, lam) is strictly decreasing in lam."""
    ds = [solve_ivp(params, lam, a).d for lam in lams]
    assert all(math.isfinite(x) for x in ds)
    assert all(x > y for x, y in zip(ds, ds[1:]))


def test_tan_low_lambda_has_no_interior_maximum():
    # below the closing eigenvalue N*Kbar the maximum escapes to the pole
    sol = solve_ivp(TAN3, 2.0, -1.2)
    assert sol.d == math.inf
    assert sol.certificate == "pole"


def test_subthreshold_certificate():
    # theta^2/4 = 1 for (N, Kbar) = (3, -1); lam below it never turns
    sol = solve_ivp(COTH3, 0.9, 1.0)
    assert sol.d == math.inf
    assert sol.certificate == "subthreshold"
    assert sol.m is None


def test_subthreshold_tanh_from_far_left_still_turns():
    # a start left of the symmetric point turns even below the threshold
    sol = solve_ivp(TANH3, 0.9, -2.0)
    assert sol.certificate == "event"
    assert sol.d == pytest.approx(2.769067218296516, rel=1e-7)
    assert sol.m == pytest.approx(4.637165057360913, rel=1e-7)


def n3_first_maximum(branch, K, lam, a, step=0.25):
    """(b, m): the first maximum of the N = 3 model, from its closed form.

    With mu = g^2, u = g w solves u'' + (lam + K) u = 0 from u(a) = -g(a),
    u'(a) = -g'(a), and w' = 0 where G = g u' - g' u vanishes; G > 0 right
    after the start, so the turn is G's first zero.  mpmath, 40 digits.
    """
    with mp.workdps(40):
        s = mp.sqrt(abs(mp.mpf(K)))
        z, a = mp.mpf(lam) + K, mp.mpf(a)
        k = mp.sqrt(mp.mpc(z))

        def g(t):
            return {"tan": (mp.cos(s * t), -s * mp.sin(s * t)),
                    "tanh": (mp.cosh(s * t), s * mp.sinh(s * t)),
                    "coth": (mp.sinh(s * t), s * mp.cosh(s * t))}[branch]

        g0, dg0 = g(a)

        def u(t):
            c, sn = mp.cos(k * (t - a)), (t - a) * mp.sinc(k * (t - a))
            return mp.re(-g0 * c - dg0 * sn), mp.re(g0 * z * sn - dg0 * c)

        def G(t):
            (gt, dgt), (ut, dut) = g(t), u(t)
            return gt * dut - dgt * ut

        t = a + step
        while G(t) > 0:
            t += step
        b = mp.findroot(G, (t - step, t), solver="anderson", verify=False)
        return float(b), float(u(b)[0] / g(b)[0])


@pytest.mark.parametrize("params,lam,a", [
    (COTH3, 1.05, 0.0), (COTH3, 1.05, 0.1), (TANH3, 1.05, 6.0)])
def test_small_maximum_matches_n3_closed_form(params, lam, a):
    # m ~ 6e-7 here: the angle and log-amplitude keep its relative
    # accuracy, where an absolute error control on (w, w') loses it
    b, m = n3_first_maximum(params.branch.value, params.curv, lam, a)
    sol = solve_ivp(params, lam, a)
    assert sol.certificate == "event"
    assert sol.b == pytest.approx(b, rel=1e-9)
    assert sol.m == pytest.approx(m, rel=1e-8)


@pytest.mark.parametrize("params,lam,step", [
    (ModelParams(3.0, 1e-6, Branch.TAN), 1.0, 0.25),
    (TAN3, 1e6, 1e-4)])
def test_pole_launch_at_large_lam_over_curvature(params, lam, step):
    # the Frobenius series must stay short against 1/sqrt(lam) as well as
    # 1/sqrt(Kbar): a launch 1e-3/sqrt(Kbar) out puts m 6.7e-4 off here
    a = params.domain().lo
    b, m = n3_first_maximum("tan", params.curv, lam, a, step)
    sol = solve_ivp(params, lam, a)
    assert sol.b == pytest.approx(b, rel=1e-9)
    assert sol.m == pytest.approx(m, rel=1e-9)


def test_horizon_reached_raises():
    # just above theta^2/4 = 1 the turn lies near pi/omega, omega =
    # sqrt(lam - 1): past the horizon of 1e3 at lam = 1 + 1e-12, inside
    # it at lam = 1.001, where m ~ 1e-43 keeps its relative accuracy
    for params, a in ((TANH3, 5.0), (TANH3, 0.0), (COTH3, 1.0), (COTH3, 0.0)):
        with pytest.raises(HorizonReached, match="horizon"):
            solve_ivp(params, 1.0 + 1e-12, a)
        b, m = n3_first_maximum(params.branch.value, params.curv, 1.001, a)
        sol = solve_ivp(params, 1.001, a)
        assert sol.d == pytest.approx(b - a, rel=1e-9)
        assert sol.m == pytest.approx(m, rel=1e-7)


def test_turn_above_decay_floor_still_reported():
    sol = solve_ivp(TANH3, 1.2, 5.0)
    assert sol.certificate == "event"
    assert sol.m > 1e-9


def test_start_outside_domain_rejected():
    with pytest.raises(DomainError):
        solve_ivp(TAN3, 4.0, 2.0)
    with pytest.raises(DomainError):
        solve_ivp(COTH3, 4.0, -0.1)
    with pytest.raises(DomainError):
        solve_ivp(ZERO3, -1.0, 0.0)


# ---------------------------------------------------------------------------
# singular launches

def test_pole_launch_matches_interior_limit():
    # launching exactly at the coth origin agrees with launches just inside
    ref = solve_ivp(COTH3, 4.0, 0.0)
    near = solve_ivp(COTH3, 4.0, 1e-6)
    assert near.d + 1e-6 == pytest.approx(ref.d, abs=1e-6)


# ---------------------------------------------------------------------------
# solution accessors

def test_w_inverse_roundtrip():
    sol = solve_ivp(TANH3, 3.0, -1.0)
    for y in (-1.0, -0.5, 0.0, 0.7, sol.m * 0.999):
        t = sol.w_inverse(y)
        assert sol.w_at(t) == pytest.approx(y, abs=1e-9)
    assert sol.w_inverse(-1.0) == sol.a


def test_w_inverse_range_checked():
    sol = solve_ivp(TANH3, 3.0, -1.0)
    with pytest.raises(DomainError):
        sol.w_inverse(-1.1)
    with pytest.raises(DomainError):
        sol.w_inverse(sol.m * 1.01)
