"""Tests for the comparison-model ODE layer: drift families, the
Neumann shooting IVP, and the first-maximum search."""

import functools
import math
import warnings
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap import _ode, model
from specgap.eigen import symmetric_interval_length
from specgap.errors import (BracketFailure, DomainError, HorizonReached,
                            IntegrationFailure)
from specgap.model import (
    Branch,
    ModelParams,
    branch_for_curvature,
    drift_eval,
    riccati_residual,
    solve_ivp,
    weight_mu,
)

from n3_oracle import first_maximum
from prufer_oracle import prufer_angle

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
# the scaled Pruefer angle phi = atan2(sqrt(lam) w, w') to a fixed end, the
# tests-side oracle's (prufer_oracle.py), on the model's launch, right-hand
# side and integrator

@pytest.mark.parametrize("lam", [0.5, 4.0, 30.0])
def test_prufer_angle_zero_branch_closed_form(lam):
    # T = 0: phi' = sqrt(lam) from -pi/2; the odd start turns at
    # pi/(2 sqrt(lam)), half the symmetric interval
    root = math.sqrt(lam)
    assert prufer_angle(ZERO3, lam, 0.25, 2.0) == pytest.approx(
        -math.pi / 2 + root * 1.75, abs=1e-11)
    assert symmetric_interval_length(ZERO3, lam) == pytest.approx(
        math.pi / root, rel=1e-12)


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
    # a shot that runs out of steps is an IntegrationFailure, and no
    # warning escapes
    monkeypatch.setattr(_ode, "_MAX_STEPS", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationFailure):
            prufer_angle(TANH3, 3.0, 0.0, 10.0)


def test_prufer_angle_that_never_moves_is_typed():
    # at lam = 1e300 the angle's rate sqrt(lam) overflows the error norm
    # before the first step, which must not read as the launch angle
    with pytest.raises(IntegrationFailure):
        prufer_angle(TAN3, 1e300, 0.0, 1.0)
    # the odd shot moves: its turn is where the drift is negligible
    assert symmetric_interval_length(TAN3, 1e300) == pytest.approx(
        math.pi / 1e150, rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("params,lam,a", [
    (COTH3, 1.05, 0.0), (COTH3, 1.05, 0.1), (TANH3, 1.05, 6.0)])
def test_small_maximum_matches_n3_closed_form(params, lam, a):
    # m ~ 6e-7 here: the angle and log-amplitude keep its relative
    # accuracy, where an absolute error control on (w, w') loses it
    b, m = first_maximum(params.curv, lam, a, params.branch.value)
    sol = solve_ivp(params, lam, a)
    assert sol.certificate == "event"
    assert sol.b == pytest.approx(b, rel=1e-9)
    assert sol.m == pytest.approx(m, rel=1e-8)


@pytest.mark.parametrize("params,lam", [
    (ModelParams(3.0, 1e-6, Branch.TAN), 1.0), (TAN3, 1e6)])
def test_pole_launch_at_large_lam_over_curvature(params, lam):
    # the Frobenius series must stay short against 1/sqrt(lam) as well as
    # 1/sqrt(Kbar): a launch 1e-3/sqrt(Kbar) out puts m 6.7e-4 off here
    a = params.domain().lo
    b, m = first_maximum(params.curv, lam, a, "tan")
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
        b, m = first_maximum(params.curv, 1.001, a, params.branch.value)
        sol = solve_ivp(params, 1.001, a)
        assert sol.d == pytest.approx(b - a, rel=1e-9)
        assert sol.m == pytest.approx(m, rel=1e-7)


def test_turn_within_float_spacing_of_start_raises():
    # d = t_event - a from a shot in t: at a = -1 the float spacing
    # carries a turn pi/sqrt(lam) away to RTOL at lam = 1e10, not at 1e30
    # (d came out 1% off) or 1e100 (d came out 0.0)
    lam = 1e10
    assert solve_ivp(TANH3, lam, -1.0).d == pytest.approx(
        math.pi / math.sqrt(lam), rel=1e-9)
    for lam in (1e30, 1e100):
        with pytest.raises(IntegrationFailure, match="float spacing"):
            solve_ivp(TANH3, lam, -1.0)


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


# ---------------------------------------------------------------------------
# the in-package DOP853 shot against scipy's on the same right-hand side

SHOTS = [
    (TAN3, 6.0, -1.0, "event"),
    (TAN3, 6.0, -math.pi / 2, "event"),     # Frobenius launch at the pole
    (COTH3, 4.0, 0.0, "event"),             # Frobenius launch at the origin
    (TANH3, 3.0, -1.0, "event"),            # above theta^2/4 = 1
    (TANH3, 0.9, 1.0, "subthreshold"),
    (TAN3, 2.0, -1.2, "pole"),
]


@pytest.mark.parametrize("params,lam,a,certificate", SHOTS)
def test_shot_takes_scipy_dop853_steps(monkeypatch, params, lam, a,
                                       certificate):
    """As many accepted steps as scipy's solve_ivp(method="DOP853"), the
    same event and m to 1e-13, the same dense trajectory to 1e-12.

    The step sizes agree only to about 1e-8: the controller reads an
    error estimate that cancels down to its last few digits, whose
    rounding depends on the summation order.  Where it reads rounding
    noise alone (the settled decay of the subthreshold run, rho's steep
    climb into the tan pole) step ends drift apart by up to 1e-3 of a
    step, and the runs without a turn agree only to the requested
    tolerance: 2.5e-12 and 1.6e-11 relative today.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    calls = []

    def recorded(*args):
        calls.append((args, _ode.shoot(*args)))
        return calls[-1][1]

    monkeypatch.setattr(model, "_scipy_solve_ivp", recorded)
    sol = solve_ivp(params, lam, a)
    assert sol.certificate == certificate
    sol.w_at(sol.a)  # the dense re-run
    (args, shot), (_, dense) = calls
    (rhs, _, _), t0, phi0, rho0, t_end, _, rtol, atol = args[:8]

    def turn(t, y):
        return y[0] - math.pi / 2
    turn.terminal, turn.direction = True, 1
    ref = scipy_solve_ivp(lambda t, y: rhs(t, y[0]), (t0, t_end),
                          [phi0, rho0], method="DOP853", rtol=rtol,
                          atol=atol, events=turn, dense_output=True)
    assert shot.nsteps == dense.nsteps == ref.t.size - 1
    assert shot.event == dense.event == (certificate == "event")
    t = np.linspace(t0, shot.t, 50)
    diff = np.abs(dense.sol(t) - ref.sol(t))
    if shot.event:
        assert shot.t == pytest.approx(ref.t_events[0][0], rel=1e-13)
        assert math.exp(shot.rho) == pytest.approx(
            math.exp(ref.y_events[0][0][1]), rel=1e-13)
        assert dense.sol.t_max == pytest.approx(ref.sol.t_max, rel=1e-13)
        assert np.max(diff) < 1e-12
    else:
        assert shot.t == dense.sol.t_max == ref.t[-1] == t_end
        # the integrator's own error scale, atol + rtol |y|
        end = np.array([shot.phi, shot.rho])
        assert np.all(np.abs(end - ref.y[:, -1]) <= atol + rtol * np.abs(end))
        assert np.all(diff <= atol + rtol * np.abs(ref.sol(t)))


# _ode's kernels write the right-hand side into a step written out from
# the tableau; here is its loop form, driven by the right-hand side as a
# closure over math's drift

def reference_rhs(params, form, *scale):
    """The Pruefer right-hand side of model._pruefer(params, form, *scale)
    as a closure (phi', rho') at (t, phi)."""
    s = params.scale
    c = (params.dim - 1.0) * s
    T = {Branch.TAN: lambda t: c * math.tan(s * t),
         Branch.TANH: lambda t: -c * math.tanh(s * t),
         Branch.COTH: lambda t: -c / math.tanh(s * t),
         Branch.ZERO: lambda t: 0.0}[params.branch]
    if form == "event":
        (k,) = scale

        def rhs(t, phi):
            Tt, c = T(t), math.cos(phi)
            return k - Tt * math.sin(phi) * c, Tt * c * c
    else:
        S, q = scale

        def rhs(t, phi):
            s, c = math.sin(phi), math.cos(phi)
            return S * c * c + q * s * s - T(t) * s * c, 0.0
    return rhs


def _dot(a, k):
    return sum(map(mul, a, k))


def reference_step(rhs, t, h, t_new, phi, rho, fp, fr):
    """A kernel's step as loops over the tableau rows, 0.0 terms included."""
    kp, kr = [fp], [fr]
    for c, a in _ode._STAGES:
        p, r = rhs(t + c * h, phi + h * _dot(a, kp))
        kp.append(p)
        kr.append(r)
    phi_new = phi + h * _dot(_ode._B, kp)
    rho_new = rho + h * _dot(_ode._B, kr)
    p, r = rhs(t_new, phi_new)
    kp.append(p)
    kr.append(r)
    return (phi_new, rho_new, _dot(_ode._E5, kp), _dot(_ode._E5, kr),
            _dot(_ode._E3, kp), _dot(_ode._E3, kr), tuple(kp), tuple(kr))


def reference_coefficients(rhs, t, h, phi, kp, kr, dphi, drho):
    """A kernel's coefficients as loops over the tableau rows."""
    kp, kr = list(kp), list(kr)
    for c, a in _ode._EXTRA:
        p, r = rhs(t + c * h, phi + h * _dot(a, kp))
        kp.append(p)
        kr.append(r)
    return tuple((d, h * k[0] - d, 2.0 * d - h * (k[12] + k[0]),
                  *(h * _dot(row, k) for row in _ode._D))
                 for d, k in ((dphi, kp), (drho, kr)))


def loop_form(rhs):
    """The (rhs, step, coefficients) that _ode.shoot takes, as loops."""
    return (rhs, functools.partial(reference_step, rhs),
            functools.partial(reference_coefficients, rhs))


def scale_of(form, lam):
    """The angle's scale: k, or (S, q) as in model.odd_turn."""
    k = math.sqrt(lam)
    if form == "event":
        return (k,)
    S = min(k, lam)
    return (S, lam / S)


@pytest.mark.parametrize("params,t_lo,t_hi,h_hi", [
    (TAN3, -1.4, 0.9, 0.3),
    (TANH3, -6.0, 6.0, 2.0),
    (COTH3, 0.01, 6.0, 2.0),
    (ZERO3, -6.0, 6.0, 2.0),
])
def test_step_equals_loop_form(params, t_lo, t_hi, h_hi):
    """A kernel's right-hand side, step and dense coefficients, in both
    angle forms, round exactly as the closure and the loops do: the same
    operations in the same order, and dropping a 0.0 * k term adds
    nothing to a finite sum."""
    rng = np.random.default_rng(14)
    for _ in range(200):
        lam, t, h, phi, rho = (float(x) for x in rng.uniform(
            (0.1, t_lo, 1e-4, -3.0, -30.0), (60.0, t_hi, h_hi, 3.0, 30.0)))
        for form in ("event", "odd"):
            scale = scale_of(form, lam)
            rhs, step, coefficients = model._pruefer(params, form, *scale)
            ref = reference_rhs(params, form, *scale)
            fp, fr = rhs(t, phi)
            assert (fp, fr) == ref(t, phi)
            args = (t, h, t + h, phi, rho, fp, fr)
            got = step(*args)
            assert got == reference_step(ref, *args)
            dense = (t, h, phi, got[6], got[7], got[0] - phi, got[1] - rho)
            assert coefficients(*dense) == reference_coefficients(ref, *dense)


def kernel_shots(monkeypatch, params, lam, a):
    """The certificate of solve_ivp(params, lam, a), and (closure
    right-hand side, kernel, shot arguments) of its event shot and of an
    odd-form shot over its span, from phi = 0 at odd_turn's tolerances."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(model, "_scipy_solve_ivp",
                  lambda *args: calls.append(args) or _ode.shoot(*args))
        certificate = solve_ivp(params, lam, a).certificate
    (f, *args), = calls
    S, q = scale_of("odd", lam)
    odd = (args[0], 0.0, 0.0, args[3], args[4], model.ODD_RTOL,
           1e-3 * model.ODD_RTOL * S)
    return certificate, [
        (reference_rhs(params, "event", *scale_of("event", lam)), f,
         args[:7]),
        (reference_rhs(params, "odd", S, q),
         model._pruefer(params, "odd", S, q), odd)]


# with the zero branch, whose error estimate is rounding noise alone, so
# that its steps need not be scipy's
@pytest.mark.parametrize("params,lam,a,certificate",
                         SHOTS + [(ZERO3, 2.0, -1.0, "event")])
def test_shot_equals_loop_form_shot(monkeypatch, params, lam, a,
                                    certificate):
    """Whole shots on a kernel, in both angle forms, take the same steps
    to the last bit as on the loop form, with and without dense output."""
    got_certificate, shots = kernel_shots(monkeypatch, params, lam, a)
    assert got_certificate == certificate
    for rhs, f, args in shots:
        got = [_ode.shoot(f, *args, dense_output=dense)
               for dense in (False, True)]
        want = [_ode.shoot(loop_form(rhs), *args, dense_output=dense)
                for dense in (False, True)]
        fields = ("t", "phi", "rho", "event", "nfev", "nsteps")
        for g, w in zip(got, want):
            assert ([getattr(g, name) for name in fields]
                    == [getattr(w, name) for name in fields])
        g, w = got[1].sol, want[1].sol
        assert (g.t_min, g.t_max) == (w.t_min, w.t_max)
        for name in ("_ends", "_t_old", "_h", "_y0", "_F"):
            assert np.array_equal(getattr(g, name), getattr(w, name))
    assert got[0].event  # the odd shot turns on each span


@pytest.mark.parametrize("params,lam,a,certificate", [
    (TAN3, 6.0, -1.0, "event"),
    (TAN3, 2.0, -1.2, "pole"),
    (TANH3, 0.9, 1.0, "subthreshold"),
])
def test_nfev_counts_rhs_calls(monkeypatch, params, lam, a, certificate):
    """Shot.nfev, which the benchmark reads as its right-hand side
    count, is the number of stage evaluations, with and without dense
    output: the calls of the loop form, whose shots are the kernel's."""
    got_certificate, shots = kernel_shots(monkeypatch, params, lam, a)
    assert got_certificate == certificate
    for rhs, f, args in shots:
        calls = []

        def rhs_counted(t, phi):
            calls.append(t)
            return rhs(t, phi)

        counted = []
        for dense in (False, True):
            calls.clear()
            shot = _ode.shoot(loop_form(rhs_counted), *args,
                              dense_output=dense)
            assert (shot.sol is not None) == dense
            assert shot.nfev == len(calls)
            assert shot.nfev == _ode.shoot(f, *args, dense_output=dense).nfev
            counted.append(len(calls))
        assert counted[1] > counted[0]


@pytest.mark.parametrize("bad", range(14))
def test_infinite_rhs_value_raises(bad):
    # calls 0 and 1 are the start and the initial-step probe, 2..13 the
    # twelve of the first step
    rhs, calls = reference_rhs(TAN3, "event", math.sqrt(6.0)), []

    def spiked(t, phi):
        calls.append(t)
        return (math.inf, math.inf) if len(calls) == bad + 1 else rhs(t, phi)

    with pytest.raises(IntegrationFailure):
        _ode.shoot(loop_form(spiked), -1.0, -0.5 * math.pi, 0.0, 1.5,
                   0.5 * math.pi, 1e-10, 1e-10)


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    (math.cos, 0.0, 3.0),
    (lambda x: math.exp(x) - 1e3, -5.0, 20.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),  # step-like
])
def test_brentq_takes_scipys_iterates(f, a, b):
    from scipy.optimize import brentq as scipy_brentq

    want, got = [], []
    root = scipy_brentq(lambda x: want.append(x) or f(x), a, b, xtol=1e-14,
                        rtol=8.9e-16)
    assert _ode.brentq(lambda x: got.append(x) or f(x), a, b,
                             xtol=1e-14, rtol=8.9e-16) == root
    assert got == want


def test_brentq_failures_are_typed():
    with pytest.raises(BracketFailure, match="bracket"):
        _ode.brentq(math.cos, 0.0, 1.0, 1e-14, 8.9e-16)
    with pytest.raises(BracketFailure, match="converge"):
        _ode.brentq(math.cos, 0.0, 3.0, 1e-14, 8.9e-16, maxiter=2)
