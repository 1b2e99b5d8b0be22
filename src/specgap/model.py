"""One-dimensional comparison models for spectral-gap estimates.

The model is the Sturm-Liouville operator

    L_T w = w'' - T w' ,

acting with Neumann conditions, where the drift T = T_{N,Kbar} solves the
Riccati equation

    T' = T^2 / (N - 1) + (N - 1) Kbar

for an effective dimension N > 1 and model curvature Kbar.  The four
solution branches are

    tan  :  T =  (N-1) sqrt(Kbar)  tan(sqrt(Kbar) t)    on (-P, P),
            P = pi / (2 sqrt(Kbar)),  Kbar > 0
    tanh :  T = -(N-1) sqrt(-Kbar) tanh(sqrt(-Kbar) t)  on R,  Kbar < 0
    coth :  T = -(N-1) sqrt(-Kbar) coth(sqrt(-Kbar) t)  on (0, inf), Kbar < 0
    zero :  T = 0                                       on R,  Kbar = 0

Each T equals -mu'/mu for the weight mu = cos^{N-1}, cosh^{N-1},
sinh^{N-1}, 1 respectively, so L_T is the radial part of the weighted
Laplacian and (mu w')' = -lambda mu w in self-adjoint form.

The initial value problem solved here is

    w'' - T w' + lambda w = 0,   w(a) = -1,   w'(a) = 0,

and the quantity of interest is d(a, T, lambda): the distance from a to
the first interior zero of w', together with the attained maximum
m = w(a + d).  Starts at a singular endpoint of the domain (tan's left
pole, coth's origin) use a Frobenius series launch; the tan branch is
classified analytically near its right pole, where the integrator cannot
go, via the flux representation mu w' = mu(t1) w'(t1) - lambda int mu w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.optimize import brentq

from .errors import (
    DomainError,
    HorizonReached,
    IntegrationFailure,
)

__all__ = [
    "Branch",
    "ModelParams",
    "Domain",
    "ModelSolution",
    "branch_for_curvature",
    "drift_eval",
    "riccati_residual",
    "weight_mu",
    "Shot",
    "shoot",
    "solve_ivp",
    "first_zero_of_wprime",
]

# Integrator controls.  The terminal event is located by the
# integrator's own root find on the dense output (well below 1e-12).
RTOL = 1e-10
ATOL = 1e-10

# Distance (in units of 1/sqrt(Kbar)) kept between the integrator and the
# tan-branch pole; the remaining sliver is handled by series/flux analysis.
_POLE_GAP = 1e-7

# |w'| guard: beyond this the singular mode has certifiably taken over.
_BLOW_FACTOR = 1e8

# Horizon (absolute length) when no other cap applies.
_DEFAULT_HORIZON = 1e3

# Sub-threshold certificate window, in units of 1/sqrt(|Kbar|).
_CERT_WINDOW = 50.0


class Branch(str, Enum):
    TAN = "tan"
    TANH = "tanh"
    COTH = "coth"
    ZERO = "zero"


def branch_for_curvature(curv: float, family: str = "symmetric") -> Branch:
    """Branch choice for a given model curvature.

    family="symmetric" picks the branch whose weight is even (used for
    symmetric-interval eigenvalue queries); family="pole" picks the
    comparison family that starts at a singular endpoint (used for the
    attained-maximum minimisation).
    """
    if curv > 0:
        return Branch.TAN
    if curv == 0:
        return Branch.ZERO
    if family == "pole":
        return Branch.COTH
    if family == "symmetric":
        return Branch.TANH
    raise DomainError(f"unknown family {family!r}")


@dataclass(frozen=True)
class ModelParams:
    """Effective dimension, model curvature and drift branch."""

    dim: float
    curv: float
    branch: Branch

    def __post_init__(self):
        if not (self.dim > 1.0):
            raise DomainError(f"effective dimension must exceed 1, got {self.dim}")
        if not math.isfinite(self.dim) or not math.isfinite(self.curv):
            raise DomainError("dimension and curvature must be finite")
        b = Branch(self.branch)
        object.__setattr__(self, "branch", b)
        if b is Branch.TAN and not self.curv > 0:
            raise DomainError("tan branch requires positive curvature")
        if b in (Branch.TANH, Branch.COTH) and not self.curv < 0:
            raise DomainError(f"{b.value} branch requires negative curvature")
        if b is Branch.ZERO and self.curv != 0:
            raise DomainError("zero branch requires zero curvature")

    @property
    def scale(self) -> float:
        """sqrt(|Kbar|); 0 on the zero branch."""
        return math.sqrt(abs(self.curv))

    @property
    def theta(self) -> float:
        """(N-1) sqrt(|Kbar|), the asymptotic drift magnitude."""
        return (self.dim - 1.0) * self.scale

    @property
    def essential_threshold(self) -> float:
        """theta^2/4: below it, negative-curvature solutions may never turn."""
        if self.branch in (Branch.TANH, Branch.COTH):
            return 0.25 * self.theta * self.theta
        return 0.0

    def domain(self) -> "Domain":
        if self.branch is Branch.TAN:
            p = 0.5 * math.pi / self.scale
            return Domain(-p, p, True, True)
        if self.branch is Branch.COTH:
            return Domain(0.0, math.inf, True, False)
        return Domain(-math.inf, math.inf, False, False)


@dataclass(frozen=True)
class Domain:
    lo: float
    hi: float
    lo_singular: bool
    hi_singular: bool


def drift_eval(params: ModelParams, t):
    """Drift T(t); t may be a scalar or an array, strictly inside the domain."""
    dom = params.domain()
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= dom.lo) or np.any(arr >= dom.hi):
        if not (dom.lo == -math.inf and dom.hi == math.inf):
            raise DomainError("drift evaluated at or beyond a domain endpoint")
    s = params.scale
    c = (params.dim - 1.0) * s
    if params.branch is Branch.TAN:
        out = c * np.tan(s * arr)
    elif params.branch is Branch.TANH:
        out = -c * np.tanh(s * arr)
    elif params.branch is Branch.COTH:
        out = -c / np.tanh(s * arr)
    else:
        out = np.zeros_like(arr)
    return out if arr.ndim else float(out)


def riccati_residual(params: ModelParams, t):
    """T'(t) - T(t)^2/(N-1) - (N-1) Kbar, with T' evaluated analytically."""
    arr = np.asarray(t, dtype=float)
    n1 = params.dim - 1.0
    k = params.curv
    s = params.scale
    T = np.asarray(drift_eval(params, arr), dtype=float)
    if params.branch is Branch.TAN:
        dT = n1 * k * (1.0 + np.tan(s * arr) ** 2)
    elif params.branch is Branch.TANH:
        dT = n1 * k / np.cosh(s * arr) ** 2
    elif params.branch is Branch.COTH:
        dT = -n1 * k / np.sinh(s * arr) ** 2
    else:
        dT = np.zeros_like(arr)
    out = dT - T * T / n1 - n1 * k
    return out if arr.ndim else float(out)


def weight_mu(params: ModelParams, t):
    """Weight mu with -mu'/mu = T; defined on the closed domain, 0 at poles."""
    dom = params.domain()
    arr = np.asarray(t, dtype=float)
    if np.any(arr < dom.lo) or np.any(arr > dom.hi):
        raise DomainError("weight evaluated outside the closed domain")
    s = params.scale
    n1 = params.dim - 1.0
    if params.branch is Branch.TAN:
        base = np.clip(np.cos(s * arr), 0.0, None)
        out = base ** n1
    elif params.branch is Branch.TANH:
        out = np.cosh(s * arr) ** n1
    elif params.branch is Branch.COTH:
        out = np.clip(np.sinh(s * arr), 0.0, None) ** n1
    else:
        out = np.ones_like(arr)
    return out if arr.ndim else float(out)


# ---------------------------------------------------------------------------
# Frobenius launch at a singular left endpoint.
#
# In the local coordinate s = t - pole both singular starts (tan's left
# pole, coth's origin) reduce to  w_ss + (N-1) f(s) w_s + lambda w = 0 with
# f(s) = 1/s + gamma s + O(s^3),  gamma = -Kbar/3.  The regular solution is
#     w(s) = -1 + A s^2 + B s^4 + O(s^6),
#     A = lambda / (2N),   B = -A (2 gamma (N-1) + lambda) / (4 (N+2)).

def _series_coeffs(params: ModelParams, lam: float, order: int):
    A = lam / (2.0 * params.dim)
    if order >= 4:
        gamma = -params.curv / 3.0
        B = -A * (2.0 * gamma * (params.dim - 1.0) + lam) / (4.0 * (params.dim + 2.0))
    else:
        B = 0.0
    return A, B


def _series_eval(A: float, B: float, s):
    s = np.asarray(s, dtype=float)
    w = -1.0 + A * s * s + B * s ** 4
    wp = 2.0 * A * s + 4.0 * B * s ** 3
    return w, wp


# ---------------------------------------------------------------------------
# Tail handling at the tan branch's right pole.
#
# With x the distance to the pole, mu(t) = sin^{N-1}(sqrt(K) x) and the
# flux v = mu w' satisfies v' = -lambda mu w.  Writing Q(x) for the weight
# mass int_0^x sin^{N-1}(sqrt(K) u) du, a zero of w' in the uncovered
# sliver (cap, pole) exists iff v_cap <= lambda w_cap Q(x_cap) (w near
# constant over the sliver), and then sits where the remaining mass
# balances the flux.

def _weight_mass_series(s: float, nu: float, x):
    """int_0^x sin(s u)^nu du for small s*x (three-term series)."""
    x = np.asarray(x, dtype=float)
    z = s * x
    z2 = z * z
    c0 = 1.0 / (nu + 1.0)
    c2 = -nu / (6.0 * (nu + 3.0))
    c4 = (nu / 120.0 + nu * (nu - 1.0) / 72.0) / (nu + 5.0)
    out = z ** (nu + 1.0) * (c0 + c2 * z2 + c4 * z2 * z2) / s
    return out if x.ndim else float(out)


def _tan_tail_zero(params: ModelParams, lam: float, t_end: float,
                   w_end: float, wp_end: float):
    """Locate a w'-zero between t_end and the pole, or return None.

    Returns (t_star, m_estimate) when the zero falls in the sliver.
    """
    if w_end <= 0.0 or wp_end <= 0.0:
        # flux v = mu w' cannot come down to zero while w <= 0
        return None
    p = params.domain().hi
    s = params.scale
    nu = params.dim - 1.0
    x_cap = p - t_end
    v_cap = weight_mu(params, t_end) * wp_end
    mass = _weight_mass_series(s, nu, x_cap)
    budget = lam * w_end * mass
    if v_cap > budget:
        return None
    target = mass - v_cap / (lam * w_end)
    x_star = brentq(lambda x: _weight_mass_series(s, nu, x) - target,
                    0.0, x_cap, xtol=1e-300, rtol=8.9e-16)
    t_star = p - x_star
    m_est = w_end + 0.5 * wp_end * (t_star - t_end)
    return t_star, m_est


# ---------------------------------------------------------------------------
# The shooting primitive: launch, cap, integrate, classify the first w' zero.

@dataclass
class Shot:
    """One integration of the model ODE up to its first w'-zero.

    kind is "event" (the integrator located the zero), "tail" (the zero
    sits in the sliver at the tan pole), "blow" (|w'| passed the growth
    guard), "collapse" (the state decayed to nothing below the essential
    threshold) or "cap" (no zero before the cap).  series holds
    (a, h, A, B) when the run was launched by the Frobenius series.
    """

    kind: str
    t_zero: float | None
    y_zero: tuple | None
    t_end: float
    y_end: tuple
    sol: object             # scipy OdeSolution (dense)
    steps: np.ndarray       # integrator steps, from the launch point on
    series: tuple | None = None


def _make_rhs(params: ModelParams, lam: float):
    s = params.scale
    c = (params.dim - 1.0) * s
    br = params.branch
    if br is Branch.TAN:
        return lambda t, y: (y[1], c * math.tan(s * t) * y[1] - lam * y[0])
    if br is Branch.TANH:
        return lambda t, y: (y[1], -c * math.tanh(s * t) * y[1] - lam * y[0])
    if br is Branch.COTH:
        return lambda t, y: (y[1], -c / math.tanh(s * t) * y[1] - lam * y[0])
    return lambda t, y: (y[1], -lam * y[0])


def shoot(params: ModelParams, lam: float, a: float, *, odd: bool = False,
          reach: float | None = None, series_step: float | None = None,
          series_order: int = 4, collapse: bool = False) -> Shot:
    """Launch the model ODE at a and run it to its first w'-zero.

    The start is w = -1, w' = 0, or w = 0, w' = 1 when odd is set; at a
    singular left end the regular solution is launched by a Frobenius
    series of the given order over series_step (default
    1e-3/sqrt(|Kbar|)).  The run ends at the absolute position reach
    (default a + 1e3, a + 50/sqrt(|Kbar|) below the essential threshold,
    no limit on tan), and on tan _POLE_GAP/sqrt(Kbar) short of the pole.
    collapse tightens atol below the threshold and stops once the state
    has decayed, as solve_ivp's no-turning certificate needs.
    """
    dom = params.domain()
    subthreshold = lam <= params.essential_threshold
    if reach is None:
        if params.branch is Branch.TAN:
            reach = math.inf
        else:
            reach = a + (_CERT_WINDOW / params.scale if subthreshold
                         else _DEFAULT_HORIZON)
    t_cap = reach
    if params.branch is Branch.TAN:
        t_cap = min(dom.hi - _POLE_GAP / params.scale, reach)

    series = None
    if odd:
        t0, y0 = a, (0.0, 1.0)
    elif a == dom.lo and dom.lo_singular:
        h = series_step if series_step is not None else 1e-3 / params.scale
        A, B = _series_coeffs(params, lam, series_order)
        w0, wp0 = _series_eval(A, B, h)
        t0, y0 = a + h, (float(w0), float(wp0))
        series = (a, h, A, B)
    else:
        t0, y0 = a, (-1.0, 0.0)
    if t0 >= t_cap:
        raise DomainError("start too close to the integration cap")

    shot = _integrate_first_wprime_zero(params, lam, t0, y0, t_cap,
                                        collapse and subthreshold)
    shot.series = series
    return shot


def _integrate_first_wprime_zero(params: ModelParams, lam: float,
                                 t0: float, y0, t_cap: float,
                                 collapse: bool) -> Shot:
    """Integrate w'' = T w' - lam w from (t0, y0) until w' first crosses zero.

    Stops at t_cap otherwise, or with collapse set (below the essential
    threshold) once the whole state has decayed, integrating with atol
    1e-13 there.  On the tan branch with t_cap at the pole
    gap, a no-event outcome is refined by the flux analysis of the
    remaining sliver ("tail").  The |w'| guard stops hopeless runs into
    the tan pole's singular mode early ("blow").
    """
    rhs = _make_rhs(params, lam)

    def ev_wprime(t, y):
        return y[1]
    ev_wprime.terminal = True
    ev_wprime.direction = -1

    blow_cap = _BLOW_FACTOR * max(1.0, lam, abs(y0[1]))

    def ev_blow(t, y):
        return abs(y[1]) - blow_cap
    ev_blow.terminal = True
    ev_blow.direction = 1

    events = [ev_wprime, ev_blow]
    if collapse:
        # whole state below 1e-9: pure decay, no turning point ahead
        def ev_collapse(t, y):
            return y[0] * y[0] + y[1] * y[1] - 1e-18
        ev_collapse.terminal = True
        ev_collapse.direction = -1
        events.append(ev_collapse)

    sol = _scipy_solve_ivp(rhs, (t0, t_cap), list(y0), method="DOP853",
                           rtol=RTOL, atol=1e-13 if collapse else ATOL,
                           events=events,
                           dense_output=True)
    if sol.status == -1 or not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationFailure(f"integrator failed: {sol.message}")

    t_end = float(sol.t[-1])
    y_end = (float(sol.y[0, -1]), float(sol.y[1, -1]))

    if sol.t_events[0].size:
        tz = float(sol.t_events[0][0])
        yz = (float(sol.y_events[0][0][0]), float(sol.y_events[0][0][1]))
        return Shot("event", tz, yz, tz, yz, sol.sol, sol.t)

    for i, kind in zip(range(1, len(events)), ("blow", "collapse")):
        if sol.t_events[i].size:
            y = sol.y_events[i][0]
            return Shot(kind, None, None, float(sol.t_events[i][0]),
                        (float(y[0]), float(y[1])), sol.sol, sol.t)

    if params.branch is Branch.TAN:
        p = params.domain().hi
        if p - t_cap <= 2.0 * _POLE_GAP / max(params.scale, 1e-300):
            tail = _tan_tail_zero(params, lam, t_end, y_end[0], y_end[1])
            if tail is not None:
                t_star, m_est = tail
                return Shot("tail", t_star, (m_est, 0.0), t_end, y_end,
                            sol.sol, sol.t)

    return Shot("cap", None, None, t_end, y_end, sol.sol, sol.t)


# ---------------------------------------------------------------------------
# Public IVP driver and the solution object.

@dataclass
class ModelSolution:
    """Trajectory of the model IVP together with its first-maximum data.

    d is the distance from the start a to the first interior zero of w'
    (math.inf when certified absent), b = a + d, and m = w(b) in (0, inf).
    certificate records how the outcome was established; boundary is True
    when the maximum sits in the analytically handled sliver at the tan
    pole (full-interval boundary case).  t, w and wp sample the
    trajectory at the integrator's steps and 400 even points, after the
    series launch when there is one; they are built on first read.
    """

    params: ModelParams
    lambda_bar: float
    a: float
    d: float
    b: float | None
    m: float | None
    certificate: str
    boundary: bool
    _shot: Shot = field(repr=False)

    @cached_property
    def _grid(self):
        shot = self._shot
        fill = np.linspace(shot.steps[0], shot.t_end, 400)
        t = np.unique(np.concatenate([shot.steps, fill]))
        w, wp = shot.sol(t)
        if shot.series is not None:
            a0, h, A, B = shot.series
            s = np.linspace(0.0, h, 17)
            ws, wps = _series_eval(A, B, s)
            t = np.concatenate([a0 + s[:-1], t])
            w = np.concatenate([ws[:-1], w])
            wp = np.concatenate([wps[:-1], wp])
        return t, w, wp

    t = property(lambda self: self._grid[0])
    w = property(lambda self: self._grid[1])
    wp = property(lambda self: self._grid[2])

    def _eval(self, t, deriv: bool):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(arr)
        shot = self._shot
        lo, hi = float(shot.steps[0]), shot.t_end
        for i, ti in enumerate(arr):
            if shot.series is not None and ti < lo:
                a0, _h, A, B = shot.series
                s = max(ti - a0, 0.0)
                w, wp = _series_eval(A, B, s)
                out[i] = wp if deriv else w
            else:
                tc = min(max(ti, lo), hi)
                out[i] = shot.sol(tc)[1 if deriv else 0]
        return out if np.asarray(t).ndim else float(out[0])

    def w_at(self, t):
        return self._eval(t, deriv=False)

    def wp_at(self, t):
        return self._eval(t, deriv=True)

    def w_inverse(self, y: float) -> float:
        """Inverse of w on its computed monotone ascent.

        That segment runs from a to the first maximum when one exists,
        and to the end of the integrated trajectory otherwise (w' never
        crossed zero there, so w is still monotone).
        """
        t_end = self._shot.t_end
        if math.isfinite(self.d) and self.m is not None:
            top_t, top_w = self.b, self.m
        else:
            top_t = t_end
            top_w = self.w_at(top_t)
        if not (-1.0 <= y <= top_w):
            raise DomainError(f"value {y} outside the range [-1, {top_w}]")
        if y == -1.0:
            return self.a
        hi = min(top_t, t_end)
        w_hi = self.w_at(hi)
        if y >= w_hi:
            # sliver beyond the dense span (tan boundary case): linear bridge
            if top_t > hi and top_w > w_hi:
                return hi + (top_t - hi) * (y - w_hi) / (top_w - w_hi)
            return hi
        return brentq(lambda t: self.w_at(t) - y, self.a, hi,
                      xtol=1e-14, rtol=8.9e-16)


def solve_ivp(params: ModelParams, lambda_bar: float, a: float, *,
              horizon: float | None = None,
              series_step: float | None = None,
              series_order: int = 4) -> ModelSolution:
    """Solve the model IVP w(a) = -1, w'(a) = 0 and find the first maximum.

    horizon is the maximum integrated length (default 1e3, or the
    50/sqrt(|Kbar|) certificate window below the essential threshold).
    Singular starts launch with a Frobenius series of the given order
    over series_step (default 1e-3/sqrt(|Kbar|)).
    """
    if not (lambda_bar > 0.0) or not math.isfinite(lambda_bar):
        raise DomainError(f"lambda_bar must be positive, got {lambda_bar}")
    dom = params.domain()
    if not (dom.lo <= a < dom.hi):
        raise DomainError(f"start {a} outside domain [{dom.lo}, {dom.hi})")

    shot = shoot(params, lambda_bar, a,
                 reach=None if horizon is None else a + horizon,
                 series_step=series_step, series_order=series_order,
                 collapse=True)

    certificate = shot.kind
    d, b, m = math.inf, None, None
    if shot.kind in ("event", "tail"):
        d, b, m = shot.t_zero - a, shot.t_zero, shot.y_zero[0]
    elif shot.kind == "blow":
        if params.branch is not Branch.TAN:
            raise IntegrationFailure("solution exceeded the growth guard")
        certificate = "pole-blowup"
    elif params.branch is Branch.TAN:  # cap
        certificate = "pole-regular"
    elif lambda_bar <= params.essential_threshold:  # cap / collapse
        _certify_subthreshold(params, lambda_bar, shot)
        certificate = "subthreshold"
    else:
        raise HorizonReached(
            f"no w' zero within horizon ending at t = {shot.t_end:.6g}; "
            "increase horizon")

    return ModelSolution(params=params, lambda_bar=lambda_bar, a=a, d=d,
                         b=b, m=m, certificate=certificate,
                         boundary=shot.kind == "tail", _shot=shot)


def _certify_subthreshold(params: ModelParams, lam: float,
                          shot: Shot) -> None:
    """Check the no-turning certificate below the essential threshold.

    Requires w still negative at the end and the logarithmic derivative
    settled near the slow decay root (-theta + sqrt(theta^2 - 4 lam))/2.
    """
    w_end, wp_end = shot.y_end
    if not (w_end < 0.0):
        raise HorizonReached("certificate failed: w crossed zero "
                             "without an interior maximum in the window")
    theta = params.theta
    disc = max(theta * theta - 4.0 * lam, 0.0)
    root = 0.5 * (-theta + math.sqrt(disc))
    ratio = wp_end / w_end
    # the critical case approaches its double root only algebraically
    tol = max(1e-6, 4.0 / max(shot.t_end - shot.steps[0], 1.0))
    if abs(ratio - root) > tol * (1.0 + abs(root)):
        raise HorizonReached(
            f"certificate failed: w'/w = {ratio:.6g} not settled at "
            f"decay root {root:.6g}")


def first_zero_of_wprime(params: ModelParams, lambda_bar: float, a: float,
                         **kwargs) -> float:
    """d(a, T, lambda): distance to the first interior zero of w' (inf allowed)."""
    return solve_ivp(params, lambda_bar, a, **kwargs).d
