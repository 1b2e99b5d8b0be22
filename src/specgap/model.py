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

Two integrations start from the launch w(a) = -1, w'(a) = 0 (or the odd
start w(a) = 0, w'(a) = 1 for eigenvalues); starts at a singular endpoint
of the domain (tan's left pole, coth's origin) use a Frobenius series.

* prufer_angle integrates the scaled Pruefer angle
  phi = atan2(sqrt(lambda) w, w'), which obeys the bounded equation
  phi' = sqrt(lambda) - T sin(2 phi) / 2, to a fixed end b (Pruefer 1926;
  Pryce, Numerical Solution of Sturm-Liouville Problems, 1993, ch. 5).
  phi(b) is continuous and strictly increasing in lambda, and w'(b) = 0
  exactly where phi(b) = pi/2 mod pi, so Neumann eigenvalues are roots
  of phi(b) - pi/2 with no event, cap or blow-up guard.
* solve_ivp locates the first interior zero of w' with an event and
  returns one record per shot, the ModelSolution, which keeps the dense
  trajectory for the callers that read w itself: d(a, T, lambda) is the
  distance from a to that zero and m = w(a + d) the attained maximum.
  On the tan branch this run stops a small gap short of the right pole;
  a run with no w' zero by then has its maximum at the pole (d = inf).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import ODEintWarning
from scipy.integrate import odeint as _scipy_odeint
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
    "prufer_angle",
    "solve_ivp",
]

# Integrator controls.  The terminal event is located by the
# integrator's own root find on the dense output (well below 1e-12).
RTOL = 1e-10
ATOL = 1e-10

# Pruefer angle controls (LSODA rtol = atol; the angle is O(1)).  About
# the smallest tolerance LSODA accepts; the global angle error stays
# below 1e-12 (eigen._ANGLE_ERR).  LSODA's default 500 steps do not reach
# an end next to the tan pole.
ANGLE_TOL = 1e-13
_ANGLE_MXSTEP = 20000

# Distance (in units of 1/sqrt(Kbar)) kept between the integrator and the
# tan-branch pole, where the drift blows up.
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
    # np.full broadcasts the zero branch's scalar 0.0 to the input's shape
    out = np.full(arr.shape, _drift(params, np)(arr))
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

def _series_eval(A: float, B: float, s):
    s = np.asarray(s, dtype=float)
    w = -1.0 + A * s * s + B * s ** 4
    wp = 2.0 * A * s + 4.0 * B * s ** 3
    return w, wp


def _launch(params: ModelParams, lam: float, a: float):
    """First integrated point (t0, (w, w'), series) of w(a) = -1, w'(a) = 0.

    At a singular left end the series covers [a, a + h] with
    h = 1e-3/sqrt(|Kbar|) and series is (a, h, A, B); elsewhere t0 = a and
    series is None.
    """
    dom = params.domain()
    if not (a == dom.lo and dom.lo_singular):
        return a, (-1.0, 0.0), None
    h = 1e-3 / params.scale
    n, gamma = params.dim, -params.curv / 3.0
    A = lam / (2.0 * n)
    B = -A * (2.0 * gamma * (n - 1.0) + lam) / (4.0 * (n + 2.0))
    w0, wp0 = _series_eval(A, B, h)
    return a + h, (float(w0), float(wp0)), (a, h, A, B)


def _drift(params: ModelParams, lib=math):
    """T(t) with no domain checks: scalar through math (the integrators'
    right-hand sides) or elementwise through lib = numpy."""
    s = params.scale
    c = (params.dim - 1.0) * s
    br = params.branch
    if br is Branch.TAN:
        return lambda t: c * lib.tan(s * t)
    if br is Branch.TANH:
        return lambda t: -c * lib.tanh(s * t)
    if br is Branch.COTH:
        return lambda t: -c / lib.tanh(s * t)
    return lambda t: 0.0


# ---------------------------------------------------------------------------
# The scaled Pruefer angle to a fixed end.

def prufer_angle(params: ModelParams, lam: float, a: float, b: float, *,
                 odd: bool = False) -> float:
    """phi(b) for phi = atan2(sqrt(lam) w, w') of the solution launched at a.

    The launch is w = -1, w' = 0 (phi = -pi/2, by the Frobenius series at
    a singular left end), or w = 0, w' = 1 (phi = 0) when odd is set.
    phi' = sqrt(lam) - T sin(2 phi) / 2 is integrated by LSODA up to b;
    no step passes b, which may lie next to a pole.
    """
    k = math.sqrt(lam)
    if odd:
        t0, phi0 = a, 0.0
    else:
        t0, (w0, wp0), _ = _launch(params, lam, a)
        phi0 = math.atan2(k * w0, wp0)
    if not (t0 <= b):
        raise DomainError(f"launch point {t0} beyond the end {b}")
    T = _drift(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)
        try:
            out = _scipy_odeint(
                lambda t, y: k - 0.5 * T(t) * math.sin(2.0 * y[0]),
                phi0, (t0, b), tfirst=True, tcrit=(b,),
                rtol=ANGLE_TOL, atol=ANGLE_TOL, mxstep=_ANGLE_MXSTEP)
        except ODEintWarning as exc:
            raise IntegrationFailure(f"angle integration failed: {exc}")
    return float(out[-1, 0])


# ---------------------------------------------------------------------------
# The event shot to the first w' zero, with its dense trajectory.

@dataclass
class ModelSolution:
    """First-maximum data of one event shot, with its dense trajectory.

    d is the distance from the start a to the first interior zero of w'
    (math.inf when certified absent), b = a + d and m = w(b) in (0, inf);
    both are None when d is inf.  certificate records how the outcome was
    established: "event", "pole-regular", "pole-blowup" or
    "subthreshold".  w_at, wp_at and w_inverse evaluate the trajectory
    _sol, which runs from the first integrated point _t_start to the end
    of the run _t_end (the zero itself for an event); _series holds
    (a, h, A, B) when the Frobenius series covers [a, a + h = _t_start].
    """

    params: ModelParams
    lambda_bar: float
    a: float
    d: float
    b: float | None
    m: float | None
    certificate: str
    _sol: object = field(repr=False)    # scipy OdeSolution (dense)
    _t_start: float = field(repr=False)
    _t_end: float = field(repr=False)
    _series: tuple | None = field(repr=False)

    def _eval(self, t, deriv: bool):
        t = np.asarray(t, dtype=float)
        k = 1 if deriv else 0
        out = self._sol(np.clip(t, self._t_start, self._t_end))[k]
        if self._series is not None and (t < self._t_start).any():
            a0, _h, A, B = self._series
            series = _series_eval(A, B, np.maximum(t - a0, 0.0))[k]
            out = np.where(t < self._t_start, series, out)
        return out if t.ndim else float(out)

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
        top_t = self._t_end
        top_w = self.m if math.isfinite(self.d) else self.w_at(top_t)
        if not (-1.0 <= y <= top_w):
            raise DomainError(f"value {y} outside the range [-1, {top_w}]")
        if y == -1.0:
            return self.a
        if y >= self.w_at(top_t):
            return top_t
        return brentq(lambda t: self.w_at(t) - y, self.a, top_t,
                      xtol=1e-14, rtol=8.9e-16)


def solve_ivp(params: ModelParams, lambda_bar: float,
              a: float) -> ModelSolution:
    """Solve the model IVP w(a) = -1, w'(a) = 0 and find the first maximum.

    The run covers a length of 1e3, or the 50/sqrt(|Kbar|) certificate
    window below the essential threshold, and on tan ends just short of
    the pole.  Raises HorizonReached when it finds neither a w' zero nor a
    certificate, and when above the threshold the state decays below
    1e-9 first: a turn that far out is lost in rounding.
    """
    if not (lambda_bar > 0.0) or not math.isfinite(lambda_bar):
        raise DomainError(f"lambda_bar must be positive, got {lambda_bar}")
    dom = params.domain()
    if not (dom.lo <= a < dom.hi):
        raise DomainError(f"start {a} outside domain [{dom.lo}, {dom.hi})")

    subthreshold = lambda_bar <= params.essential_threshold
    if params.branch is Branch.TAN:
        t_cap = dom.hi - _POLE_GAP / params.scale
    elif subthreshold:
        t_cap = a + _CERT_WINDOW / params.scale
    else:
        t_cap = a + _DEFAULT_HORIZON
    t0, y0, series = _launch(params, lambda_bar, a)
    if t0 >= t_cap:
        raise DomainError("start too close to the integration cap")

    T = _drift(params)

    def rhs(t, y):
        return y[1], T(t) * y[1] - lambda_bar * y[0]

    # first w' zero; |w'| past the growth guard, which stops hopeless
    # runs into the tan pole's singular mode early; the whole state below
    # 1e-9 (pure decay, no turning point ahead)
    blow_cap = _BLOW_FACTOR * max(1.0, lambda_bar, abs(y0[1]))
    events = [lambda t, y: y[1], lambda t, y: abs(y[1]) - blow_cap,
              lambda t, y: y[0] * y[0] + y[1] * y[1] - 1e-18]
    for ev, direction in zip(events, (-1, 1, -1)):
        ev.terminal, ev.direction = True, direction
    # below the threshold a tighter atol lets the decay rate be certified
    sol = _scipy_solve_ivp(rhs, (t0, t_cap), list(y0), method="DOP853",
                           rtol=RTOL, atol=1e-13 if subthreshold else ATOL,
                           events=events, dense_output=True)
    if sol.status == -1 or not np.all(np.isfinite(sol.y[:, -1])):
        raise IntegrationFailure(f"integrator failed: {sol.message}")
    fired, t_end, y_end = "cap", sol.t[-1], sol.y[:, -1]
    for name, t_ev, y_ev in zip(("event", "blow", "collapse"),
                                sol.t_events, sol.y_events):
        if t_ev.size:
            fired, t_end, y_end = name, t_ev[0], y_ev[0]
            break
    t_end, y_end = float(t_end), (float(y_end[0]), float(y_end[1]))

    d, b, m = math.inf, None, None
    if fired == "event":
        certificate, d, b, m = "event", t_end - a, t_end, y_end[0]
    elif fired == "blow":
        if params.branch is not Branch.TAN:
            raise IntegrationFailure("solution exceeded the growth guard")
        certificate = "pole-blowup"
    elif fired == "collapse" and not subthreshold:
        raise HorizonReached(
            f"state decayed below 1e-9 at t = {t_end:.6g} before w' turned")
    elif params.branch is Branch.TAN:  # cap
        certificate = "pole-regular"
    elif subthreshold:  # cap / collapse
        _certify_subthreshold(params, lambda_bar, y_end, t_end - t0)
        certificate = "subthreshold"
    else:
        raise HorizonReached(
            f"no w' zero within horizon ending at t = {t_end:.6g}")

    return ModelSolution(params, lambda_bar, a, d, b, m, certificate,
                         sol.sol, t0, t_end, series)


def _certify_subthreshold(params: ModelParams, lam: float, y_end: tuple,
                          span: float) -> None:
    """Check the no-turning certificate below the essential threshold.

    y_end = (w, w') is the end state of a run of length span.  Requires
    w still negative there and the logarithmic derivative settled near
    the slow decay root (-theta + sqrt(theta^2 - 4 lam))/2.
    """
    w_end, wp_end = y_end
    if not (w_end < 0.0):
        raise HorizonReached("certificate failed: w crossed zero "
                             "without an interior maximum in the window")
    theta = params.theta
    disc = max(theta * theta - 4.0 * lam, 0.0)
    root = 0.5 * (-theta + math.sqrt(disc))
    ratio = wp_end / w_end
    # the critical case approaches its double root only algebraically
    tol = max(1e-6, 4.0 / max(span, 1.0))
    if abs(ratio - root) > tol * (1.0 + abs(root)):
        raise HorizonReached(
            f"certificate failed: w'/w = {ratio:.6g} not settled at "
            f"decay root {root:.6g}")
