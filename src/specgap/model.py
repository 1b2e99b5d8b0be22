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

The first-maximum shot launches from w(a) = -1, w'(a) = 0, by a
Frobenius series at a singular endpoint (tan's left pole, coth's
origin), and follows the scaled Pruefer angle phi = atan2(k w, w'),
k = sqrt(lambda), with the bounded equation phi' = k - T sin(2 phi) / 2
(Pruefer 1926; Pryce, Numerical Solution of Sturm-Liouville Problems,
1993, ch. 5), and the log-amplitude rho = ln(r / k),
r^2 = k^2 w^2 + w'^2; w' = 0 where phi = pi/2 mod pi.

* solve_ivp stops at the first w' zero, phi = pi/2, a distance
  d(a, T, lambda) from a, where m = e^rho.  On tan it stops just short
  of the right pole; no zero by then puts the maximum at the pole
  (d = inf).
* odd_turn shoots the odd start w(0) = 0, w'(0) = 1 to the same event,
  w' = 0: half the length of the symmetric interval with that Neumann
  eigenvalue.  Its angle atan2(S w, w') takes the scale
  S = min(k, lambda) (see there).

Both are one scalar DOP853 (the _ode module), which stops where phi
crosses pi/2: scipy's solve_ivp takes the same steps, but spends almost
all of its time in numpy calls on the two-component state, and loading
scipy at all costs more than a matching call.  The right-hand sides live
here as source: the drift of each branch (_DRIFT, which drift_eval also
evaluates, with numpy) and the two angle forms (_FORMS).  _pruefer hands
them to _ode.kernel, which writes them into a straight-line step the
first time each pair of branch and form shoots, so a step is float
arithmetic and twelve evaluations of math's sin, cos and tan or tanh,
with no Python call between its stages.  _ode is imported on first use:
where no bytecode is cached, compiling it is a visible share of a
process that integrates nothing, such as specgap sweep or an eigenvalue;
writing out each kernel costs about 2 ms, once per process.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, HorizonReached, IntegrationFailure

__all__ = [
    "Branch",
    "ModelParams",
    "Domain",
    "ModelSolution",
    "branch_for_curvature",
    "drift_eval",
    "riccati_residual",
    "log_weight",
    "weight_mu",
    "solve_ivp",
    "odd_turn",
]

# Event-shot controls.  The terminal event is located by a root find
# on the step's dense output (well below 1e-12).
RTOL = 1e-10
ATOL = 1e-10
# odd_turn's relative tolerance; its absolute one is 1e-3 ODD_RTOL S,
# S the angle's scale, so the angle (about S t after the launch at 0)
# keeps its relative accuracy while it is small
ODD_RTOL = 1e-13

_HALF_PI = 0.5 * math.pi

# Distance (in units of 1/sqrt(Kbar)) kept between the integrator and the
# tan-branch pole, where the drift blows up.
_POLE_GAP = 1e-7

# Horizon (absolute length) when no other cap applies.
_DEFAULT_HORIZON = 1e3

# Sub-threshold certificate window, in units of 1/sqrt(|Kbar|).
_CERT_WINDOW = 50.0


def _scipy_solve_ivp(*args, **kwargs):
    """One integration, _ode.shoot (the Shot it returns carries nfev).

    Every shot goes through this one module binding, under the name it
    had when the shot was scipy's solve_ivp: bench/spans.py wraps it by
    that name to count solves and right-hand side evaluations, and the
    tests count calls through it.
    """
    from . import _ode
    return _ode.shoot(*args, **kwargs)


class Branch(str, Enum):
    TAN = "tan"
    TANH = "tanh"
    COTH = "coth"
    ZERO = "zero"


# The drift T(t) of each branch, as source over c = (N-1) sqrt|Kbar|,
# s = sqrt|Kbar| and the functions tan and tanh: _pruefer writes it into
# the DOP853 step with math's, drift_eval evaluates it with numpy's.
_DRIFT = {
    Branch.TAN: "c * tan(s * t)",
    Branch.TANH: "-c * tanh(s * t)",
    Branch.COTH: "-c / tanh(s * t)",
    Branch.ZERO: "0.0",
}


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
    T = eval(_DRIFT[params.branch], {"tan": np.tan, "tanh": np.tanh},
             {"c": params.theta, "s": params.scale, "t": arr})
    # np.full broadcasts the zero branch's scalar 0.0 to the input's shape
    out = np.full(arr.shape, T)
    return out if arr.ndim else float(out)


def riccati_residual(params: ModelParams, t):
    """T'(t) - T(t)^2/(N-1) - (N-1) Kbar, with T' evaluated analytically."""
    arr = np.asarray(t, dtype=float)
    n1, k, s = params.dim - 1.0, params.curv, params.scale
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


def log_weight(params: ModelParams, t):
    """log mu(t), for t in the closed domain.  On tan the cosine is taken
    by magnitude, as it can round below zero at a pole;
    log cosh z = |z| + log1p(e^-2|z|) - log 2 cannot overflow, and
    log sinh z = z + log(-expm1(-2z)) - log 2 is -inf at the origin."""
    n1, z = params.dim - 1.0, params.scale * t
    if params.branch is Branch.TAN:
        return n1 * np.log(np.abs(np.cos(z)))
    if params.branch is Branch.TANH:
        z = np.abs(z)
        return n1 * (z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0))
    if params.branch is Branch.COTH:
        with np.errstate(divide="ignore"):
            return n1 * (z + np.log(-np.expm1(-2.0 * z)) - math.log(2.0))
    return np.zeros_like(z)


def weight_mu(params: ModelParams, t):
    """Weight mu with -mu'/mu = T; defined on the closed domain, 0 (to
    rounding, on tan) at poles."""
    dom = params.domain()
    arr = np.asarray(t, dtype=float)
    if np.any(arr < dom.lo) or np.any(arr > dom.hi):
        raise DomainError("weight evaluated outside the closed domain")
    out = np.exp(log_weight(params, arr))
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
    """Pruefer state (t0, phi0, rho0, series) of w(a) = -1, w'(a) = 0 at
    the first integrated point: t0 = a, or a + h at a singular left end,
    where series = (a, h, A, B) covers [a, t0] (None elsewhere)."""
    dom = params.domain()
    if not (a == dom.lo and dom.lo_singular):
        return a, -0.5 * math.pi, 0.0, None
    # the truncated terms are O((|Kbar| h^2)^3, (lam h^2)^3): keep both
    # |Kbar| h^2 <= 1e-6 and lam h^2 <= 9e-4
    h = min(1e-3 / params.scale, 0.03 / math.sqrt(lam))
    n, gamma = params.dim, -params.curv / 3.0
    A = lam / (2.0 * n)
    B = -A * (2.0 * gamma * (n - 1.0) + lam) / (4.0 * (n + 2.0))
    with np.errstate(all="ignore"):  # B overflows at a huge lam
        w0, wp0 = _series_eval(A, B, h)
    if not (math.isfinite(w0) and math.isfinite(wp0)):
        raise IntegrationFailure(f"Frobenius launch overflows at lambda {lam}")
    k = math.sqrt(lam)
    kw, wp0 = k * float(w0), float(wp0)
    return (a + h, math.atan2(kw, wp0), math.log(math.hypot(kw, wp0) / k),
            (a, h, A, B))


# ---------------------------------------------------------------------------
# The Pruefer pair (phi, rho) to the first w' zero.

# The Pruefer right-hand sides at (t, phi) given T: the names of their
# scale, then the body of (phi', rho').  The event shot's angle has scale
# k = sqrt(lam); the odd shot's has (S, q = lam / S) and leaves rho at 0
# (see odd_turn).
_FORMS = {
    "event": ("k",
              "cp = cos(phi)",
              "return k - T * sin(phi) * cp, T * cp * cp"),
    "odd": ("S, q",
            "sp, cp = sin(phi), cos(phi)",
            "return S * cp * cp + q * sp * sp - T * sp * cp, 0.0"),
}


def _pruefer(params: ModelParams, form: str, *scale: float):
    """The _ode kernel of the Pruefer pair in FORM ("event", scale k, or
    "odd", scale (S, q)) on params' drift, its step written out with that
    right-hand side at every stage."""
    from . import _ode
    names, *body = _FORMS[form]
    make = _ode.kernel(f"c, s, {names}", f"T = {_DRIFT[params.branch]}", *body)
    return make(params.theta, params.scale, *scale)


@dataclass
class ModelSolution:
    """First-maximum data of one event shot.

    d is the distance from the start a to the first interior zero of w'
    (math.inf when certified absent), b = a + d and m = w(b) in (0, inf);
    both are None when d is inf.  certificate is "event" (the turn),
    "pole" (tan: no turn before the pole) or "subthreshold".  w_at, wp_at
    and w_inverse read the run's trajectory _sol, which the first read
    builds: _shoot re-runs the shot with dense output, taking the same
    steps.  Before _sol.t_min = a + h they read the series (a, h, A, B).
    """

    params: ModelParams
    lambda_bar: float
    a: float
    d: float
    b: float | None
    m: float | None
    certificate: str
    _series: tuple | None = field(repr=False)
    _shoot: Callable = field(repr=False)

    @functools.cached_property
    def _sol(self):
        return self._shoot(dense_output=True).sol

    def _eval(self, t, deriv: bool):
        t = np.asarray(t, dtype=float)
        t0, t1 = self._sol.t_min, self._sol.t_max
        phi, rho = self._sol(np.clip(t, t0, t1))
        out = np.exp(rho) * (math.sqrt(self.lambda_bar) * np.cos(phi)
                             if deriv else np.sin(phi))
        if self._series is not None and (t < t0).any():
            a0, _h, A, B = self._series
            series = _series_eval(A, B, np.maximum(t - a0, 0.0))[int(deriv)]
            out = np.where(t < t0, series, out)
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
        top_t = self._sol.t_max
        top_w = self.m if math.isfinite(self.d) else self.w_at(top_t)
        if not (-1.0 <= y <= top_w):
            raise DomainError(f"value {y} outside the range [-1, {top_w}]")
        if y == -1.0:
            return self.a
        if y >= self.w_at(top_t):
            return top_t
        from ._ode import brentq
        return brentq(lambda t: self.w_at(t) - y, self.a, top_t,
                      xtol=1e-14, rtol=8.9e-16)


def solve_ivp(params: ModelParams, lambda_bar: float,
              a: float) -> ModelSolution:
    """Solve the model IVP w(a) = -1, w'(a) = 0 and find the first maximum.

    Integrates phi' = k - T sin(phi) cos(phi) and rho' = T cos(phi)^2 (see
    the module docstring), so w = e^rho sin(phi), w' = k e^rho cos(phi)
    keep their relative accuracy however far w grows or decays.  The one
    terminal event is phi = pi/2, where m = e^rho.  The run covers 1e3,
    or the 50/sqrt(|Kbar|) certificate window below the essential
    threshold, and on tan ends just short of the pole.  Raises
    HorizonReached with neither a w' zero nor a certificate, and
    IntegrationFailure when m leaves the float range or the turn lies too
    close to a for the float spacing there to carry d to RTOL.
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
    t0, phi0, rho0, series = _launch(params, lambda_bar, a)
    if t0 >= t_cap:
        raise DomainError("start too close to the integration cap")

    f = _pruefer(params, "event", math.sqrt(lambda_bar))

    def shoot(dense_output=False):
        return _scipy_solve_ivp(f, t0, phi0, rho0, t_cap, _HALF_PI, RTOL,
                                ATOL, dense_output)

    shot = shoot()
    t_end, phi, rho = shot.t, shot.phi, shot.rho
    if shot.event:
        if not (-708.0 < rho < 709.0):  # m = e^rho a normal float
            raise IntegrationFailure(f"maximum e^{rho:.6g} out of range")
        d = t_end - a
        # the shot runs in t, so d carries RTOL only where the float
        # spacing at a and at the turn is finer than RTOL d
        if math.ulp(max(abs(a), abs(t_end))) > RTOL * d:
            raise IntegrationFailure(
                f"turn at distance {d!r} from a = {a!r}: below the float "
                f"spacing there to relative {RTOL}")
        return ModelSolution(params, lambda_bar, a, d, t_end, math.exp(rho),
                             "event", series, shoot)

    if params.branch is Branch.TAN:
        certificate = "pole"
    elif subthreshold:
        # the certificate reads only w's sign and w'/w: drop the e^rho
        k = math.sqrt(lambda_bar)
        _certify_subthreshold(params, lambda_bar,
                              (math.sin(phi), k * math.cos(phi)), t_end - t0)
        certificate = "subthreshold"
    else:
        raise HorizonReached(
            f"no w' zero within horizon ending at t = {t_end:.6g}")
    return ModelSolution(params, lambda_bar, a, math.inf, None, None,
                         certificate, series, shoot)


def odd_turn(params: ModelParams, lam: float, t_cap: float) -> float | None:
    """Where the odd solution w(0) = 0, w'(0) = 1 first turns.

    The t in (0, t_cap) at which phi = atan2(S w, w'), launched at 0,
    reaches pi/2, from one shot; None when it does not by t_cap.  0 must
    lie inside the domain (not coth).  With this scale,
    phi' = S cos^2 + (lam / S) sin^2 - T sin cos crosses pi/2 at the rate
    lam / S.  At S = k that rate is k, and on a long tanh interval the
    crossing lies within k / theta of the stable point pi/2 + k / theta
    that phi settles to, so the turn moves by (angle error) / k, 1e-2 at
    lam = 1e-20 for an angle error of 1e-12.  S = min(k, lam) keeps the
    rate at least 1 and that distance at least 1 / theta.
    The log-amplitude is not read: its zero rate keeps it out of the
    error control.
    """
    S = min(math.sqrt(lam), lam)
    f = _pruefer(params, "odd", S, lam / S)
    shot = _scipy_solve_ivp(f, 0.0, 0.0, 0.0, t_cap, _HALF_PI, ODD_RTOL,
                            1e-3 * ODD_RTOL * S)
    return shot.t if shot.event else None


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
