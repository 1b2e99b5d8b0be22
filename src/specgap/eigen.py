"""Neumann eigenvalues of the one-dimensional comparison models.

Three routes, chosen by the interval:

* closed forms: pi^2/L^2 on the zero branch (weight 1) and N Kbar on the
  full tan domain (the round sphere);
* power iteration on the Green operator of the odd half problem, for
  symmetric intervals of the even branches (tan, tanh), so for
  lambda1_model: pure numpy, no integrator, no root find;
* shooting on the scaled Pruefer angle for every other interval.

On a symmetric interval [-L, L] with an even weight the first
nontrivial eigenfunction is odd, so it solves the half problem on
[0, L] with w(0) = 0 and zero flux mu w' at L.  Its Green operator

    G f(t) = int_0^t mu(s)^-1 int_s^L mu(r) f(r) dr ds

has a nonnegative kernel, self-adjoint in L^2(mu), so its top
eigenvalue 1/lambda_1 has a positive eigenfunction and power iteration
never subtracts: the smallest lambda_1 keeps full relative accuracy
(Jentzsch's theorem, the Perron-Frobenius theorem for integral kernels).
Each mesh level applies G by two cumulative trapezoid sums and iterates
until the Collatz-Wielandt bracket min_i (Gv)_i / v_i <= 1/lambda <=
max_i (Gv)_i / v_i closes; the mesh error expands in even powers of the
step, which a Romberg table over the levels removes.  A value is
returned only when successive extrapolants agree within the tolerance;
otherwise NumericalError is raised, near a tan pole with N < 3 for
example, where the weight is not smooth enough for the expansion.

Shooting follows the scaled Pruefer angle phi = atan2(sqrt(lam) w, w')
(model.prufer_angle, on the DOP853 of every shot) to the far end of the
interval, where the Neumann condition w' = 0 reads phi = pi/2, so
lambda_1 is the root of a continuous, strictly increasing function with
no event.  It launches at the left end, a tan interval ending at the
right pole from its mirror image.  The root is a Brent root in
sqrt(lam) (12 to 50 angle solves with its certificate): the angle must
change sign across lam (1 -+ tol) by more than its integration error,
estimated from a second run at ten times the integration tolerance, or
NumericalError is raised.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import model
from .bounds import shi_zhang, zhong_yang
from .errors import BracketFailure, DomainError, NumericalError
from .model import Branch, ModelParams

__all__ = [
    "EigenQuery",
    "neumann_eigenvalue_shooting",
    "lambda1_model",
    "symmetric_interval_length",
]

_MAX_WIDEN = 40
_MAX_ITER = 100
# The root certificate's bound on the Pruefer angle's integration error.
# That error grows with the angle's sensitivity to lambda (up to 4e-8 on
# n = 10 tanh intervals, where the angle moves by 1e-6 across the band),
# so no one bound serves: it is the angle's change when integrated at
# _ROUGH times the tolerance, and at least _ANGLE_ERR.  Each probe takes
# its own: at the root itself the angle may jump by pi (an end next to a
# tan pole).
_ANGLE_ERR = 1e-12
_ROUGH = 10.0

# Green-operator levels: m = 32 cells only warm-starts the Romberg table,
# which runs over m = 64, 128, ... up to the cap
_MESH_START = 32
_MESH_CAP = 2 ** 16
_WARM_BRACKET = 1e-4
_POWER_STEPS = 100


@dataclass(frozen=True)
class EigenQuery:
    """First nontrivial Neumann eigenvalue request on [a, b]."""

    params: ModelParams
    a: float
    b: float
    tol: float = 1e-10

    def __post_init__(self):
        dom = self.params.domain()
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"interval ends must be finite, got "
                              f"[{self.a}, {self.b}]")
        if not (self.a < self.b):
            raise DomainError(f"need a < b, got [{self.a}, {self.b}]")
        if self.a < dom.lo or self.b > dom.hi:
            raise DomainError(
                f"interval [{self.a}, {self.b}] outside model domain "
                f"[{dom.lo}, {dom.hi}]")
        if not (0.0 < self.tol < 1.0):
            raise DomainError(f"tolerance must lie in (0, 1), got {self.tol}")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def symmetric(self) -> bool:
        if self.params.branch is Branch.COTH:
            return False
        return abs(self.a + self.b) <= 1e-12 * max(1.0, abs(self.a), abs(self.b))


def neumann_eigenvalue_shooting(query: EigenQuery) -> float:
    """First nontrivial Neumann eigenvalue, certified to query.tol.

    Closed forms on the zero branch and the full tan domain, the Green
    operator on a symmetric interval, otherwise a Brent root in
    k = sqrt(lam) of the Pruefer angle at the far end less pi/2 (see the
    module docstring).  Raises NumericalError when the value cannot be
    certified to query.tol.
    """
    params, L = query.params, query.length
    flat = zhong_yang(L)  # pi^2/L^2, or DomainError for a too short L
    if params.branch is Branch.ZERO:
        return flat  # cos(pi (t - a) / L) on any interval
    tan = params.branch is Branch.TAN
    if tan and L >= math.pi / params.scale * (1.0 - 1e-12):
        return float(params.dim * params.curv)  # sin(sqrt(Kbar) t) closes it
    if query.symmetric:
        return _green_eigenvalue(params, 0.5 * L, query.tol)
    a, b = query.a, query.b
    if tan and b == params.domain().hi:
        a, b = -b, -a  # the even weight mirrors it onto a left-pole launch
    return _prufer_eigenvalue(params, a, b, query.tol)


def _prufer_eigenvalue(params: ModelParams, a: float, b: float,
                       tol: float) -> float:
    """Brent root in k = sqrt(lam) of the Pruefer angle at b less pi/2,
    launched at a, for any interval (docs/domain_map.py also runs it on
    symmetric ones)."""
    from ._ode import brentq

    L = b - a

    @cache  # brentq re-evaluates both bracket ends: solve each k once
    def f(k):
        """Angle past pi/2 at lam = k^2, in which it is close to linear."""
        return model.prufer_angle(params, k * k, a, b) - 0.5 * math.pi

    # interval-position monotonicity makes the central interval the
    # smallest eigenvalue among intervals of this length, and the
    # quadratic bound and, on tan, N Kbar (Lichnerowicz) floor that, so
    # this seed is already a valid lower bracket up to degenerate
    # equality cases; the widening loop mops those up
    nk = params.dim * max(params.curv, 0.0)
    lo = math.sqrt(max(0.9 * shi_zhang(params.dim, params.curv, L), nk, 1e-12))
    for _ in range(_MAX_WIDEN):
        if f(lo) < 0.0:
            break
        lo /= 4.0
    else:
        raise BracketFailure("no lower bracket for the eigenvalue")

    hi = math.sqrt(8.0 * max(math.pi ** 2 / L ** 2, nk))
    for _ in range(_MAX_WIDEN):
        if f(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("no upper bracket for the eigenvalue")

    # k to a tenth of the band, so the certificate probes clear the root
    k = brentq(f, lo, hi, xtol=0.05 * tol * lo, rtol=max(0.05 * tol, 1e-15),
               maxiter=_MAX_ITER)
    # the band lam (1 -+ tol) around lam = k^2 must bracket the root: the
    # angle at each end must clear its error there (see _ANGLE_ERR)
    for side in (-1.0, 1.0):
        kp = k * math.sqrt(1.0 + side * tol)
        rough = model.prufer_angle(params, kp * kp, a, b,
                                   tol=_ROUGH * model.ANGLE_TOL)
        err = max(_ANGLE_ERR, abs(rough - 0.5 * math.pi - f(kp)))
        if not side * f(kp) > err:
            raise NumericalError(
                f"eigenvalue {k * k!r} not certified to {tol:g}: the angle "
                f"{f(kp):.3g} at lambda (1 {side:+g} tol) does not clear "
                f"its error {err:.3g}")
    return k * k


# ---------------------------------------------------------------------------
# Symmetric intervals: power iteration on the Green operator of the odd
# half problem (module docstring), in x = t / L on [0, 1] with the
# nodes x_i = i / m.

def _log_weight(params: ModelParams, t):
    """log mu(t) for t >= 0 on the tan (short of the pole) and tanh
    branches; log cosh z = z + log1p(e^-2z) - log 2 cannot overflow."""
    n1, z = params.dim - 1.0, params.scale * t
    if params.branch is Branch.TAN:
        return n1 * np.log(np.cos(z))
    return n1 * (z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0))


def _green_apply(v, p, q, hh):
    """G v on the unit half interval: the inner integral from the
    zero-flux end, the outer one from w(0) = 0, both by cumulative
    trapezoid sums (hh is half the step).  p = mu / c and q = c / mu at
    the nodes, for a constant c that keeps both in range."""
    g = p * v
    inner = np.zeros_like(v)
    inner[:-1] = np.cumsum((hh * (g[1:] + g[:-1]))[::-1])[::-1]
    j = q * inner
    w = np.zeros_like(v)
    w[1:] = np.cumsum(hh * (j[1:] + j[:-1]))
    return w


def _refine(v):
    """v on the mesh of half the step: midpoints by four-point cubic
    interpolation, through the odd reflection at 0 and the even one at
    the zero-flux end."""
    ext = np.concatenate(([-v[1]], v, [v[-2]]))
    out = np.empty(2 * v.size - 1)
    out[0::2] = v
    out[1::2] = (9.0 * (ext[1:-2] + ext[2:-1]) - ext[:-3] - ext[3:]) / 16.0
    return out


def _top_eigenvalue(v, p, q, hh, bracket: float):
    """Power iteration from v > 0 (v[0] = 0) until the Collatz-Wielandt
    bracket on the top eigenvalue of G is within the relative width
    bracket.  Returns its midpoint and the last iterate."""
    for _ in range(_POWER_STEPS):
        w = _green_apply(v, p, q, hh)
        ratio = w[1:] / v[1:]
        lo, hi = float(np.min(ratio)), float(np.max(ratio))
        v = w / w[-1]
        if hi - lo <= bracket * hi:
            return 0.5 * (lo + hi), v
    raise NumericalError(
        f"power iteration not converged in {_POWER_STEPS} steps (bracket "
        f"[{lo!r}, {hi!r}] on 1/lambda, {v.size - 1} cells)")


def _green_levels(params: ModelParams, half: float, tol: float):
    """Top eigenvalue of G, as lambda_1 of the unit half interval, on
    m = 64, 128, ... cells up to the cap; m = 32 only warm-starts m = 64.

    Each level starts from the previous level's vector v_m, stepped by
    (v_m - v_{m/2}) / 4 and interpolated: the mesh error of v expands in
    h^2 as the eigenvalue's does, so that step is its change from m to
    2m cells.
    """
    coarse = v = None
    m = _MESH_START
    while m <= _MESH_CAP:
        x = np.linspace(0.0, 1.0, m + 1)
        lm = _log_weight(params, half * x)
        top = float(np.max(lm))
        p, q = np.exp(lm - top), np.exp(top - lm)
        if v is None:
            v = x
        elif coarse is None:
            coarse, v = v, _refine(v)
        else:
            coarse, v = v, _refine(v + (v - _refine(coarse)) / 4.0)
        if m == _MESH_START:
            _, v = _top_eigenvalue(v, p, q, 0.5 / m, _WARM_BRACKET)
        else:
            rho, v = _top_eigenvalue(v, p, q, 0.5 / m, tol / 8.0)
            yield 1.0 / rho
        m *= 2


def _green_eigenvalue(params: ModelParams, half: float, tol: float) -> float:
    """lambda_1 of the symmetric interval [-half, half] on the tan (short
    of the full domain) or tanh branch.

    Romberg table over the mesh levels: the value is the first diagonal
    entry, from the third level on, within tol of the one before.
    Raises NumericalError when none is by the mesh cap, or when lambda_1
    leaves the normal float range (on tanh the weight ratios overflow
    near theta half = 709).
    """
    table: list[list[float]] = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for lam in _green_levels(params, half, tol):
                row = [lam]
                for j, prev in enumerate(table[-1] if table else ()):
                    row.append(row[j] + (row[j] - prev) / (4.0 ** (j + 1) - 1))
                table.append(row)
                if (len(table) >= 3
                        and abs(row[-1] - table[-2][-1]) <= tol * row[-1]):
                    break
            else:
                diff = abs(table[-1][-1] / table[-2][-1] - 1.0)
                raise NumericalError(
                    f"lambda_1 not certified to {tol:g}: successive Romberg "
                    f"extrapolants still differ by {diff:.1e} at "
                    f"{_MESH_CAP} cells")
    except FloatingPointError as exc:
        raise NumericalError(
            f"Green operator out of the float range: {exc}") from exc
    lam = table[-1][-1] / half / half
    if lam == math.inf:
        raise DomainError(f"interval length {2.0 * half!r} too small: "
                          "lambda_1 overflows")
    if lam < sys.float_info.min:
        raise NumericalError(f"lambda_1 = {lam!r} below the normal float "
                             "range")
    return lam


def lambda1_model(n: float, K: float, D: float, tol: float = 1e-10) -> float:
    """Model eigenvalue lambda_1(n, K, D) on the symmetric interval of length D.

    For K > 0 the diameter may not exceed pi/sqrt(K) (the model's full
    domain), where the value is n K exactly; for K = 0 it is pi^2/D^2;
    for K < 0 the even (tanh) branch applies.
    """
    if not (D > 0) or not math.isfinite(D):
        raise DomainError(f"diameter must be positive and finite, got {D}")
    branch = model.branch_for_curvature(K, "symmetric")
    params = ModelParams(n, K, branch)
    if branch is Branch.TAN:
        full = math.pi / params.scale
        if D > full * (1.0 + 1e-12):
            raise DomainError(
                f"diameter {D} exceeds the model domain pi/sqrt(K) = {full}")
        D = min(D, full)
    return neumann_eigenvalue_shooting(
        EigenQuery(params, -0.5 * D, 0.5 * D, tol))


def symmetric_interval_length(params: ModelParams,
                              lambda_bar: float) -> float:
    """Length of the symmetric interval whose first Neumann eigenvalue
    equals lambda_bar (inverse of lambda1 in the diameter slot).

    Twice the t where the odd solution w(0) = 0, w'(0) = 1 first turns
    (model.odd_turn).  Off the tan branch the drift only speeds the angle
    atan2(sqrt(lambda_bar) w, w') on its way to pi/2, so the turn comes
    before pi/(2 sqrt(lambda_bar)).  Tan branch: defined for
    lambda_bar >= N Kbar; at the anchor value, or with no turn within
    1e-9 relative of the pole, the full domain pi/sqrt(Kbar) is returned
    (boundary case).  Coth has no symmetric interval.
    """
    if params.branch is Branch.COTH:
        raise DomainError("coth branch admits no symmetric interval")
    if not (0 < lambda_bar < math.inf):
        raise DomainError(f"lambda_bar must be positive and finite, got "
                          f"{lambda_bar}")
    hi = math.pi / math.sqrt(lambda_bar)
    if params.branch is Branch.TAN:
        full = math.pi / params.scale
        anchor = params.dim * params.curv
        if lambda_bar < anchor * (1.0 - 1e-12):
            raise DomainError(
                f"lambda_bar {lambda_bar} below the full-domain eigenvalue "
                f"N Kbar = {anchor}")
        if lambda_bar <= anchor * (1.0 + 1e-10):
            return full
        hi = 0.5 * full * (1.0 - 1e-9)
    turn = model.odd_turn(params, lambda_bar, hi)
    if turn is not None:
        return 2.0 * turn
    if params.branch is Branch.TAN:
        return full
    raise NumericalError(f"odd solution at lambda_bar {lambda_bar!r} does "
                         f"not turn before {hi!r}")
