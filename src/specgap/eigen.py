"""Neumann eigenvalues of the one-dimensional comparison models.

Two routes, chosen by the interval:

* closed forms: pi^2/L^2 on the zero branch (weight 1) and N Kbar on the
  full tan domain (the round sphere);
* power iteration on the Green operator of the flux for every other
  interval, folded onto half of a symmetric one (so for lambda1_model).

The operator route is pure numpy, with no integrator and no root find.
On any interval [a, b] the first nontrivial eigenfunction is monotone
(the gradient comparison of Kroeger and Bakry-Qian), so its flux
F = mu w' has one sign and solves the Dirichlet problem
-(F'/mu)' = lambda F / mu, F(a) = F(b) = 0.  On y = w' = F / mu its
Green operator is

    A y(t) = [Q(t) int_a^t P y + P(t) int_t^b Q y] / (P(b) mu(t)),

P(t) = int_a^t mu and Q(t) = int_t^b mu.  It has a nonnegative kernel,
self-adjoint in L^2(mu), so its top eigenvalue 1/lambda_1 has a positive
eigenfunction and power iteration never subtracts: the smallest
lambda_1 keeps full relative accuracy (Jentzsch's theorem, the
Perron-Frobenius theorem for integral kernels).  y vanishes at both
ends, at a pole too, where P / mu -> 0.  On a symmetric interval
[-H, H] with an even weight (tan, tanh) w is odd and F even, so on
[-H, 0] F(-H) = 0 and F'(0) = 0, and the fold

    A y(t) = mu(t)^-1 int_{-H}^t mu(s) int_s^0 y(r) dr ds

has the same properties at half the nodes and two cumulative sums.
Each mesh level applies the operator by cumulative trapezoid sums and
iterates until the Collatz-Wielandt bracket min_i (Av)_i / v_i <=
1/lambda <= max_i (Av)_i / v_i closes.  Every iterate is positive, so
the bracket bounds 1/lambda: the operator keeps a positive vector
positive, and each level starts from a positive one (_levels).  Where
lambda_2 / lambda_1 is close to 1 (long intervals just above the
essential threshold) power steps converge too slowly: a flux level
whose bracket has not closed in _POWER_STEPS steps bisects lambda
inside it by Sturm counts on its tridiagonal pencil (_count), exact to
rounding whatever the gap; the fold has none and raises.  The mesh
error expands in even powers of the step, which a Romberg table over
the levels removes.  A value is returned only when successive
extrapolants agree within the tolerance; otherwise NumericalError is
raised.

Near a pole, mu ~ s^(N-1) in the distance s to it, which for a
non-integer N is not smooth enough for that expansion on a uniform
mesh: for N < 2 the table does not settle within about 1e-4 (b - a) of
the pole.  So wherever an end lies within _POLE_NEAR (b - a) of a pole,
whatever N is, the flux mesh is graded there: t = a + (b - a) g(x) with
g cubic in x at that end (_mesh_map), and every trapezoid weight takes
the factor g'(x).  There mu g' ~ x^(3N - 1) puts the pole's error term
at h^(3N), past the h^2 that the table removes first.  g is odd about a
graded end (near enough where both are), so the iterate g' y stays odd
about an end at a pole, as the refinement's reflection there assumes.
Every other end keeps the uniform spacing, the fold's centre too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .bounds import zhong_yang
from .errors import DomainError, NumericalError
from .model import Branch, ModelParams, log_weight

__all__ = [
    "EigenQuery",
    "neumann_eigenvalue_shooting",
    "lambda1_model",
    "symmetric_interval_length",
]

# Green-operator levels: m = 32 cells only starts the Romberg table,
# which runs over m = 64, 128, ... up to the cap
_MESH_START = 32
_MESH_CAP = 2 ** 16
_WARM_BRACKET = 1e-4
# levels that take more steps count (_top_eigenvalue): no level of the
# map's points but the long near-threshold ones takes more than 53
_POWER_STEPS = 64
# The flux mesh is graded at an end within _POLE_NEAR interval lengths
# of a pole (_pole_ends), cubic in x over about _GRADE of the unit
# interval (_mesh_map)
_POLE_NEAR = 1e-2
_GRADE = 0.125


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

    Closed forms on the zero branch and the full tan domain, and the flux
    operator on every other interval, folded onto [a, (a + b) / 2] on a
    symmetric one, on a mesh graded at each end at or next to a pole
    (see the module docstring).  Raises NumericalError when the value
    cannot be certified to query.tol.
    """
    params, L = query.params, query.length
    flat = zhong_yang(L)  # pi^2/L^2, or DomainError for a too short L
    if params.branch is Branch.ZERO:
        return flat  # cos(pi (t - a) / L) on any interval
    tan = params.branch is Branch.TAN
    if tan and L >= math.pi / params.scale * (1.0 - 1e-12):
        return float(params.dim * params.curv)  # sin(sqrt(Kbar) t) closes it
    fold = query.symmetric
    return _operator_eigenvalue(_flux_level(params, query.a, query.b, fold),
                                not fold, 0.5 * L if fold else L, query.tol)


def _pole_ends(params: ModelParams, a: float, b: float) -> tuple[bool, bool]:
    """Which ends of [a, b] the flux operator's mesh grades: those within
    _POLE_NEAR (b - a) of a pole."""
    dom, near = params.domain(), _POLE_NEAR * (b - a)
    return (dom.lo_singular and a - dom.lo <= near,
            dom.hi_singular and dom.hi - b <= near)


# ---------------------------------------------------------------------------
# Positive Green operators (module docstring), in x on [0, 1] with the
# nodes x_i = i / m: the flux problem of an interval, or its fold onto
# half of a symmetric one.  Each level is a function of the nodes and
# half the step that returns the operator's application and, unfolded,
# its pencil (_pencil), or None.

def _cumtrap(g, hh):
    """Trapezoid integrals of g from the first node to each node; hh is
    half the step."""
    out = np.zeros_like(g)
    out[1:] = np.cumsum(hh * (g[1:] + g[:-1]))
    return out


def _rcumtrap(g, hh):
    """Trapezoid integrals of g from each node to the last one: summed
    from that end, so that each keeps its relative accuracy."""
    out = np.zeros_like(g)
    out[:-1] = np.cumsum((hh * (g[1:] + g[:-1]))[::-1])[::-1]
    return out


def _green_apply(z, p, q, hh):
    """The fold's A z on the unit interval, from the outer end (x = 0,
    where z vanishes) to the centre (x = 1): the inner integral from the
    centre, the outer one from the outer end.  p = mu g' / c and
    q = c g' / mu, 0 at the outer end."""
    return q * _cumtrap(p * _rcumtrap(z, hh), hh)


def _flux_apply(y, P, Q, q, hh):
    """A y on the unit interval: P and Q are the integrals of mu / c from
    each end, and q = c / (mu P(1)) is 0 at both ends, where y vanishes."""
    return q * (Q * _cumtrap(P * y, hh) + P * _rcumtrap(Q * y, hh))


def _flux_level(params: ModelParams, a: float, b: float, fold: bool = False):
    """The flux operator's levels.  On a graded mesh (_mesh_map) every
    trapezoid weight takes the factor g', and the iterate is z = g' y,
    so that q carries g' too.  fold: [a, b] is symmetric and the weight
    even, and the levels are the fold's on [a, (a + b) / 2], with x = 0
    at a, graded as a is; they have no pencil."""
    left, right = _pole_ends(params, a, b)
    if fold:
        b, right = 0.5 * (a + b), False

    def level(x, hh):
        if fold and not left:  # no graded end: g' = 1
            lm = log_weight(params, a + (b - a) * x)
            p = np.exp(lm - float(np.max(lm)))
            q = np.zeros_like(p)
            q[1:] = 1.0 / p[1:]
            return (lambda z: _green_apply(z, p, q, hh)), None
        u, du = _mesh_map(x, left, right)
        t = a + (b - a) * u
        t[0], t[-1] = a, b
        lm = log_weight(params, t)
        top = float(np.max(lm))
        p = np.exp(lm - top) * du
        q = np.zeros_like(p)
        if fold:
            q[1:] = np.exp(top - lm[1:]) * du[1:]
            return (lambda z: _green_apply(z, p, q, hh)), None
        P, Q = _cumtrap(p, hh), _rcumtrap(p, hh)
        q[1:-1] = np.exp(top - lm[1:-1]) / P[-1] * du[1:-1]
        return ((lambda z: _flux_apply(z, P, Q, q, hh)),
                lambda: _pencil(lm, du, hh))
    return level


def _pencil(lm, du, hh):
    """The flux level as the pencil K u = lambda M u on the inner nodes:
    with u = (A z) / q the trapezoid sums give c_{i-1} (u_i - u_{i-1}) -
    c_i (u_{i+1} - u_i) = 2 hh P(1) z_i, c_i = 1 / (hh (p_i + p_{i+1})),
    and u = 0 at both ends, so M_i = 2 hh P(1) q_i.  Returns a_i =
    c_{i-1} / M_i and b_i = c_i / M_i, from differences of lm = log mu so
    that they stay of order 1 / h^2."""
    r = 2.0 * hh * hh * du[1:-1]
    a = 1.0 / (r * (du[1:-1] + du[:-2] * np.exp(lm[:-2] - lm[1:-1])))
    b = 1.0 / (r * (du[1:-1] + du[2:] * np.exp(lm[2:] - lm[1:-1])))
    return a.tolist(), b.tolist()


def _count(a, b, s: float) -> int:
    """How many of the pencil's eigenvalues lie below s: the negative
    pivots M_i (b_i + f_i) of K - s M = L D L^T, f_1 = a_1 - s and
    f_{i+1} = a_{i+1} f_i / (b_i + f_i) - s.  Only the shift subtracts, so
    the count is exact for a few ulps' change in each c_i and M_i, which
    moves each eigenvalue as little whatever the gap (the dstqds
    transform, Parlett and Dhillon, Linear Algebra Appl. 309, 2000)."""
    f, below = a[0] - s, 0
    try:
        for a_next, b_i in zip(a[1:], b):
            d = b_i + f
            below += d < 0.0
            f = a_next * f / d - s
    except ZeroDivisionError:  # s is an eigenvalue of a leading block
        return _count(a, b, math.nextafter(s, math.inf))
    return below + (b[-1] + f < 0.0)


def _mesh_map(x, left: bool, right: bool):
    """u = g(x) and g'(x) for the flux operator's nodes t = a + (b - a) u:
    graded at the ends that _pole_ends marks by
    g_0(x) = c (x - e tanh(x / e)), e = _GRADE, c = 1 / (1 - e tanh(1 / e)),
    and (x, 1) where it marks none.  g_0 is odd, c x^3 / (3 e^2) to
    leading order at 0, and its slope is c to a relative 4 exp(-2x / e)
    past a few e.  A graded right end takes 1 - g_0(1 - x), both ends
    g_0(1 - g_0(1 - x))."""
    u, du = x, np.ones_like(x)
    c = 1.0 / (1.0 - _GRADE * math.tanh(1.0 / _GRADE))
    if right:
        th = np.tanh((1.0 - x) / _GRADE)
        u, du = 1.0 - c * (1.0 - x - _GRADE * th), c * th * th
    if left:
        th = np.tanh(u / _GRADE)
        u, du = c * (u - _GRADE * th), c * th * th * du
    return u, du


def _refine(v, closed: bool):
    """v on the mesh of half the step: midpoints by four-point cubic
    interpolation, through the odd reflection at 0, where v vanishes, and
    at the far end the odd one where v vanishes there too (closed) or the
    even one (the fold's centre, where F' = 0)."""
    ext = np.concatenate(([-v[1]], v, [-v[-2] if closed else v[-2]]))
    out = np.empty(2 * v.size - 1)
    out[0::2] = v
    out[1::2] = (9.0 * (ext[1:-2] + ext[2:-1]) - ext[:-3] - ext[3:]) / 16.0
    return out


def _top_eigenvalue(v, apply, pencil, inner, bracket: float):
    """lambda = 1 / rho, rho the operator's top eigenvalue, to the
    relative width bracket, and the last iterate.  Power steps from v run
    until the Collatz-Wielandt bracket min (Av)_i / v_i <= rho <=
    max (Av)_i / v_i over the inner nodes is that narrow; if it is not in
    _POWER_STEPS steps, lambda is bisected inside it by counts on the
    level's pencil (_count), or NumericalError is raised if it has none."""
    for _ in range(_POWER_STEPS):
        w = apply(v)
        ratio = w[inner] / v[inner]
        lo, hi = float(ratio.min()), float(ratio.max())
        v = w / w.max()
        if lo > 0.0 and hi - lo <= bracket * hi:
            return 1.0 / (0.5 * (lo + hi)), v
    if pencil is None or not lo > 0.0:
        raise NumericalError(
            f"power iteration not converged in {_POWER_STEPS} steps "
            f"(bracket [{lo!r}, {hi!r}] on 1/lambda, {v.size - 1} cells)")
    a, b = pencil()
    lo, hi = 1.0 / hi, 1.0 / lo
    while hi - lo > bracket * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats
            raise NumericalError(f"lambda not resolved to {bracket:g}")
        if _count(a, b, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), v


def _levels(level, closed: bool, tol: float):
    """lambda_1 of the unit interval, one over the top eigenvalue of the
    operator that level(x, hh) sets up on the nodes x, on m = 64, 128, ...
    cells up to the cap; m = 32 only warm-starts m = 64.  closed: v
    vanishes at both ends (the flux problem), not only at 0 (the fold's
    outer end; it is even about its centre, 1).

    Each level starts from the previous level's vector v_m, stepped by
    (v_m - v_{m/2}) / 4 and interpolated: the mesh error of v expands in
    h^2 as the eigenvalue's does, so that step is its change from m to
    2m cells.  Where v_m falls by decades within a few cells (next to
    the pole of a long interval) the step or the cubic can undershoot
    zero, and there the start takes v_m interpolated linearly instead:
    it must be positive for the Collatz-Wielandt bracket to bound the
    eigenvalue.  Each level that stalls counts afresh (_top_eigenvalue).
    """
    inner = slice(1, -1 if closed else None)
    coarse = v = None
    m = _MESH_START
    while m <= _MESH_CAP:
        x = np.linspace(0.0, 1.0, m + 1)
        apply, pencil = level(x, 0.5 / m)
        if v is None:
            v = x * (1.0 - x) if closed else x * (2.0 - x)
        elif coarse is None:
            coarse, v = v, _refine(v, closed)
        else:
            coarse, v = v, _refine(v + (v - _refine(coarse, closed)) / 4.0,
                                   closed)
        if not v[inner].min() > 0.0:
            v = np.where(v > 0.0, v, np.interp(x, x[::2], coarse))
        bracket = _WARM_BRACKET if m == _MESH_START else tol / 8.0
        lam, v = _top_eigenvalue(v, apply, pencil, inner, bracket)
        if m > _MESH_START:
            yield lam
        m *= 2


def _operator_eigenvalue(level, closed: bool, length: float,
                         tol: float) -> float:
    """lambda_1 of an interval of the given length from the levels of its
    operator on the unit interval (_levels).

    Romberg table over the mesh levels: the value is the first diagonal
    entry, from the third level on, within tol of the one before.
    Raises NumericalError when none is by the mesh cap, or when lambda_1
    leaves the normal float range (on tanh the weight ratios overflow
    near theta L = 709).
    """
    table: list[list[float]] = []
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for lam in _levels(level, closed, tol):
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
    lam = table[-1][-1] / length / length
    if lam == math.inf:
        raise DomainError(f"interval too small: lambda_1 overflows (length "
                          f"scale {length!r})")
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
