"""Neumann eigenvalues of the one-dimensional comparison models.

Three routes, chosen by the interval:

* closed forms: pi^2/L^2 on the zero branch (weight 1) and N Kbar on the
  full tan domain (the round sphere);
* power iteration on the Green operator of the odd half problem, for
  symmetric intervals of the even branches (tan, tanh), so for
  lambda1_model;
* power iteration on the Green operator of the flux for every other
  interval.

Both operator routes are pure numpy, with no integrator and no root
find.  On a symmetric interval [-L, L] with an even weight the first
nontrivial eigenfunction is odd, so it solves the half problem on
[0, L] with w(0) = 0 and zero flux mu w' at L.  Its Green operator

    G f(t) = int_0^t mu(s)^-1 int_s^L mu(r) f(r) dr ds

has a nonnegative kernel, self-adjoint in L^2(mu), so its top
eigenvalue 1/lambda_1 has a positive eigenfunction and power iteration
never subtracts: the smallest lambda_1 keeps full relative accuracy
(Jentzsch's theorem, the Perron-Frobenius theorem for integral kernels).
On any interval [a, b] the first nontrivial eigenfunction is monotone
(the gradient comparison of Kroeger and Bakry-Qian), so its flux
F = mu w' has one sign and solves the Dirichlet problem
-(F'/mu)' = lambda F / mu, F(a) = F(b) = 0.  On y = w' = F / mu its
Green operator is

    A y(t) = [Q(t) int_a^t P y + P(t) int_t^b Q y] / (P(b) mu(t)),

P(t) = int_a^t mu and Q(t) = int_t^b mu, again nonnegative and
self-adjoint in L^2(mu), with top eigenvalue 1/lambda_1; y vanishes at
both ends, at a pole too, where P / mu -> 0.  Each mesh level applies the
operator by cumulative trapezoid sums and iterates until the
Collatz-Wielandt bracket min_i (Av)_i / v_i <= 1/lambda <=
max_i (Av)_i / v_i closes.  Every iterate is positive, so the bracket
bounds 1/lambda: the operator keeps a positive vector positive, and each
level starts from a positive one (_levels).  Where lambda_2 / lambda_1 is close to 1 (long
intervals just above the essential threshold) a Ritz step on a Krylov
space restarts the iteration; its vector, with the entries that are not
positive raised to its smallest positive one, only starts power steps,
and it is kept only if the bracket they reach beats what power steps
alone would have.  The mesh error expands in even powers of the step,
which a Romberg table over the levels removes.  A value is returned
only when successive extrapolants agree within the tolerance;
otherwise NumericalError is raised.

Near a pole, mu ~ s^(N-1) in the distance s to it, which for a
non-integer N is not smooth enough for that expansion on a uniform
mesh: for N < 2 the table does not settle within about 1e-4 (b - a) of
the pole.  So where N is not an integer and an end lies within
_POLE_NEAR (b - a) of a pole, the flux mesh is graded there:
t = a + (b - a) g(x) with g cubic in x at that end (_mesh_map), and
every trapezoid weight takes the factor g'(x).  There mu g' ~ x^(3N - 1)
puts the pole's error term at h^(3N), past the h^2 that the table
removes first.  g is odd about a graded end (near enough where both
are), so the iterate g' y stays odd about an end at a pole, as the
refinement's reflection there assumes.  Every other interval runs on
the uniform mesh.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import model
from .bounds import zhong_yang
from .errors import DomainError, NumericalError
from .model import Branch, ModelParams

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
_POWER_STEPS = 400
# Ritz steps (_top_eigenvalue): from _KRYLOV vectors, one every _POLISH
# power steps from step _RITZ_AFTER of a level on
_KRYLOV = 20
_POLISH = 4
_RITZ_AFTER = 24
# Where N is not an integer, the flux mesh is graded at an end within
# _POLE_NEAR interval lengths of a pole (_pole_ends), cubic in x over
# about _GRADE of the unit interval (_mesh_map)
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

    Closed forms on the zero branch and the full tan domain, the Green
    operator of the odd half problem on a symmetric interval, the flux
    operator on every other interval, on a mesh graded at an end at or
    next to a pole where N is not an integer (see the module docstring).
    Raises NumericalError when the value cannot be certified to
    query.tol.
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
        a, b = -b, -a  # the even weight mirrors it onto the left pole
    return _flux_eigenvalue(params, a, b, query.tol)


def _pole_ends(params: ModelParams, a: float, b: float) -> tuple[bool, bool]:
    """Which ends of [a, b] the flux operator's mesh grades: where N is
    not an integer, an end within _POLE_NEAR (b - a) of a pole."""
    if float(params.dim).is_integer():
        return False, False
    dom, near = params.domain(), _POLE_NEAR * (b - a)
    return (dom.lo_singular and a - dom.lo <= near,
            dom.hi_singular and dom.hi - b <= near)


# ---------------------------------------------------------------------------
# Positive Green operators (module docstring), in x on [0, 1] with the
# nodes x_i = i / m: the odd half problem of a symmetric interval and
# the flux problem of any other.  Each level is a function of the nodes
# and half the step that returns the operator's application and the
# weight mu / c (c a constant that keeps it in range) in whose inner
# product the operator is symmetric.

def _log_weight(params: ModelParams, t):
    """log mu(t) on the tan, tanh and coth branches.  On tan the cosine
    is taken by magnitude, as it can round below zero at a pole;
    log cosh z = |z| + log1p(e^-2|z|) - log 2 cannot overflow, and
    log sinh z = z + log(-expm1(-2z)) - log 2 is -inf at the origin."""
    n1, z = params.dim - 1.0, params.scale * t
    if params.branch is Branch.TAN:
        return n1 * np.log(np.abs(np.cos(z)))
    if params.branch is Branch.TANH:
        z = np.abs(z)
        return n1 * (z + np.log1p(np.exp(-2.0 * z)) - math.log(2.0))
    with np.errstate(divide="ignore"):
        return n1 * (z + np.log(-np.expm1(-2.0 * z)) - math.log(2.0))


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


def _green_apply(v, p, q, hh):
    """G v on the unit half interval: the inner integral from the
    zero-flux end, the outer one from w(0) = 0.  p = mu / c and q = c / mu
    at the nodes."""
    return _cumtrap(q * _rcumtrap(p * v, hh), hh)


def _flux_apply(y, P, Q, q, hh):
    """A y on the unit interval: P and Q are the integrals of mu / c from
    each end, and q = c / (mu P(1)) is 0 at both ends, where y vanishes."""
    return q * (Q * _cumtrap(P * y, hh) + P * _rcumtrap(Q * y, hh))


def _half_level(params: ModelParams, half: float):
    def level(x, hh):
        lm = _log_weight(params, half * x)
        top = float(np.max(lm))
        p, q = np.exp(lm - top), np.exp(top - lm)
        return (lambda v: _green_apply(v, p, q, hh)), p
    return level


def _flux_level(params: ModelParams, a: float, b: float):
    """The flux operator's levels.  On a graded mesh (_mesh_map) every
    trapezoid weight takes the factor g', and the iterate is z = g' y,
    so that q carries g' too; the operator on z is symmetric in the
    weight mu / g'."""
    left, right = _pole_ends(params, a, b)

    def level(x, hh):
        u, du = _mesh_map(x, left, right)
        t = a + (b - a) * u
        t[0], t[-1] = a, b
        lm = _log_weight(params, t)
        top = float(np.max(lm))
        mu = np.exp(lm - top)
        p = mu if du is None else mu * du
        P, Q = _cumtrap(p, hh), _rcumtrap(p, hh)
        q = np.zeros_like(p)
        q[1:-1] = np.exp(top - lm[1:-1]) / P[-1]
        if du is not None:
            q *= du
            mu[1:-1] /= du[1:-1]
        return (lambda z: _flux_apply(z, P, Q, q, hh)), mu
    return level


def _mesh_map(x, left: bool, right: bool):
    """u = g(x) and g'(x) for the flux operator's nodes t = a + (b - a) u:
    graded at the ends that _pole_ends marks by
    g_0(x) = c (x - e tanh(x / e)), e = _GRADE, c = 1 / (1 - e tanh(1 / e)),
    and (x, None) where it marks none.  g_0 is odd, c x^3 / (3 e^2) to
    leading order at 0, and its slope is c to a relative 4 exp(-2x / e)
    past a few e.  A graded right end takes 1 - g_0(1 - x), both ends
    g_0(1 - g_0(1 - x))."""
    if not (left or right):
        return x, None
    u, du = x, 1.0
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
    even one (zero flux)."""
    ext = np.concatenate(([-v[1]], v, [-v[-2] if closed else v[-2]]))
    out = np.empty(2 * v.size - 1)
    out[0::2] = v
    out[1::2] = (9.0 * (ext[1:-2] + ext[2:-1]) - ext[:-3] - ext[3:]) / 16.0
    return out


def _ritz(v, apply, p, inner):
    """Rayleigh-Ritz step from v: the top Ritz vector of the operator on
    the Krylov space of _KRYLOV vectors from v, built by Lanczos with
    full reorthogonalisation in z = sqrt(p) v, where the operator is
    symmetric.  It is only a start for power steps."""
    s = np.sqrt(p[inner])
    basis = np.empty((_KRYLOV, s.size))
    images = np.empty_like(basis)
    z = s * v[inner]
    basis[0] = z / np.linalg.norm(z)
    y = np.zeros_like(v)
    for j in range(_KRYLOV):
        y[inner] = basis[j] / s
        images[j] = s * apply(y)[inner]
        if j + 1 < _KRYLOV:
            w = images[j]
            for _ in range(2):
                w = w - basis[:j + 1].T @ (basis[:j + 1] @ w)
            basis[j + 1] = w / np.linalg.norm(w)
    h = basis @ images.T
    z = np.linalg.eigh(0.5 * (h + h.T))[1][:, -1] @ basis
    z /= z[np.argmax(np.abs(z))]
    # power steps restore its sign where it is not positive; from the
    # smallest positive entry the ratios (A v)_i / v_i stay finite
    y[inner] = np.maximum(z, np.min(z[z > 0.0])) / s
    return y


def _top_eigenvalue(v, apply, p, inner, bracket: float, ritz: bool):
    """Power iteration from v until the Collatz-Wielandt bracket
    min (Av)_i / v_i <= rho <= max (Av)_i / v_i on the top eigenvalue
    rho of the operator, over the inner nodes, is within the relative
    width bracket.  Returns its midpoint, the last iterate and whether
    Ritz steps are still to be tried.

    Where the second eigenvalue lies close to rho, power steps converge
    too slowly.  So with ritz a Ritz step (_ritz) restarts the iteration
    at step _RITZ_AFTER, and again every _POLISH steps while each one
    narrows the bracket more than its _KRYLOV + _POLISH operator
    applications would have as power steps, at the rate the power steps
    before the first one showed; the first one that does not is undone,
    and power steps alone go on.
    """
    saved = rate = None
    for step in range(1, _POWER_STEPS + 1):
        w = apply(v)
        ratio = w[inner] / v[inner]
        lo, hi = float(ratio.min()), float(ratio.max())
        v = w / w.max()
        if lo > 0.0 and hi - lo <= bracket * hi:
            return 0.5 * (lo + hi), v, ritz
        if step % _POLISH:
            continue
        width = (hi - lo) / hi if lo > 0.0 else math.inf
        if ritz and step >= _RITZ_AFTER:
            if saved is not None and not width < saved[0]:
                v, ritz = saved[1], False
            else:
                if rate is None:
                    rate = min(width / last, 1.0) if width < math.inf else 1.0
                saved = width * rate ** (_KRYLOV / _POLISH + 1.0), v
                v = _ritz(v, apply, p, inner)
        last = width
    raise NumericalError(
        f"power iteration not converged in {_POWER_STEPS} steps (bracket "
        f"[{lo!r}, {hi!r}] on 1/lambda, {v.size - 1} cells)")


def _levels(level, closed: bool, tol: float):
    """lambda_1 of the unit interval, one over the top eigenvalue of the
    operator that level(x, hh) sets up on the nodes x, on m = 64, 128, ...
    cells up to the cap; m = 32 only warm-starts m = 64.  closed: v
    vanishes at both ends (the flux problem), not only at 0.

    Each level starts from the previous level's vector v_m, stepped by
    (v_m - v_{m/2}) / 4 and interpolated: the mesh error of v expands in
    h^2 as the eigenvalue's does, so that step is its change from m to
    2m cells.  Where v_m falls by decades within a few cells (next to
    the pole of a long interval) the step or the cubic can undershoot
    zero, and there the start takes v_m interpolated linearly instead:
    it must be positive for the Collatz-Wielandt bracket to bound the
    eigenvalue.  A Ritz step undone on one level is not tried on the
    next.
    """
    inner = slice(1, -1 if closed else None)
    coarse = v = None
    ritz = True
    m = _MESH_START
    while m <= _MESH_CAP:
        x = np.linspace(0.0, 1.0, m + 1)
        apply, p = level(x, 0.5 / m)
        if v is None:
            v = x * (1.0 - x) if closed else x
        elif coarse is None:
            coarse, v = v, _refine(v, closed)
        else:
            coarse, v = v, _refine(v + (v - _refine(coarse, closed)) / 4.0,
                                   closed)
        if not v[inner].min() > 0.0:
            v = np.where(v > 0.0, v, np.interp(x, x[::2], coarse))
        bracket = _WARM_BRACKET if m == _MESH_START else tol / 8.0
        rho, v, ritz = _top_eigenvalue(v, apply, p, inner, bracket, ritz)
        if m > _MESH_START:
            yield 1.0 / rho
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


def _green_eigenvalue(params: ModelParams, half: float, tol: float) -> float:
    """lambda_1 of the symmetric interval [-half, half] on the tan (short
    of the full domain) or tanh branch, from its odd half problem."""
    return _operator_eigenvalue(_half_level(params, half), False, half, tol)


def _flux_eigenvalue(params: ModelParams, a: float, b: float,
                     tol: float) -> float:
    """lambda_1 of [a, b] on the tan, tanh or coth branch from the flux
    problem, for any interval."""
    return _operator_eigenvalue(_flux_level(params, a, b), True, b - a, tol)


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
