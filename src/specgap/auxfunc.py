"""Auxiliary multiplier J built from a curvature deficit profile.

A one-dimensional carrier (circle of circumference L, or an interval of
length L with reflecting ends) holds a curvature profile rho(t), read as
the Ricci lower envelope in the radial direction of an n-manifold.  The
deficit against the constant benchmark (n-1)K is

    rho_K(t) = max((n-1) K - rho(t), 0),

so rho_K vanishes wherever the profile honours Ric >= (n-1)K and is
positive on the bad set.  Its L^p average k_bar = (mean rho_K^p)^(1/p)
is the smallness quantity the integral-curvature bounds consume.

The multiplier J > 0 with mean 1 is constructed from the principal
eigenpair of a Schroedinger operator: with V = 2 (tau - 1) rho_K and
W > 0 the eigenfunction of the LARGEST eigenvalue sigma_tilde of
d^2/dt^2 + V (periodic or Neumann ends), set

    J = W^(-1/(tau-1)),    sigma = sigma_tilde / (tau - 1),

which solves  J'' - tau (J')^2 / J - 2 rho_K J + sigma J = 0 and keeps
sigma >= 0 (the largest eigenvalue dominates the V = 0 case).  tau > 1
is a free exponent; larger tau flattens J at the price of larger sigma.

The discrete operator A is tridiagonal (cyclic on the circle) with
positive off-diagonal entries, so for any shift s above its top
eigenvalue sI - A is a nonsingular M-matrix with a nonnegative inverse.
Inverse iteration from a positive vector (ones, or on fine meshes the
interpolated eigenvector of a coarser mesh), shifted by the
Collatz-Wielandt bound s = max_i (A v)_i / v_i, therefore keeps every
iterate, and W, strictly positive by construction: no sign of an
eigenvector has to be guessed or repaired.
"""

from __future__ import annotations

import csv
import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DomainError, MeshTooCoarse, NonPositiveEigenfunction,
                     NumericalError, ProfileFormatError)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = [
    "Geometry",
    "CurvatureProfile",
    "JSolution",
    "JReport",
    "rho_K",
    "k_bar",
    "solve_J",
    "j_equation_residual",
    "check_lemma_J",
]


def dptsv(d, e, b):
    """Solve the symmetric positive definite tridiagonal system with
    diagonal ``d``, off-diagonal ``e`` and right-hand side(s) ``b`` by
    LAPACK's ``dptsv`` (L D L^T, no pivoting), which overwrites all three
    when they are contiguous float arrays.  scipy is imported on the first
    call (it is not loaded with the package); tests replace this name.

    ``dptsv`` reports a pivot that is not positive through ``info`` and
    then leaves ``b`` unsolved, so that raises ``NumericalError``.
    """
    from scipy.linalg.lapack import dptsv as lapack_dptsv
    pivots, _, x, info = lapack_dptsv(d, e, b, overwrite_d=1, overwrite_e=1,
                                      overwrite_b=1)
    if info > 0:
        raise NumericalError(
            f"pivot {info} of the tridiagonal system is "
            f"{float(pivots[info - 1])!r}, not positive")
    if info < 0:
        raise NumericalError(f"dptsv rejected argument {-info}")
    return x


def __getattr__(name):
    # eigh and eigh_tridiagonal are unused here: bench/spans.py wraps both
    # to time eigensolves, until the program owns its counters (ROADMAP
    # item 1); they load scipy.linalg only when looked up
    if name in ("eigh", "eigh_tridiagonal"):
        import scipy.linalg
        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Geometry(str, enum.Enum):
    CIRCLE = "circle"
    INTERVAL = "interval"


@dataclass(frozen=True)
class CurvatureProfile:
    """Radial Ricci lower envelope on a circle or interval of length L."""

    geometry: Geometry
    length: float
    dim: int
    func: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        if not (self.length > 0) or not math.isfinite(self.length):
            raise DomainError(f"length must be positive, got {self.length}")
        if not 2 <= self.dim < math.inf:
            raise DomainError(
                f"dimension must be finite and >= 2, got {self.dim}")

    def _wrap(self, t: np.ndarray) -> np.ndarray:
        if self.geometry is Geometry.CIRCLE:
            return np.mod(t, self.length)
        return np.clip(t, 0.0, self.length)

    def sample(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = np.asarray(self.func(self._wrap(np.atleast_1d(t))), dtype=float)
        if not np.all(np.isfinite(out)):
            raise DomainError("curvature profile returned non-finite values")
        return float(out[0]) if scalar else out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float, length: float, dim: int,
                 geometry: Geometry = Geometry.CIRCLE) -> "CurvatureProfile":
        v = float(value)
        return cls(geometry, float(length), dim, lambda t: np.full_like(t, v))

    @classmethod
    def bump(cls, base: float, depth: float, width: float, center: float,
             length: float, dim: int,
             geometry: Geometry = Geometry.CIRCLE) -> "CurvatureProfile":
        """Smooth localized dip: rho = base - depth cos^4(pi s / (2 width))
        on |s| <= width where s is (periodic) distance to the center.
        cos^4 keeps the profile C^3, so discretizations see their full
        design order.  On the circle the center is taken mod L."""
        if not all(map(math.isfinite, (base, depth, width, center))):
            raise DomainError(
                f"bump base, depth, width and center must be finite, got "
                f"{(base, depth, width, center)}")
        if width <= 0 or width > length / 2:
            raise DomainError(f"bump width must lie in (0, L/2], got {width}")
        L = float(length)
        c = float(center)
        if geometry is Geometry.CIRCLE:
            c %= L   # a center in [0, L) stays as it is, bit for bit

        def f(t: np.ndarray) -> np.ndarray:
            s = np.abs(t - c)
            if geometry is Geometry.CIRCLE:
                s = np.minimum(s, L - s)
            prof = np.full_like(t, float(base))
            inside = s < width
            prof[inside] -= depth * np.cos(
                0.5 * np.pi * s[inside] / width) ** 4
            return prof

        return cls(geometry, L, dim, f)

    @classmethod
    def from_samples(cls, t, values, length: float, dim: int,
                     geometry: Geometry = Geometry.CIRCLE
                     ) -> "CurvatureProfile":
        t = np.asarray(t, dtype=float)
        values = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != values.shape or t.size < 2:
            raise ProfileFormatError("need matching 1-d arrays, >= 2 samples")
        if np.any(np.diff(t) <= 0):
            raise ProfileFormatError("sample abscissae must be increasing")
        if t[0] < 0 or t[-1] > length:
            raise ProfileFormatError("sample abscissae must lie in [0, L]")
        if geometry is Geometry.CIRCLE:
            # periodic wrap: append the first sample at t[0] + L
            tp = np.concatenate([t, [t[0] + length]])
            vp = np.concatenate([values, [values[0]]])
            f = lambda x: np.interp(np.mod(x - t[0], length) + t[0], tp, vp)
        else:
            f = lambda x: np.interp(x, t, values)
        return cls(geometry, float(length), dim, f)

    @classmethod
    def from_csv(cls, path, length: float, dim: int,
                 geometry: Geometry = Geometry.CIRCLE) -> "CurvatureProfile":
        """Load 't,rho' rows; blank lines and '#' comments are skipped.

        A 't,rho' header may stand before the first data row.
        """
        ts, vs = [], []
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (row[0].lstrip().startswith("#")):
                    continue
                if not ts and [c.strip().lower() for c in row[:2]] == [
                        "t", "rho"]:
                    continue
                if len(row) < 2:
                    raise ProfileFormatError(
                        f"{path}:{lineno}: expected 't,rho', got {row!r}")
                try:
                    ts.append(float(row[0]))
                    vs.append(float(row[1]))
                except ValueError as exc:
                    raise ProfileFormatError(
                        f"{path}:{lineno}: {exc}") from None
        if len(ts) < 2:
            raise ProfileFormatError(f"{path}: fewer than 2 data rows")
        return cls.from_samples(ts, vs, length, dim, geometry)


def rho_K(profile: CurvatureProfile, K: float, t) -> np.ndarray:
    """Curvature deficit max((n-1)K - rho(t), 0) at the given points."""
    vals = (profile.dim - 1.0) * K - profile.sample(t)
    return np.maximum(vals, 0.0)


def _mesh_cells(mesh, least: int) -> int:
    """``mesh`` as an int of at least ``least`` cells; a fractional mesh
    would build cells that do not end at L."""
    try:
        mesh = operator.index(mesh)
    except TypeError:
        raise DomainError(f"mesh must be an integer, got {mesh!r}") from None
    if mesh < least:
        raise MeshTooCoarse(f"need >= {least} mesh points, got {mesh}")
    return mesh


def k_bar(profile: CurvatureProfile, K: float, p: float = 1.0,
          mesh: int = 8192) -> float:
    """L^p mean of the deficit: (1/L int rho_K^p dt)^(1/p).

    The deficit is divided by its maximum before the power is taken, so
    the mean neither overflows nor underflows where k_bar is a float.
    """
    if not math.isfinite(K):
        raise DomainError(f"K must be finite, got {K}")
    if not 1 <= p < math.inf:
        raise DomainError(f"exponent p must be finite and >= 1, got {p}")
    mesh = _mesh_cells(mesh, 1)
    rk = rho_K(profile, K, np.linspace(0.0, profile.length, mesh + 1))
    top = float(np.max(rk))
    if not math.isfinite(top):
        raise NumericalError(f"the deficit overflows at K = {K!r}")
    if top == 0.0:
        return 0.0
    mean = float(_trapezoid((rk / top) ** p, dx=1.0 / mesh))
    return top * mean ** (1.0 / p)


# ---------------------------------------------------------------------------
# principal eigenpair and the multiplier J


@dataclass(frozen=True)
class JSolution:
    profile: CurvatureProfile
    K: float
    tau: float
    mesh: int
    t: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    sigma: float
    sigma_tilde: float

    @property
    def h(self) -> float:
        return self.profile.length / self.mesh


_MAX_ITER = 100   # inverse-iteration steps; 0 to 8 is usual, 16 seen
_COARSE = 8       # mesh ratio of the level that starts a fine iteration
_COARSE_FROM = 3584   # least mesh started from a coarse level (measured)
_STEP_TOL = 1e-6  # largest relative change of any entry of v in the last step
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _shifted_solve(d: np.ndarray, off: float, v: np.ndarray,
                   periodic: bool) -> np.ndarray:
    """x with (s - A) x = v, for the operator A of ``_top_eigenpair``.

    ``d`` is the diagonal s - diag(A) > 0 of the shifted matrix, which it
    overwrites; its off-diagonal entries are -off, and on the circle also
    the two corners.  One ``dptsv`` call factors the tridiagonal part.  On
    the circle it takes the right-hand sides v, e_0 and e_{m-1} at once,
    and the corners enter through the adjugate of a 2 x 2 Woodbury
    M-matrix, as sums of nonnegative terms.
    """
    m = d.size
    e = np.full(m - 1, -off)
    if not periodic:
        return dptsv(d, e, v.copy())
    rhs = np.zeros((m, 3), order="F")
    rhs[:, 0] = v
    rhs[0, 1] = rhs[-1, 2] = 1.0
    y = dptsv(d, e, rhs)
    # x = y + off (x_{m-1} p + x_0 q), p = T^-1 e_0, q = T^-1 e_{m-1}, and
    # [[a, -b], [-c, g]] (x_0, x_{m-1}) = (y_0, y_{m-1})
    p, q = y[:, 1], y[:, 2]
    a, b, c, g = 1 - off * q[0], off * p[0], off * q[-1], 1 - off * p[-1]
    y0, y1, det = y[0, 0], y[-1, 0], a * g - b * c
    x0, x1 = (g * y0 + b * y1) / det, (a * y1 + c * y0) / det
    return y[:, 0] + off * (x1 * p + x0 * q)


def _coarse_start(V: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """Start vector for ``_top_eigenpair`` on a mesh of ``_COARSE_FROM`` or
    more cells: the top eigenvector of the same operator on a mesh
    ``_COARSE`` times coarser, linearly interpolated back onto the mesh of
    ``V`` (Brandt's nested iteration, Math. Comp. 31, 1977).

    The coarse potential is ``V`` interpolated at the coarse points, so
    any mesh size works.  Points are cell centres on the interval and
    periodic nodes on the circle, in units of the fine mesh width.  A
    coarse level that fails gives ``ones``, the start without it.
    """
    m = V.size
    mc = m // _COARSE
    ratio = m / mc
    shift = 0.0 if periodic else 0.5
    Vc = np.interp((np.arange(mc) + shift) * ratio - shift, np.arange(m), V)
    try:
        _, vc = _top_eigenpair(Vc, h * ratio, periodic)
    except NumericalError:   # NonPositiveEigenfunction is one too
        return np.ones(m)
    if periodic:   # the last fine nodes lie between coarse nodes mc - 1 and 0
        vc = np.append(vc, vc[0])
    return np.interp((np.arange(m) + shift) / ratio - shift,
                     np.arange(vc.size), vc)


def _top_eigenpair(V: np.ndarray, h: float,
                   periodic: bool) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its positive eigenvector of d^2/dt^2 + V.

    The second difference is cyclic when ``periodic``, otherwise it has
    reflecting ends.  Noda's inverse iteration (Numer. Math. 17, 1971):
    from a positive v, solve (s - A) v_new = v with the upper
    Collatz-Wielandt shift s = max_i (A v)_i / v_i, which keeps s - A a
    nonsingular M-matrix and v_new > 0, while
    min_i (A v)_i / v_i <= sigma <= s brackets the eigenvalue.  s - A is
    symmetric positive definite, so each step is one L D L^T
    factorisation without pivoting (``_shifted_solve``).

    Below ``_COARSE_FROM`` cells v starts as ones, which takes 4 or 5
    steps.  From ``_COARSE_FROM`` cells on it starts from the top
    eigenvector of a mesh ``_COARSE`` times coarser (``_coarse_start``,
    which calls this function and so recurses down to a mesh below the
    threshold), and takes 1 to 3 steps; counting the coarse levels, the
    work is 1.2 to 3.6 fine-mesh solves.  If a coarse level raises, v
    starts as ones.  The threshold is the least mesh past the measured
    crossover at which the coarse start won on both geometries in every
    run: ``solve_J`` time with the coarse start over the time from ones
    (mean of 4 bump and 4 Mathieu profiles, best of 21 interleaved
    repeats, three or four runs on a shared 2-CPU host) was 1.06-1.19 at
    mesh 2048, 0.97-1.07 at 2560, 0.92-1.00 at 3072, 0.89-0.95 at 3584,
    0.87-0.94 at 4096 and 0.79-0.86 at 8192, alike on the circle and the
    interval.  Below it the coarse level's fixed cost per step (numpy
    calls, the circle's 2 x 2 solve) outweighs the fine steps it saves.

    J = W^(-1/(tau-1)) reads every entry of v relative to itself, and far
    from a deep well v is many decades below its maximum, where it
    converges steps after the Rayleigh quotient has.  So the iteration
    stops only when the Rayleigh quotient moves by at most the rounding
    floor 4 eps (4/h^2 + max V) and no entry of v changed by more than
    ``_STEP_TOL`` relative in the last step, or when the bracket closes to
    the floor (v = ones on a constant potential).  Once the quotient has
    settled each step shrinks the error by (s - sigma) / (s - sigma_2), so
    the returned v is much closer than ``_STEP_TOL`` to the fixed point,
    unless the top two eigenvalues nearly coincide, where no solver pins
    the eigenvector down better than about eps (4/h^2 + max V) / gap.  (The
    bracket alone cannot serve: rounding in the solves roughens v, and its
    ratios scatter by about sqrt(mesh)/4 floors.)  Returns the Rayleigh
    quotient and v with max v = 1.
    """
    off = 1.0 / h**2
    diag = V - 2.0 * off
    if not periodic:
        diag[[0, -1]] += off   # reflecting end: no flux through the wall
    floor = 4.0 * _EPS * (4.0 * off + float(np.max(V)))
    if V.size >= _COARSE_FROM:
        v = _coarse_start(V, h, periodic)
    else:
        v = np.ones(V.size)
    ratio = np.empty(V.size)   # (A v) / v, then s - diag, then v_new / v
    rq, change = math.nan, math.inf
    for _ in range(_MAX_ITER):
        ov = off * v
        Av = diag * v
        Av[1:] += ov[:-1]
        Av[:-1] += ov[1:]
        if periodic:
            Av[0] += ov[-1]
            Av[-1] += ov[0]
        np.divide(Av, v, out=ratio)
        lo, s = float(ratio.min()), float(ratio.max())
        rq_new = float(v @ Av) / float(v @ v)
        if s - lo <= floor or (abs(rq_new - rq) <= floor
                               and change <= _STEP_TOL):
            return rq_new, v
        rq = rq_new
        v_new = _shifted_solve(np.subtract(s, diag, out=ratio), off, v,
                               periodic)
        v_new /= v_new.max()
        if not v_new.min() > 0.0:
            raise NonPositiveEigenfunction(
                f"inverse iterate dips to {v_new.min():.3e}; "
                "refine the mesh or smooth the profile")
        # v_new / v - 1 rounds monotonically in the ratio, so this is
        # max |v_new / v - 1|
        np.divide(v_new, v, out=ratio)
        change = max(float(ratio.max()) - 1.0, 1.0 - float(ratio.min()))
        v = v_new
    raise NumericalError(
        f"principal eigenpair not converged in {_MAX_ITER} inverse "
        f"iterations (bracket [{lo!r}, {s!r}], last step moved v by "
        f"{change:.1e} relative)")


def solve_J(profile: CurvatureProfile, K: float, tau: float = 2.0,
            mesh: int = 1024) -> JSolution:
    """Principal eigenpair of d^2/dt^2 + 2(tau-1) rho_K, then J = W^(-1/(tau-1)).

    Circle: second-difference Laplacian on an equispaced periodic grid.
    Interval: cell-centered grid with reflecting ends.  Both take the top
    eigenpair from ``_top_eigenpair``, O(mesh) work and memory per
    inverse-iteration step, which returns W > 0 with max W = 1 or raises.
    sigma_tilde is the Rayleigh quotient of W.  J is normalized to mean 1.
    """
    if not math.isfinite(K):
        raise DomainError(f"K must be finite, got {K}")
    if not 1 < tau < math.inf:
        raise DomainError(f"tau must be finite and exceed 1, got {tau}")
    mesh = _mesh_cells(mesh, 16)
    L = profile.length
    h = L / mesh
    # 1/h^2 a normal float, and 4/h^2 + max V (the operator's norm bound,
    # which sets the rounding floor of _top_eigenpair) finite
    if not 4.0 * _TINY < h * h < 1.0 / _TINY:
        raise DomainError(f"mesh width L/mesh = {h!r} puts 1/h^2 outside "
                          "the float range")
    periodic = profile.geometry is Geometry.CIRCLE
    if periodic:
        t = np.arange(mesh) * h
    else:
        t = (np.arange(mesh) + 0.5) * h
    rk = rho_K(profile, K, t)
    scale = 2.0 * (tau - 1.0)
    if not scale * float(np.max(rk)) + 4.0 / (h * h) < math.inf:
        raise DomainError(f"the potential 2 (tau - 1) rho_K overflows at "
                          f"K = {K!r}, tau = {tau!r}")
    V = scale * rk
    sigma_tilde, W = _top_eigenpair(V, h, periodic)
    J = W ** (-1.0 / (tau - 1.0))
    J = J / np.mean(J)
    return JSolution(profile=profile, K=K, tau=tau, mesh=mesh, t=t, J=J,
                     W=W, sigma=sigma_tilde / (tau - 1.0),
                     sigma_tilde=sigma_tilde)


def j_equation_residual(sol: JSolution) -> np.ndarray:
    """Pointwise defect of J'' - tau (J')^2 / J - 2 rho_K J + sigma J.

    Derivatives are central second differences on the solve grid, with
    periodic wrap or reflecting ghosts matching the geometry; for smooth
    profiles the sup norm decays at second order in the mesh width.
    """
    J, h = sol.J, sol.h
    if sol.profile.geometry is Geometry.CIRCLE:
        Jp = (np.roll(J, -1) - np.roll(J, 1)) / (2 * h)
        Jpp = (np.roll(J, -1) - 2 * J + np.roll(J, 1)) / h**2
    else:
        Je = np.concatenate([[J[0]], J, [J[-1]]])  # mirror ghosts
        Jp = (Je[2:] - Je[:-2]) / (2 * h)
        Jpp = (Je[2:] - 2 * Je[1:-1] + Je[:-2]) / h**2
    rk = rho_K(sol.profile, sol.K, sol.t)
    return Jpp - sol.tau * Jp**2 / J - 2.0 * rk * J + sol.sigma * J


@dataclass(frozen=True)
class JReport:
    positive: bool
    mean_one: bool
    sigma_nonneg: bool
    residual_sup: float

    @property
    def all_ok(self) -> bool:
        return self.positive and self.mean_one and self.sigma_nonneg


def check_lemma_J(sol: JSolution) -> JReport:
    """Structural checks on a computed multiplier: positivity, mean-1
    normalization, nonnegative sigma, and the equation defect's sup."""
    res = j_equation_residual(sol)
    return JReport(
        positive=bool(np.min(sol.J) > 0),
        mean_one=bool(abs(float(np.mean(sol.J)) - 1.0) <= 1e-12),
        sigma_nonneg=bool(sol.sigma >= -1e-10 * max(1.0, abs(sol.sigma))),
        residual_sup=float(np.max(np.abs(res))),
    )
