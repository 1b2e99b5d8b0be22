"""Neumann eigenvalues of the one-dimensional comparison models.

Two independent routes are provided and kept deliberately separate:

* shooting on the model ODE (the production route), and
* a finite-volume matrix discretisation of the self-adjoint form
  (mu w')' = -lambda mu w (the cross-checking oracle).

Shooting exploits a parity fact for symmetric intervals [-L/2, L/2] with
an even weight: the first nontrivial Neumann eigenfunction is odd, so it
solves v(0) = 0, v'(0) = 1 and its first critical point sits at L/2.
That formulation never integrates toward a singular pole of the drift
(the critical point is located transversally in the interior), which is
what makes eigenvalues at the spherical anchor both fast and accurate.
Asymmetric intervals use the general first-maximum distance d(a, T, lam);
either length fixes lambda_1 as a Brent root in lam (about 7 IVP solves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import model
from .bounds import shi_zhang
from .errors import (
    BracketFailure,
    DomainError,
    HorizonReached,
    MeshTooCoarse,
    SingularWeight,
)
from .model import Branch, ModelParams

__all__ = [
    "EigenQuery",
    "neumann_eigenvalue_shooting",
    "lambda1_model",
    "symmetric_interval_length",
    "fd_oracle_eigenvalue",
]

_MAX_WIDEN = 40
_MAX_ITER = 100
_REACH = 1.5  # capped reach in target lengths: the lower seed measures finite


@dataclass(frozen=True)
class EigenQuery:
    """First nontrivial Neumann eigenvalue request on [a, b]."""

    params: ModelParams
    a: float
    b: float
    tol: float = 1e-10

    def __post_init__(self):
        dom = self.params.domain()
        if not (self.a < self.b):
            raise DomainError(f"need a < b, got [{self.a}, {self.b}]")
        if self.a < dom.lo or self.b > dom.hi:
            raise DomainError(
                f"interval [{self.a}, {self.b}] outside model domain "
                f"[{dom.lo}, {dom.hi}]")
        if not (self.tol > 0):
            raise DomainError("tolerance must be positive")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def symmetric(self) -> bool:
        if self.params.branch is Branch.COTH:
            return False
        return abs(self.a + self.b) <= 1e-12 * max(1.0, abs(self.a), abs(self.b))


# ---------------------------------------------------------------------------
# capped length measurements (what the root find matches to a target)

def _turn_distance(params: ModelParams, lam: float, a: float, *,
                   odd: bool = False, reach: float | None = None) -> float:
    """Distance from a to the first w'-zero of the launch at a.

    odd launches v(a) = 0, v'(a) = 1 (half-lengths from the midpoint).
    Returns inf when no zero occurs before min(reach, pole cap); that is
    enough to know the measured length exceeds the reach.
    """
    shot = model.shoot(params, lam, a, odd=odd, reach=reach)
    if shot.kind == "event":
        return shot.t_end - a
    return math.inf


def neumann_eigenvalue_shooting(query: EigenQuery) -> float:
    """First nontrivial Neumann eigenvalue by a Brent root find in lam.

    The measured length (symmetric half-length, or d(a, T, lam) for
    asymmetric intervals) is strictly decreasing in lam, so
    1/measure(lam) - 1/target rises through zero at lambda_1 (it is
    -1/target where no w' zero falls within the reach).
    """
    params, L = query.params, query.length
    if query.symmetric:
        target, a, odd = 0.5 * L, 0.0, True
    else:
        target, a, odd = L, query.a, False
    reach = a + _REACH * target

    # interval-position monotonicity makes the central interval the
    # smallest eigenvalue among intervals of this length, and the
    # quadratic bound floors that, so this seed is already a valid
    # lower bracket up to degenerate equality cases; the widening loop
    # mops those up
    lo = 0.9 * max(shi_zhang(params.dim, params.curv, L), 1e-12)
    floor = math.nan
    if query.symmetric and params.branch is Branch.TAN:
        # lambda_1 >= N Kbar (Lichnerowicz), and at N Kbar the odd
        # solution is sin(sqrt(Kbar) t), whose w' vanishes at the pole:
        # a lower end known without a shot into the pole
        floor = params.dim * params.curv
        lo = max(lo, floor)

    @cache  # brentq re-evaluates both bracket ends: solve each lam once
    def f(lam):
        if lam == floor:
            return 1.0 / params.domain().hi - 1.0 / target
        return (1.0 / _turn_distance(params, lam, a, odd=odd, reach=reach)
                - 1.0 / target)

    for _ in range(_MAX_WIDEN):
        if f(lo) < 0.0:
            break
        lo /= 16.0
    else:
        raise BracketFailure("no lower bracket for the eigenvalue")

    hi = 8.0 * max(math.pi ** 2 / L ** 2,
                   params.dim * max(params.curv, 0.0))
    for _ in range(_MAX_WIDEN):
        if f(hi) >= 0.0:
            break
        hi *= 4.0
    else:
        raise BracketFailure("no upper bracket for the eigenvalue")

    lam, info = brentq(f, lo, hi, xtol=query.tol * lo, rtol=query.tol,
                       maxiter=_MAX_ITER, full_output=True, disp=False)
    if not info.converged:
        raise BracketFailure(f"root find did not converge in {_MAX_ITER} "
                             f"iterations ({info.flag})")
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
        if D >= full * (1.0 - 1e-12):  # the round sphere, sin(sqrt(K) t)
            return float(params.dim * params.curv)
    return neumann_eigenvalue_shooting(
        EigenQuery(params, -0.5 * D, 0.5 * D, tol))


def symmetric_interval_length(params: ModelParams,
                              lambda_bar: float) -> float:
    """Length of the symmetric interval whose first Neumann eigenvalue
    equals lambda_bar (inverse of lambda1 in the diameter slot).

    Tan branch: defined for lambda_bar >= N Kbar; at the anchor value the
    full domain pi/sqrt(Kbar) is returned (boundary case).  Coth has no
    symmetric interval.  The search runs over the model's default
    horizon (see model.shoot).
    """
    if params.branch is Branch.COTH:
        raise DomainError("coth branch admits no symmetric interval")
    if not (lambda_bar > 0):
        raise DomainError("lambda_bar must be positive")
    if params.branch is Branch.TAN:
        anchor = params.dim * params.curv
        if lambda_bar < anchor * (1.0 - 1e-12):
            raise DomainError(
                f"lambda_bar {lambda_bar} below the full-domain eigenvalue "
                f"N Kbar = {anchor}")
        if lambda_bar <= anchor * (1.0 + 1e-10):
            return math.pi / params.scale

    half = _turn_distance(params, lambda_bar, 0.0, odd=True)
    if math.isinf(half):
        if params.branch is Branch.TAN:
            return math.pi / params.scale
        raise HorizonReached("no symmetric interval found within the horizon")
    return 2.0 * half


# ---------------------------------------------------------------------------
# Finite-volume oracle.
#
# Cells [a + i h, a + (i+1) h]; unknowns at cell centers.  Fluxes
# mu w' are approximated at faces, with zero flux at the two boundary
# faces (Neumann).  Rescaling by sqrt(mu_center) symmetrises the pencil
# M w = lambda C w into an ordinary symmetric tridiagonal problem, whose
# lowest two eigenvalues come from a Sturm-sequence bisection solver.
# The lowest one is the discrete constant mode and must sit at zero.

def fd_oracle_eigenvalue(query: EigenQuery, mesh_points: int,
                         richardson: bool = False) -> float:
    if mesh_points < 16:
        raise MeshTooCoarse(f"need at least 16 cells, got {mesh_points}")
    if richardson:
        lam_m = fd_oracle_eigenvalue(query, mesh_points, False)
        lam_2m = fd_oracle_eigenvalue(query, 2 * mesh_points, False)
        return (4.0 * lam_2m - lam_m) / 3.0

    params, a, b = query.params, query.a, query.b
    h = (b - a) / mesh_points
    centers = a + (np.arange(mesh_points) + 0.5) * h
    faces = a + np.arange(mesh_points + 1) * h

    mu_c = np.asarray(model.weight_mu(params, centers), dtype=float)
    mu_f = np.asarray(model.weight_mu(params, faces), dtype=float)
    mu_f[0] = 0.0
    mu_f[-1] = 0.0
    if np.any(mu_c <= 0.0) or np.any(~np.isfinite(mu_c)):
        raise SingularWeight("weight vanishes or overflows at a cell center")

    inv_h2 = 1.0 / (h * h)
    diag = (mu_f[:-1] + mu_f[1:]) * inv_h2 / mu_c
    off = -mu_f[1:-1] * inv_h2 / np.sqrt(mu_c[:-1] * mu_c[1:])

    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 1),
                            eigvals_only=True)
    lam0, lam1 = float(vals[0]), float(vals[1])
    if abs(lam0) > 1e-8 * lam1:
        raise MeshTooCoarse(
            f"constant mode off zero ({lam0:.3e} vs lambda1 {lam1:.3e}); "
            "refine the mesh")
    return lam1
