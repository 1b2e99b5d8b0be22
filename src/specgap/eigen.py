"""Neumann eigenvalues of the one-dimensional comparison models.

Two independent routes are provided and kept deliberately separate:

* shooting on the model ODE (the production route), and
* a finite-volume matrix discretisation of the self-adjoint form
  (mu w')' = -lambda mu w (the cross-checking oracle).

Shooting follows the scaled Pruefer angle phi = atan2(sqrt(lam) w, w')
(model.prufer_angle) to the far end of the interval, where the Neumann
condition w' = 0 reads phi = pi/2, so lambda_1 is the root of a
continuous, strictly increasing function with no event or cap.  On a
symmetric interval [-L/2, L/2] with an even weight the first nontrivial
eigenfunction is odd: it starts at the midpoint from v(0) = 0, v'(0) = 1
and never integrates toward a pole.  Other intervals launch at the left
end, a tan interval ending at the right pole from its mirror image.  The
root is a Brent root in sqrt(lam) (about 9 solves with its certificate):
the angle must change sign across lam (1 -+ tol) by more than its
integration error, or NumericalError is raised.
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
    MeshTooCoarse,
    NumericalError,
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
# bound on the Pruefer angle's integration error, for the root certificate
_ANGLE_ERR = 1e-12


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

    A Brent root in k = sqrt(lam) of the Pruefer angle at the far end less
    pi/2 (see the module docstring).  The full tan domain is the round
    sphere: N Kbar, without integrating.  Raises NumericalError when the
    angle cannot certify the root to query.tol.
    """
    params, L = query.params, query.length
    tan = params.branch is Branch.TAN
    if tan and L >= math.pi / params.scale * (1.0 - 1e-12):
        return float(params.dim * params.curv)  # sin(sqrt(Kbar) t) closes it
    a, b, odd = query.a, query.b, query.symmetric
    if odd:
        a, b = 0.0, 0.5 * L
    elif tan and b == params.domain().hi:
        a, b = -b, -a  # the even weight mirrors it onto a left-pole launch

    @cache  # brentq re-evaluates both bracket ends: solve each k once
    def f(k):
        """Angle past pi/2 at lam = k^2, in which it is close to linear."""
        return model.prufer_angle(params, k * k, a, b, odd=odd) - 0.5 * math.pi

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
    tol = query.tol
    k, info = brentq(f, lo, hi, xtol=0.05 * tol * lo,
                     rtol=max(0.05 * tol, 1e-15), maxiter=_MAX_ITER,
                     full_output=True, disp=False)
    if not info.converged:
        raise BracketFailure(f"root find did not converge in {_MAX_ITER} "
                             f"iterations ({info.flag})")
    # the band lam (1 -+ tol) around lam = k^2 must bracket the root
    if not (f(k * math.sqrt(1.0 - tol)) < -_ANGLE_ERR
            and f(k * math.sqrt(1.0 + tol)) > _ANGLE_ERR):
        raise NumericalError(
            f"eigenvalue {k * k!r} not certified to {tol:g}: the angle does "
            f"not clear its error {_ANGLE_ERR:g} across the band")
    return k * k


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

    Twice the t where the odd launch's Pruefer angle reaches pi/2, a Brent
    root in t: every crossing is upward (phi' = sqrt(lambda_bar) there),
    so it is the only one.  Below pi/2 the angle rises at least at
    sqrt(lambda_bar) off the tan branch, so the crossing comes before
    pi/sqrt(lambda_bar).  Tan branch: defined for lambda_bar >= N Kbar; at
    the anchor value, or with the crossing within 1e-9 relative of the
    pole, the full domain pi/sqrt(Kbar) is returned (boundary case).
    Coth has no symmetric interval.
    """
    if params.branch is Branch.COTH:
        raise DomainError("coth branch admits no symmetric interval")
    if not (lambda_bar > 0):
        raise DomainError("lambda_bar must be positive")

    def f(t):
        return (model.prufer_angle(params, lambda_bar, 0.0, t, odd=True)
                - 0.5 * math.pi)

    hi = math.pi / math.sqrt(lambda_bar)
    if params.branch is Branch.TAN:
        full = math.pi / params.scale
        anchor = params.dim * params.curv
        if lambda_bar < anchor * (1.0 - 1e-12):
            raise DomainError(
                f"lambda_bar {lambda_bar} below the full-domain eigenvalue "
                f"N Kbar = {anchor}")
        hi = 0.5 * full * (1.0 - 1e-9)
        if lambda_bar <= anchor * (1.0 + 1e-10) or f(hi) <= 0.0:
            return full
    return 2.0 * brentq(f, 0.0, hi, xtol=1e-15, rtol=8.9e-16)


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
