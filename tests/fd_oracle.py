"""Finite-volume oracle for the model's first Neumann eigenvalue.

Cells [a + i h, a + (i+1) h]; unknowns at cell centers.  Fluxes mu w'
are approximated at faces, with zero flux at the two boundary faces
(Neumann).  Rescaling by sqrt(mu_center) symmetrises the pencil
M w = lambda C w into an ordinary symmetric tridiagonal problem, whose
lowest two eigenvalues come from a Sturm-sequence bisection solver.
The lowest one is the discrete constant mode and must sit at zero.

It shares no code with the package's eigenvalue routes (the Green
operators) or with the Pruefer-angle oracle (prufer_oracle.py), so the
tests use it as an independent cross-check.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from specgap import model
from specgap.eigen import EigenQuery
from specgap.errors import MeshTooCoarse, SingularWeight


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
