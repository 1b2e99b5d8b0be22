"""Write docs/domain.md: where lambda1(n, K, D) and the eigenvalues of
asymmetric intervals are trusted.

    PYTHONPATH=src python docs/domain_map.py

For each (n, K, D) of the grid it runs two methods on the symmetric
interval of length D:

* lambda1_model, the production route: the Green operator of the flux
  F = mu w', folded onto half the interval, where F' vanishes, and
* the Pruefer-angle Brent root launched at the left end, as on any
  other interval (tests/prufer_oracle.py, the tests' shooting oracle),

and compares each value with a reference that shares no code with
either:

* K = 0: pi^2/D^2;
* n = 3: the closed form (tests/n3_oracle.py);
* other n, K < 0: the half-interval flux form (tests/flux_oracle.py);
* other n, K > 0: the Pruefer root where it certifies, else none.

A verdict is "meets tol" (within the default tol 1e-10 of the
reference), "typed error" (a SpecgapError), "unchecked" (no reference)
or SILENT MISS.  The grid is n in {1.5, 2, 3, 4, 5, 10}, K from -4 to 2,
and 10 log-spaced D from 0.05 up to 1e-6 short of the closing diameter
pi/sqrt(K) (K > 0), |K| D^2 = 1e3 (K < 0) or 30 (K = 0).

On asymmetric intervals it runs neumann_eigenvalue_shooting (the flux
operator, on the uniform mesh or the one graded at a pole end, counting
its integrator calls) and the Pruefer root on every point.  The points
(seeded draws):

* the six interval kinds of the singular benchmark, 8 draws each;
* 72 long (3, -1) intervals of length 4.5 to 8, 36 tanh with a in
  [-2, 0] and 36 coth with a in [0, 1];
* 32 (10, -1) tanh intervals, [-1.863, 2.082], [-1.55, 2.747] and 30
  with a in [-2, -0.3] and b in [0.5, 3];
* tan intervals at the left and the right pole and coth ones at the
  origin, and the same 1e-6 and 1e-3 away, for n in {1.5, 2, 2.5, 3,
  4.5};
* three long (3, -1) intervals near the essential threshold;
* long pole: coth [0, L] with K = -1 for n in {1.2, 1.5, 1.8, 2.5, 3,
  3.5, 4.5, 7, 7.5, 10.5} and theta L = (n - 1) L in {5, 10, 20, 50,
  100, 200, 300, 400, 600}, and (n, L) = (5, 80), (7, 40) and (10, 40);
  (3, 5) is the pole set's coth [0, 2.5], listed there only.

References: for n = 3 the closed form on [a, b]; for the (10, -1)
intervals the flux-form shot on [a, b]; otherwise the Pruefer root where
it certifies, else none.

The script exits with status 1 if any verdict is SILENT MISS, or if
lambda1_model raises on any symmetric point.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

from specgap import model
from specgap.eigen import (EigenQuery, _pole_ends, lambda1_model,
                           neumann_eigenvalue_shooting)
from specgap.errors import SpecgapError
from specgap.model import Branch, ModelParams, branch_for_curvature

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from flux_oracle import flux_form, flux_shot  # noqa: E402
from n3_oracle import lambda1_interval, lambda1_symmetric  # noqa: E402
from prufer_oracle import prufer_eigenvalue  # noqa: E402

TOL = 1e-10
DIMS = (1.5, 2.0, 3.0, 4.0, 5.0, 10.0)
CURVS = (-4.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0)
N_D = 10
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "domain.md")


def diameters(K: float) -> np.ndarray:
    if K > 0:
        top = math.pi / math.sqrt(K) * (1.0 - 1e-6)
    elif K < 0:
        top = math.sqrt(1e3 / -K)
    else:
        top = 30.0
    return np.geomspace(0.05, top, N_D)


def asymmetric_points():
    """(set, params, a, b) of the asymmetric map (module docstring)."""
    rng = np.random.default_rng(18)
    half_pi = math.pi / 2
    tan = ModelParams(3.0, 1.0, Branch.TAN)
    coth = ModelParams(3.0, -1.0, Branch.COTH)
    tanh = ModelParams(3.0, -1.0, Branch.TANH)
    for _ in range(8):
        yield "singular", tan, rng.uniform(-1.0, -0.6), rng.uniform(0.9, 1.1)
        yield "singular", tan, -half_pi, rng.uniform(0.2, 0.4)
        yield "singular", tan, rng.uniform(-0.3, 0.0), half_pi
        yield "singular", coth, 0.0, rng.uniform(1.6, 2.0)
        yield "singular", coth, rng.uniform(0.3, 0.6), rng.uniform(2.0, 2.4)
        yield "singular", tanh, rng.uniform(-0.8, -0.4), rng.uniform(1.4, 1.8)
    for params, lo, hi in ((tanh, -2.0, 0.0), (coth, 0.0, 1.0)):
        for _ in range(36):
            a = rng.uniform(lo, hi)
            yield "long", params, a, a + rng.uniform(4.5, 8.0)
    n10 = ModelParams(10.0, -1.0, Branch.TANH)
    yield "n = 10", n10, -1.863, 2.082
    yield "n = 10", n10, -1.55, 2.747
    for _ in range(30):
        yield "n = 10", n10, rng.uniform(-2.0, -0.3), rng.uniform(0.5, 3.0)
    for n in (1.5, 2.0, 2.5, 3.0, 4.5):
        tan_n = ModelParams(n, 1.0, Branch.TAN)
        coth_n = ModelParams(n, -1.0, Branch.COTH)
        for off in (0.0, 1e-6, 1e-3):
            for b in (-1.2, 0.0, 1.3):
                yield "pole", tan_n, -half_pi + off, b
            yield "pole", tan_n, -0.5, half_pi - off
            for b in (0.3, 1.0, 2.5):
                yield "pole", coth_n, off, b
    for a, b in ((-10.0, 30.0), (-1.0, 60.0)):
        yield "threshold", tanh, a, b
    yield "threshold", coth, 0.0, 40.0
    for n in (1.2, 1.5, 1.8, 2.5, 3.0, 3.5, 4.5, 7.0, 7.5, 10.5):
        for theta_l in (5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0, 400.0,
                        600.0):
            if (n, theta_l) == (3.0, 5.0):
                continue  # coth [0, 2.5], in the pole set
            yield "long pole", ModelParams(n, -1.0, Branch.COTH), 0.0, \
                theta_l / (n - 1.0)
    for n, b in ((5.0, 80.0), (7.0, 40.0), (10.0, 40.0)):
        yield "long pole", ModelParams(n, -1.0, Branch.COTH), 0.0, b


def asymmetric_rows():
    """One row per point, and the integrator calls of all the route's
    calls."""
    calls = [0]
    integrate = model._scipy_solve_ivp

    def counted(*args, **kwargs):
        calls[0] += 1
        return integrate(*args, **kwargs)

    rows = []
    for name, params, a, b in asymmetric_points():
        n, K, branch = params.dim, params.curv, params.branch
        model._scipy_solve_ivp = counted
        try:
            route = attempt(lambda: neumann_eigenvalue_shooting(
                EigenQuery(params, a, b, TOL)))
        finally:
            model._scipy_solve_ivp = integrate
        mesh = "graded" if any(_pole_ends(params, a, b)) else "uniform"
        # the Pruefer root launches at the left end, so a tan interval
        # ending at the right pole goes to the oracles as its mirror
        # image, which the even weight gives the same eigenvalue
        oa, ob = a, b
        if branch is Branch.TAN and b == params.domain().hi:
            oa, ob = -b, -a
        prufer = attempt(lambda: prufer_eigenvalue(params, oa, ob, TOL))
        if n == 3:
            ref = lambda1_interval(K, oa, ob, branch.value)
            source = "closed form"
        elif branch is Branch.TANH:
            seed = prufer if isinstance(prufer, float) else route
            ref = (flux_shot(n, K, a, b, seed)
                   if isinstance(seed, float) else None)
            source = "flux shot"
        elif isinstance(prufer, float):
            ref, source = prufer, "Pruefer"
        else:
            ref = None
        if ref is None:
            source = "none"
        rows.append((name, params, a, b, mesh, route, prufer, ref, source,
                     verdict(route, ref),
                     verdict(prufer, None if source == "Pruefer" else ref)))
    return rows, calls[0]


def attempt(fn):
    try:
        return fn()
    except SpecgapError as exc:
        return type(exc).__name__


def verdict(value, ref) -> str:
    if isinstance(value, str):
        return "typed error"
    if ref is None:
        return "unchecked"
    return "meets tol" if abs(value / ref - 1.0) <= TOL else "SILENT MISS"


def text(x) -> str:
    return x if isinstance(x, str) else f"{x:.12e}"


def main() -> None:
    start = time.perf_counter()
    rows = []
    for n in DIMS:
        for K in CURVS:
            params = ModelParams(n, K, branch_for_curvature(K, "symmetric"))
            for D in diameters(K):
                D = float(D)
                green = attempt(lambda: lambda1_model(n, K, D))
                prufer = attempt(lambda: prufer_eigenvalue(
                    params, -0.5 * D, 0.5 * D, TOL))
                if K == 0:
                    ref, source = math.pi ** 2 / D ** 2, "pi^2/D^2"
                elif n == 3:
                    ref, source = lambda1_symmetric(K, D), "closed form"
                elif K < 0:
                    seed = green if isinstance(green, float) else prufer
                    ref = (flux_form(n, K, D, seed)
                           if isinstance(seed, float) else None)
                    source = "flux form" if ref else "none"
                elif isinstance(prufer, float):
                    ref, source = prufer, "Pruefer"
                else:
                    ref, source = None, "none"
                rows.append((n, K, D, green, prufer, ref, source,
                             verdict(green, ref),
                             verdict(prufer, None if source == "Pruefer"
                                     else ref)))

    def count(col, what):
        return sum(r[col] == what for r in rows)

    kinds = ("meets tol", "typed error", "unchecked", "SILENT MISS")
    lines = [
        "# Where lambda1(n, K, D) is trusted",
        "",
        "Written by `docs/domain_map.py` (see its docstring for the grid",
        "and the references); do not edit by hand.  Tolerance 1e-10",
        "relative.  `Green` is `lambda1_model`, the Green operator of the",
        "flux folded onto half the interval;",
        "`Pruefer` is the Pruefer-angle root launched at the left end",
        "(`tests/prufer_oracle.py`);",
        "where it is the reference itself, its verdict is `unchecked`.",
        "",
        "| route | " + " | ".join(kinds) + " |",
        "|---|" + "---|" * len(kinds),
        "| Green | " + " | ".join(str(count(7, k)) for k in kinds) + " |",
        "| Pruefer | " + " | ".join(str(count(8, k)) for k in kinds) + " |",
        "",
        "| n | K | D | theta D | Green | Pruefer | reference | source "
        "| Green verdict | Pruefer verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for n, K, D, green, prufer, ref, source, v1, v2 in rows:
        theta_d = (n - 1.0) * math.sqrt(abs(K)) * D
        lines.append(f"| {n:g} | {K:g} | {D:.6g} | {theta_d:.3g} "
                     f"| {text(green)} | {text(prufer)} "
                     f"| {'-' if ref is None else text(ref)} | {source} "
                     f"| {v1} | {v2} |")
    asym, integrator_calls = asymmetric_rows()
    lines += [
        "",
        "## Asymmetric intervals",
        "",
        "`route` is `neumann_eigenvalue_shooting`, the flux operator on the",
        "`uniform` mesh or the one `graded` at a pole end, and `Pruefer` the",
        "Pruefer-angle root, each run on every point.  The route runs a tan",
        "interval ending at the right pole as given; the Pruefer root and",
        "the closed form take its mirror image, which starts at the left",
        "pole.  Where the Pruefer root is the reference itself, its verdict",
        f"is `unchecked`.  The route's integrator calls: {integrator_calls}.",
        "",
        "| column | " + " | ".join(kinds) + " |",
        "|---|" + "---|" * len(kinds),
    ]
    for col, label in ((9, "route"), (10, "Pruefer")):
        lines.append(f"| {label} | " + " | ".join(
            str(sum(r[col] == k for r in asym)) for k in kinds) + " |")
    lines += [
        "",
        "| set | n | K | branch | a | b | theta L | mesh | route | Pruefer "
        "| reference | source | route verdict | Pruefer verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for (name, params, a, b, mesh, route, prufer, ref, source, v1,
         v2) in asym:
        lines.append(
            f"| {name} | {params.dim:g} | {params.curv:g} "
            f"| {params.branch.value} | {a:.6g} | {b:.6g} "
            f"| {params.theta * (b - a):.3g} | {mesh} | {text(route)} "
            f"| {text(prufer)} | {'-' if ref is None else text(ref)} "
            f"| {source} | {v1} | {v2} |")
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - start:.0f} s: "
          f"{len(rows)} points, Green " + ", ".join(
              f"{count(7, k)} {k}" for k in kinds) + f"; {len(asym)} "
          "asymmetric points, route " + ", ".join(
              f"{sum(r[9] == k for r in asym)} {k}" for k in kinds)
          + f", {integrator_calls} integrator calls")
    if any("SILENT MISS" in (r[7], r[8]) for r in rows) or any(
            "SILENT MISS" in (r[9], r[10]) for r in asym) or count(
            7, "typed error"):
        sys.exit(1)


if __name__ == "__main__":
    main()
