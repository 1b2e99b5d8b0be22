"""Acceptance gate: one test per published criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s) and
asserts the same condition, so the suite doubles as a checklist."""

import math
import time

import numpy as np
import pytest

from specgap.auxfunc import (
    CurvatureProfile,
    check_lemma_J,
    j_equation_residual,
    solve_J,
)
from specgap.bounds import shi_zhang, yang
from specgap.eigen import (
    EigenQuery,
    fd_oracle_eigenvalue,
    lambda1_model,
    neumann_eigenvalue_shooting,
)
from specgap.errors import TargetBelowMinimum
from specgap.harness import (
    check_main_inequality,
    diameter_chain_check,
    gradient_comparison_sphere,
    sphere,
)
from specgap.matching import m_min, match_maximum, reflection_check
from specgap.model import (
    Branch,
    ModelParams,
    branch_for_curvature,
    solve_ivp,
)
from specgap.perturbation import perturbed_params, verify_conditions

GRID_N = (3, 4, 5)
GRID_K = (-1.0, 0.0, 1.0)
GRID_D = (1.0, 1.8, 2.6)


def _report(num: int, desc: str, ok: bool) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}"
    print(line)
    assert ok, line


def test_criterion_01_flat_closed_form():
    t0 = time.perf_counter()
    worst = max(abs(lambda1_model(3, 0.0, D) - math.pi ** 2 / D ** 2)
                / (math.pi ** 2 / D ** 2) for D in (1.0, math.pi, 5.0))
    elapsed = time.perf_counter() - t0
    _report(1, f"flat anchors rel err {worst:.2e} in {elapsed:.2f}s",
            worst <= 1e-9 and elapsed < 1.0)


def test_criterion_02_sphere_closing_eigenvalue():
    worst = 0.0
    for n in GRID_N:
        for K in (0.5, 1.0, 2.0):
            lam = lambda1_model(n, K, math.pi / math.sqrt(K))
            worst = max(worst, abs(lam - n * K) / (n * K))
    _report(2, f"closing-diameter anchors rel err {worst:.2e}",
            worst <= 1e-8)


def test_criterion_03_shooting_vs_fd_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in GRID_N:
        for K in GRID_K:
            for D in GRID_D:
                p = ModelParams(float(n), K,
                                branch_for_curvature(K, "symmetric"))
                fd = fd_oracle_eigenvalue(EigenQuery(p, -D / 2, D / 2),
                                          1024, richardson=True)
                sh = lambda1_model(n, K, D)
                worst = max(worst, abs(fd - sh) / sh)
    elapsed = time.perf_counter() - t0
    _report(3, f"27-point oracle agreement rel err {worst:.2e} "
               f"in {elapsed:.1f}s", worst <= 1e-6 and elapsed < 30.0)


def test_criterion_04_dominates_closed_forms():
    worst = math.inf
    for n in GRID_N:
        for K in GRID_K:
            for D in GRID_D:
                lam = lambda1_model(n, K, D)
                worst = min(worst, lam - shi_zhang(n, K, D))
                if K < 0:
                    worst = min(worst, lam - yang(n, K, D))
    _report(4, f"min slack over closed-form floors {worst:.2e}",
            worst >= -1e-9)


def test_criterion_05_monotonicity():
    ok = True
    for n in GRID_N:
        for K in GRID_K:
            hi = 0.95 * math.pi / math.sqrt(K) if K > 0 else 3.0
            vals = [lambda1_model(n, K, D)
                    for D in np.linspace(0.4, hi, 20)]
            ok = ok and all(x > y for x, y in zip(vals, vals[1:]))
    cases = [
        (ModelParams(3.0, 1.0, Branch.TAN), -1.0, np.linspace(5.0, 12.0, 20)),
        (ModelParams(3.0, -1.0, Branch.TANH), -1.0, np.linspace(1.3, 6.0, 20)),
        (ModelParams(3.0, -1.0, Branch.COTH), 0.5, np.linspace(1.3, 6.0, 20)),
        (ModelParams(3.0, 0.0, Branch.ZERO), 0.0, np.linspace(0.5, 8.0, 20)),
    ]
    for params, a, lams in cases:
        ds = [solve_ivp(params, lam, a).d for lam in lams]
        ok = ok and all(map(math.isfinite, ds))
        ok = ok and all(x > y for x, y in zip(ds, ds[1:]))
    _report(5, "lambda1 decreasing in D (9 grids) and d decreasing in "
               "lambda (4 branches)", ok)


def test_criterion_06_central_interval_minimizes():
    rng = np.random.default_rng(20260813)
    pool = [(3.0, 1.0, Branch.TAN), (3.0, -1.0, Branch.TANH),
            (4.0, -1.0, Branch.COTH), (3.0, 0.0, Branch.ZERO)]
    worst = 0.0
    for _ in range(50):
        N, Kb, br = pool[rng.integers(len(pool))]
        p = ModelParams(N, Kb, br)
        dom = p.domain()
        if br is Branch.TAN:
            a = rng.uniform(dom.lo + 0.05, dom.hi - 0.4)
            b = rng.uniform(a + 0.3, dom.hi - 0.05)
        elif br is Branch.COTH:
            a = rng.uniform(0.05, 1.5)
            b = a + rng.uniform(0.3, 2.0)
        else:
            a = rng.uniform(-2.0, 1.0)
            b = a + rng.uniform(0.3, 2.5)
        lam = neumann_eigenvalue_shooting(EigenQuery(p, float(a), float(b)))
        even = ModelParams(N, Kb, branch_for_curvature(Kb, "symmetric"))
        L = b - a
        lam_c = neumann_eigenvalue_shooting(EigenQuery(even, -L / 2, L / 2))
        worst = min(worst, (lam - lam_c) / max(1.0, lam_c))
    _report(6, f"50 random intervals vs central, worst slack {worst:.2e}",
            worst >= -1e-8)


def test_criterion_07_matching_and_reflection():
    ok = True
    worst = 0.0
    # supercritical families sweep their full attainable range
    for params, lam in ((ModelParams(3.0, 1.0, Branch.TAN), 4.5),
                        (ModelParams(4.0, -1.0, Branch.COTH), 3.0)):
        lo = m_min(params, lam)
        for u in np.linspace(lo, 1.0, 20):
            res = match_maximum(params, lam, float(u))
            worst = max(worst, abs(res.residual))
        with pytest.raises(TargetBelowMinimum):
            match_maximum(params, lam, lo * 0.5)
    # below the essential threshold every level in (0, 1] is attainable
    sub = ModelParams(3.0, -1.0, Branch.COTH)
    for u in np.linspace(0.02, 1.0, 20):
        res = match_maximum(sub, 0.9, float(u))
        worst = max(worst, abs(res.residual))
    ok = ok and worst < 1e-8
    sup_refl = max(
        reflection_check(ModelParams(3.0, 1.0, Branch.TAN), 4.5, -1.0).sup_err,
        reflection_check(ModelParams(3.0, -1.0, Branch.TANH), 3.0, -1.3).sup_err,
        reflection_check(ModelParams(3.0, 0.0, Branch.ZERO), 4.0, -0.6).sup_err)
    ok = ok and sup_refl < 1e-8
    _report(7, f"matching residual sup {worst:.2e}, rejection raised, "
               f"reflection sup {sup_refl:.2e}", ok)


def test_criterion_08_perturbation_conditions_and_decay():
    ok = True
    deltas = (0.1, 0.01, 0.001)
    for n in GRID_N:
        gaps_N, gaps_K, gaps_lam = [], [], []
        for delta in deltas:
            pp = perturbed_params(n, delta, 1.0, 1.0)
            y = np.linspace(pp.y_lo, pp.y_hi, 1000)
            ok = ok and verify_conditions(pp, y).all_ok
            gaps_N.append(pp.N - n)
            gaps_K.append(1.0 - pp.K_bar)
            gaps_lam.append(pp.lambda_bar - 1.0)
        for gaps in (gaps_N, gaps_K, gaps_lam):
            ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
            per_decade = math.sqrt(ratios[0] * ratios[1])
            ok = ok and 5.0 <= per_decade <= 20.0
    _report(8, "conditions hold on 1000-point windows; parameter gaps "
               "shrink ~10x per delta decade", ok)


def test_criterion_09_auxiliary_function():
    t0 = time.perf_counter()
    flat = CurvatureProfile.constant(2.0, length=2 * math.pi, dim=3)
    sol0 = solve_J(flat, K=1.0, tau=2.0, mesh=512)
    ok = abs(sol0.sigma) <= 1e-10
    ok = ok and float(np.max(np.abs(sol0.J - 1.0))) <= 1e-10
    sigmas, sups = [], []
    for h in (1.0, 0.1, 0.01):
        prof = CurvatureProfile.bump(base=2.0, depth=h, width=1.0,
                                     center=math.pi, length=2 * math.pi,
                                     dim=3)
        sol = solve_J(prof, K=1.0, tau=2.0, mesh=512)
        ok = ok and check_lemma_J(sol).all_ok
        sigmas.append(sol.sigma)
        sups.append(float(np.max(np.abs(sol.J - 1.0))))
    ok = ok and sigmas[0] > sigmas[1] > sigmas[2] > 0.0
    ok = ok and sups[0] > sups[1] > sups[2] > 0.0
    prof = CurvatureProfile.bump(base=2.0, depth=1.0, width=1.0,
                                 center=math.pi, length=2 * math.pi, dim=3)
    res = [float(np.max(np.abs(j_equation_residual(
        solve_J(prof, K=1.0, tau=2.0, mesh=m))))) for m in (128, 256, 512)]
    order = math.log(res[0] / res[2]) / math.log(4.0)
    ok = ok and order > 1.7
    elapsed = time.perf_counter() - t0
    _report(9, f"trivial gauge exact, sigma/J monotone in depth, residual "
               f"order {order:.2f} in {elapsed:.1f}s",
            ok and elapsed < 10.0)


def test_criterion_10_sphere_extremality_and_gradients():
    s1 = check_main_inequality(sphere(3))
    s2 = check_main_inequality(sphere(3, radius=2.0))
    ok = abs(s1.slack) <= 1e-9 and abs(s2.slack) <= 1e-9
    grad = gradient_comparison_sphere(3, n_samples=400)
    ok = ok and grad.sup_discrepancy < 1e-8
    _report(10, f"sphere slacks {s1.slack:.1e}/{s2.slack:.1e}, gradient "
                f"sup {grad.sup_discrepancy:.1e}", ok)


def test_criterion_11_diameter_chain_alpha():
    lam = lambda1_model(3, -1.0, 1.0)
    a1 = diameter_chain_check(3, -1.0, lam, 0.1).alpha_achieved
    a2 = diameter_chain_check(3, -1.0, lam, 0.01).alpha_achieved
    ok = 0.0 < a1 < a2 < 1.0
    _report(11, f"achieved alpha {a1:.6f} -> {a2:.6f} rising toward 1", ok)
