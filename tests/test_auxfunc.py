"""Tests for curvature profiles and the auxiliary-function solve
(largest eigenpair of the drifted Schroedinger operator, gauge-fixed)."""

import math
import textwrap

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

from specgap import auxfunc
from specgap.auxfunc import (
    CurvatureProfile,
    Geometry,
    check_lemma_J,
    j_equation_residual,
    k_bar,
    rho_K,
    solve_J,
)
from specgap.errors import (DomainError, MeshTooCoarse,
                            NonPositiveEigenfunction, NumericalError,
                            ProfileFormatError)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# profile constructors

def test_constant_profile():
    prof = CurvatureProfile.constant(2.0, length=2 * math.pi, dim=3)
    t = np.linspace(0.0, 2 * math.pi, 7)
    assert np.all(prof.sample(t) == 2.0)
    assert prof.sample(1.0) == 2.0  # scalar in, scalar out


def test_bump_profile_support():
    prof = CurvatureProfile.bump(base=2.0, depth=0.5, width=1.0, center=3.0,
                                 length=2 * math.pi, dim=3)
    assert prof.sample(3.0) == pytest.approx(1.5, rel=1e-14)
    assert prof.sample(3.0 + 1.01) == 2.0  # width is the half-support
    assert prof.sample(0.0) == 2.0
    # circle wraparound
    assert prof.sample(3.0 + 2 * math.pi) == pytest.approx(1.5, rel=1e-14)


def test_bump_profile_smoothness():
    # cos^4 shoulder: value, slope and curvature all vanish at the edge
    prof = CurvatureProfile.bump(base=0.0, depth=1.0, width=2.0, center=0.0,
                                 length=2 * math.pi, dim=3)
    h = 1e-4
    edge = 2.0
    vals = prof.sample(np.array([edge - 2 * h, edge - h, edge]))
    assert abs(vals[2]) < 1e-30
    assert abs(vals[1]) / h ** 3 < 30.0  # cubic contact


def test_bump_center_is_periodic_on_the_circle():
    # a center off [0, L) once gave a deficit over the whole circle
    # (k_bar 0.18 where the bump's own is 0.06)
    L = 2 * math.pi
    kb = [k_bar(CurvatureProfile.bump(2.0, 0.5, 1.0, c, L, 3), 1.0)
          for c in (1.0, 1.0 + L, 1.0 + 3 * L, 1.0 - L, -1.0, L - 1.0)]
    assert max(kb) - min(kb) <= 1e-12 * kb[0]
    far = CurvatureProfile.bump(2.0, 0.5, 1.0, 1.0 + 3 * L, L, 3)
    assert far.sample(1.0) == pytest.approx(1.5, rel=1e-12)
    assert far.sample(3.0) == 2.0
    # a center already in [0, L) gives the profile of the formula, bit
    # for bit
    t = np.linspace(0.0, L, 1001)
    for c in (0.0, 2.5, np.nextafter(L, 0.0)):
        s = np.abs(t - c)
        s = np.minimum(s, L - s)
        want = np.where(s < 1.0, 2.0 - 0.5 * np.cos(0.5 * np.pi * s) ** 4,
                        2.0)
        got = CurvatureProfile.bump(2.0, 0.5, 1.0, c, L, 3).sample(t)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_bump_rejects_non_finite_parameters(geometry, slot, x):
    # a nan width or center, or an infinite center on the interval, once
    # gave a flat profile with sigma = k_bar = 0
    args = [2.0, 0.5, 1.0, 3.0]
    args[slot] = x
    with pytest.raises(DomainError):
        CurvatureProfile.bump(*args, 2 * math.pi, 3, geometry)


def test_from_samples_interpolates():
    t = np.linspace(0.0, 1.0, 11)
    vals = np.sin(t)
    prof = CurvatureProfile.from_samples(t, vals, length=1.0, dim=4,
                                         geometry=Geometry.INTERVAL)
    assert prof.sample(t[3]) == pytest.approx(vals[3], rel=1e-14)


def test_from_samples_requires_increasing_t():
    with pytest.raises(ProfileFormatError):
        CurvatureProfile.from_samples([0.0, 0.5, 0.4], [1, 2, 3],
                                      length=1.0, dim=3)


def test_from_csv(tmp_path):
    f = tmp_path / "prof.csv"
    f.write_text(textwrap.dedent("""\
        t,rho
        # comment line
        0.0,2.0
        0.5,1.5
        1.0,2.0
        """))
    prof = CurvatureProfile.from_csv(f, length=2.0, dim=3)
    assert prof.sample(0.5) == pytest.approx(1.5)


@pytest.mark.parametrize("preamble", ["# written by hand\n", "\n",
                                      "# a\n\n# b\n"])
def test_from_csv_header_after_comments(tmp_path, preamble):
    f = tmp_path / "prof.csv"
    f.write_text(preamble + "t,rho\n0.0,2.0\n0.5,1.5\n1.0,2.0\n")
    prof = CurvatureProfile.from_csv(f, length=2.0, dim=3)
    assert prof.sample(0.5) == pytest.approx(1.5)


def test_from_csv_header_after_data_rejected(tmp_path):
    f = tmp_path / "prof.csv"
    f.write_text("0.0,2.0\nt,rho\n1.0,2.0\n")
    with pytest.raises(ProfileFormatError) as exc:
        CurvatureProfile.from_csv(f, length=2.0, dim=3)
    assert ":2:" in str(exc.value)


def test_from_csv_malformed_reports_line(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("0.0,1.0\n0.5,not-a-number\n")
    with pytest.raises(ProfileFormatError) as exc:
        CurvatureProfile.from_csv(f, length=1.0, dim=3)
    assert ":2:" in str(exc.value)  # offending line number in the message


def test_profile_validation():
    with pytest.raises(DomainError):
        CurvatureProfile.constant(1.0, length=0.0, dim=3)
    for dim in (1, math.nan, math.inf):
        with pytest.raises(DomainError):
            CurvatureProfile.constant(1.0, length=1.0, dim=dim)


# ---------------------------------------------------------------------------
# curvature deficit and its integral

def test_rho_K_floor():
    prof = CurvatureProfile.constant(1.5, length=1.0, dim=3)
    # (n-1)K - rho = 2 - 1.5 = 0.5 when K = 1
    assert rho_K(prof, 1.0, 0.3) == pytest.approx(0.5)
    # profile above the target curvature: deficit clamps to zero
    assert rho_K(prof, 0.5, 0.3) == 0.0


def test_k_bar_constant_deficit():
    prof = CurvatureProfile.constant(1.0, length=2.0, dim=3)
    # deficit is identically 1: any L^p average is 1
    for p in (1.0, 2.0, 5.0):
        assert k_bar(prof, 1.0, p=p) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        k_bar(prof, 1.0, p=0.5)
    # rho_K^p leaves the float range although k_bar does not
    huge = CurvatureProfile.constant(1e300, length=2.0, dim=3)
    assert k_bar(huge, 1e300, p=2.0) == pytest.approx(1e300, rel=1e-12)
    tiny = CurvatureProfile.constant(1e-200, length=2.0, dim=3)
    assert k_bar(tiny, 1e-200, p=2.0) == pytest.approx(1e-200, rel=1e-12)


def test_k_bar_scales_with_depth():
    base = CurvatureProfile.bump(base=2.0, depth=1.0, width=1.0, center=0.0,
                                 length=2 * math.pi, dim=3)
    half = CurvatureProfile.bump(base=2.0, depth=0.5, width=1.0, center=0.0,
                                 length=2 * math.pi, dim=3)
    assert k_bar(half, 1.0) == pytest.approx(0.5 * k_bar(base, 1.0), rel=1e-10)


# ---------------------------------------------------------------------------
# the auxiliary solve: exact gauge cases

def test_no_deficit_gives_trivial_solution():
    prof = CurvatureProfile.constant(2.0, length=2 * math.pi, dim=3)
    sol = solve_J(prof, K=1.0, tau=2.0, mesh=256)
    assert abs(sol.sigma) < 1e-10
    assert np.max(np.abs(sol.J - 1.0)) < 1e-12
    rep = check_lemma_J(sol)
    assert rep.all_ok


def test_constant_shift_moves_eigenvalue_only():
    # V = 2(tau-1) c: top eigenvalue shifts by exactly 2(tau-1)c and
    # after the 1/(tau-1) normalization sigma = 2c, J stays flat
    c = 0.35
    prof = CurvatureProfile.constant(2.0 - c, length=2 * math.pi, dim=3)
    sol = solve_J(prof, K=1.0, tau=2.0, mesh=256)
    assert sol.sigma == pytest.approx(2.0 * c, rel=1e-10)
    assert np.max(np.abs(sol.J - 1.0)) < 1e-10


def test_interval_geometry_constant_shift():
    c = 0.2
    prof = CurvatureProfile.constant(2.0 - c, length=1.5, dim=3,
                                     geometry=Geometry.INTERVAL)
    sol = solve_J(prof, K=1.0, tau=3.0, mesh=256)
    assert sol.sigma == pytest.approx(2.0 * c, rel=1e-9)
    assert np.max(np.abs(sol.J - 1.0)) < 1e-9


def test_gauge_normalization():
    prof = CurvatureProfile.bump(base=2.0, depth=0.5, width=1.5, center=2.0,
                                 length=2 * math.pi, dim=3)
    sol = solve_J(prof, K=1.0, tau=2.0, mesh=512)
    assert float(np.mean(sol.J)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.max(sol.W)) == pytest.approx(1.0, abs=1e-14)
    assert np.all(sol.J > 0.0)


def test_solve_J_validation():
    prof = CurvatureProfile.constant(2.0, length=1.0, dim=3)
    with pytest.raises(DomainError):
        solve_J(prof, K=1.0, tau=1.0)
    with pytest.raises(MeshTooCoarse):
        solve_J(prof, K=1.0, mesh=8)
    # a fractional mesh would build cells that run past L
    for mesh in (1000.5, 1024.0):
        with pytest.raises(DomainError):
            solve_J(prof, K=1.0, mesh=mesh)
        with pytest.raises(DomainError):
            k_bar(prof, K=1.0, mesh=mesh)
    with pytest.raises(MeshTooCoarse):
        k_bar(prof, K=1.0, mesh=0)
    assert solve_J(prof, K=1.0, mesh=np.int64(64)).mesh == 64


# ---------------------------------------------------------------------------
# localized deficit: monotone response and residual convergence

def test_sigma_shrinks_with_bump_depth():
    sigmas, sups = [], []
    for depth in (1.0, 0.1, 0.01):
        prof = CurvatureProfile.bump(base=2.0, depth=depth, width=1.0,
                                     center=math.pi, length=2 * math.pi, dim=3)
        sol = solve_J(prof, K=1.0, tau=2.0, mesh=512)
        sigmas.append(sol.sigma)
        sups.append(float(np.max(np.abs(sol.J - 1.0))))
    assert all(s > 0.0 for s in sigmas)
    assert sigmas[0] > sigmas[1] > sigmas[2]
    assert sups[0] > sups[1] > sups[2]


def test_j_equation_residual_second_order():
    """Property: the discrete eigenvector satisfies the continuous
    equation J'' = tau (J')^2/J + 2 rho_K J - sigma J to second order,
    with periodic wrap on the circle and mirror ghosts on the interval."""
    for geometry in (Geometry.CIRCLE, Geometry.INTERVAL):
        prof = CurvatureProfile.bump(base=2.0, depth=1.0, width=1.5,
                                     center=math.pi, length=2 * math.pi,
                                     dim=3, geometry=geometry)
        sups = []
        for mesh in (128, 256, 512):
            sol = solve_J(prof, K=1.0, tau=2.0, mesh=mesh)
            sups.append(float(np.max(np.abs(j_equation_residual(sol)))))
        order = math.log(sups[0] / sups[2]) / math.log(4.0)
        assert order > 1.7, (geometry, sups, order)


def test_sigma_positive_needs_deficit_somewhere():
    prof = CurvatureProfile.bump(base=2.0, depth=0.7, width=1.0,
                                 center=1.0, length=2 * math.pi, dim=3)
    sol = solve_J(prof, K=1.0, tau=2.0, mesh=512)
    assert sol.sigma > 0.0
    assert check_lemma_J(sol).all_ok


@given(depth=st.floats(min_value=0.01, max_value=1.5),
       tau=st.floats(min_value=1.5, max_value=4.0))
@settings(max_examples=10, deadline=None)
def test_lemma_J_property(depth, tau):
    """Property: positivity, unit mean and sigma >= 0 hold for any
    bump depth and admissible tau."""
    prof = CurvatureProfile.bump(base=2.0, depth=depth, width=1.2,
                                 center=2.0, length=2 * math.pi, dim=3)
    sol = solve_J(prof, K=1.0, tau=tau, mesh=256)
    assert check_lemma_J(sol).all_ok


# ---------------------------------------------------------------------------
# the principal eigenpair against dense LAPACK and the Mathieu closed form

def _mathieu(c, geometry=Geometry.CIRCLE, length=2 * math.pi):
    """rho = 2 - c (1 + cos t): with n = 3, K = 1 the deficit is
    c (1 + cos t) and the potential 2 (tau - 1) c (1 + cos t)."""
    return CurvatureProfile(geometry, length, 3,
                            lambda t: 2.0 - c * (1.0 + np.cos(t)))


def _potential(sol):
    return 2.0 * (sol.tau - 1.0) * rho_K(sol.profile, sol.K, sol.t)


def _rounding_tol(sol):
    """Backward-stable agreement: 16 eps times the operator norm bound."""
    return 16.0 * EPS * (4.0 / sol.h ** 2 + float(np.max(_potential(sol))))


def _dense_top(sol):
    """Top eigenvalue of the same discrete operator, as a dense matrix."""
    V, h, m = _potential(sol), sol.h, sol.mesh
    A = np.diag(V - 2.0 / h ** 2)
    A += (np.eye(m, k=1) + np.eye(m, k=-1)) / h ** 2
    if sol.profile.geometry is Geometry.CIRCLE:
        A[0, -1] = A[-1, 0] = 1.0 / h ** 2
    else:
        A[0, 0] += 1.0 / h ** 2
        A[-1, -1] += 1.0 / h ** 2
    return float(scipy.linalg.eigh(A, eigvals_only=True,
                                   subset_by_index=[m - 1, m - 1])[0])


def _dense_circle(sol):
    """Top two eigenvalues and the top eigenvector (sum > 0, unit 2-norm)
    of the same discrete circle operator, as a dense matrix."""
    V, h, m = _potential(sol), sol.h, sol.mesh
    A = np.diag(V - 2.0 / h ** 2)
    A += (np.eye(m, k=1) + np.eye(m, k=-1)) / h ** 2
    A[0, -1] = A[-1, 0] = 1.0 / h ** 2
    lam, U = scipy.linalg.eigh(A, subset_by_index=[m - 2, m - 1])
    return lam, U[:, 1] * np.sign(U[:, 1].sum())


def _mp_top_vector(V, h, dps=60):
    """Top eigenvector (max 1) of the interval operator with reflecting
    ends: the same Collatz-Wielandt-shifted inverse iteration, carried out
    in mpmath at ``dps`` digits with the Thomas algorithm, until the
    bracket closes to 10^(-dps/2) |A|."""
    with mpmath.workdps(dps):
        m, off = len(V), 1 / mpmath.mpf(float(h)) ** 2
        d = [mpmath.mpf(float(x)) - 2 * off for x in V]
        d[0] += off
        d[-1] += off
        tol = mpmath.mpf(10) ** (-dps // 2) * 4 * off
        v = [mpmath.mpf(1)] * m
        for _ in range(200):
            Av = [d[i] * v[i] + off * ((v[i - 1] if i else 0)
                                       + (v[i + 1] if i < m - 1 else 0))
                  for i in range(m)]
            ratio = [a / b for a, b in zip(Av, v)]
            s = max(ratio)
            if s - min(ratio) <= tol:
                return np.array([float(x) for x in v])
            # (s - A) x = v: diagonal s - d_i, both off-diagonals -off
            c, y = [None] * m, [None] * m
            c[0], y[0] = -off / (s - d[0]), v[0] / (s - d[0])
            for i in range(1, m):
                den = s - d[i] + off * c[i - 1]
                c[i], y[i] = -off / den, (v[i] + off * y[i - 1]) / den
            for i in range(m - 2, -1, -1):
                y[i] -= c[i] * y[i + 1]
            top = max(y)
            v = [x / top for x in y]
    raise AssertionError("mpmath reference did not converge")


@pytest.mark.parametrize("prof, tau", [
    # a deep, wide well on a long interval: W falls to 2.6e-73 at the
    # far wall, far below the absolute accuracy of a dense or tridiagonal
    # eigensolver (which returns a tail entry of -8.6e-44)
    (CurvatureProfile.bump(2.0, 30.0, 5.0, 3.0, 20.0, 3, Geometry.INTERVAL),
     3.0),
    # five equal wells; W spans 38 decades
    (_mathieu(9.313680233666369, Geometry.INTERVAL, 32.89016016440638), 2.0),
], ids=["deep-bump", "five-wells"])
def test_interval_J_matches_high_precision_eigenvector(prof, tau):
    # J_i reads W_i alone, so its tail needs W converged entry by entry,
    # not only sigma_tilde: stopping once the Rayleigh quotient settled
    # left these tails tens of decades off.  W is the exact top
    # eigenvector for a potential within a few rounding floors (~1e-11)
    # of V; the measured error in J is 1e-13 and 1e-11.
    sol = solve_J(prof, K=1.0, tau=tau, mesh=1024)
    assert np.all(sol.W > 0.0)
    assert abs(sol.sigma_tilde - _dense_top(sol)) <= _rounding_tol(sol)
    W = _mp_top_vector(_potential(sol), sol.h)
    J = W ** (-1.0 / (tau - 1.0))
    J /= np.mean(J)
    assert float(np.max(np.abs(sol.W / W - 1.0))) <= 1e-9
    assert float(np.max(np.abs(sol.J / J - 1.0))) <= 1e-9


@pytest.mark.parametrize("mesh", [512, 1024])
@pytest.mark.parametrize("prof", [
    CurvatureProfile.bump(2.0, 0.8, 1.2, 2.0, 2 * math.pi, 3),
    _mathieu(0.6),
], ids=["bump", "mathieu"])
def test_circle_matches_dense_eigh(prof, mesh):
    tau = 2.5
    sol = solve_J(prof, K=1.0, tau=tau, mesh=mesh)
    (second, top), u = _dense_circle(sol)
    assert abs(sol.sigma_tilde - top) <= 1e-11 * abs(top)
    # both eigenvectors come from backward-stable solves, so each is
    # within about eps |A| / gap of the exact one in 2-norm; measured
    # 0.03 to 0.16 of that
    norm_A = 4.0 / sol.h ** 2 + float(np.max(_potential(sol)))
    w = sol.W / np.linalg.norm(sol.W)
    assert np.linalg.norm(w - u) <= 2.0 * EPS * norm_A / (top - second)
    # here |A| / gap is below 1e4 and W above 4e-3, so J agrees to 1e-11
    # (measured 4e-13 to 1.8e-12)
    J = u ** (-1.0 / (tau - 1.0))
    J /= np.mean(J)
    assert float(np.max(np.abs(sol.J / J - 1.0))) <= 1e-11


@pytest.mark.parametrize("prof, tau, mesh", [
    (CurvatureProfile.bump(2.0, 0.7, 2.0, 1.3, 5.0, 3, Geometry.INTERVAL),
     2.3, 2048),
    (_mathieu(0.5, Geometry.INTERVAL, math.pi), 2.0, 1024),
    # three wells, top two eigenvalues 2.2e-5 apart
    (_mathieu(2.378778532070042, Geometry.INTERVAL, 10.953608518777141),
     2.293968240295156, 1024),
    (CurvatureProfile.constant(1.4, 3.0, 3, Geometry.INTERVAL), 1.8, 4096),
], ids=["bump", "mathieu", "three-wells", "constant"])
def test_interval_sigma_matches_eigh_tridiagonal(prof, tau, mesh):
    sol = solve_J(prof, K=1.0, tau=tau, mesh=mesh)
    V, h = _potential(sol), sol.h
    diag = V - 2.0 / h ** 2
    diag[[0, -1]] += 1.0 / h ** 2
    top = scipy.linalg.eigh_tridiagonal(
        diag, np.full(mesh - 1, 1.0 / h ** 2), eigvals_only=True,
        select="i", select_range=(mesh - 1, mesh - 1))[0]
    assert abs(sol.sigma_tilde - top) <= _rounding_tol(sol)


@pytest.mark.parametrize("c, tau", [(0.5, 2.0), (0.3, 2.7), (0.8, 1.6)])
def test_circle_richardson_matches_mathieu_closed_form(c, tau):
    # sigma~ of d^2/dt^2 + beta (1 + cos t) on the 2 pi circle is
    # beta - a_0(2 beta) / 4 (t = 2x turns it into Mathieu's equation)
    prof = _mathieu(c)
    coarse, fine = (solve_J(prof, 1.0, tau, m).sigma_tilde
                    for m in (4096, 8192))
    beta = 2.0 * (tau - 1.0) * c
    exact = beta - scipy.special.mathieu_a(0, 2.0 * beta) / 4.0
    assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-9 * exact


# (profile, tau, mesh) of the step-count tests: bump, Mathieu, bump,
# Mathieu and constant, circle first
_STEP_CASES = [
    (CurvatureProfile.bump(2.0, 0.9, 1.0, 4.0, 2 * math.pi, 3), 2.0, 4096),
    (_mathieu(0.4), 2.7, 1024),
    (CurvatureProfile.bump(2.0, 0.3, 1.5, 0.5, 4.0, 3, Geometry.INTERVAL),
     1.5, 1 << 14),
    (_mathieu(0.7, Geometry.INTERVAL, math.pi), 3.0, 2048),
    (CurvatureProfile.constant(2.5, 6.0, 3, Geometry.INTERVAL), 2.0, 512),
]


def _dptsv_sizes(monkeypatch):
    """The list that records the size of every ``dptsv`` system solved."""
    sizes = []
    real = auxfunc.dptsv

    def counted(d, e, b):
        sizes.append(d.size)
        return real(d, e, b)

    monkeypatch.setattr(auxfunc, "dptsv", counted)
    return sizes


def test_inverse_iteration_steps_are_few(monkeypatch):
    # one dptsv call of the mesh's size per inverse-iteration step, on
    # both geometries; the coarse levels' smaller calls are not counted
    sizes = _dptsv_sizes(monkeypatch)
    for prof, tau, mesh in _STEP_CASES:
        sizes.clear()
        solve_J(prof, K=1.0, tau=tau, mesh=mesh)
        steps = sizes.count(mesh)
        assert steps <= 8, (prof, mesh, steps)


@pytest.mark.parametrize("factor", [1, 4, 32])
def test_coarse_start_leaves_few_fine_steps(monkeypatch, factor):
    # from the coarse level's eigenvector the fine iteration takes 1 or 2
    # steps where v = ones takes 4 or 5, and counting every level the work
    # is at most 3 fine-mesh solves (measured 1.19 to 2.75).  The exception
    # is the circle's Mathieu case at the threshold, with 3 steps and work
    # 3.6: the coarse eigenvector is 2.9e-5 off there, and the first step,
    # whose shift the interpolant's kinks set 14 above sigma~, only takes
    # that to 2.1e-5, so the third step is the first to move v by less
    # than _STEP_TOL
    sizes = _dptsv_sizes(monkeypatch)
    mesh = factor * auxfunc._COARSE_FROM
    for i, (prof, tau, _) in enumerate(_STEP_CASES[:4]):
        most = 3 if (i, factor) == (1, 1) else 2
        sizes.clear()
        solve_J(prof, K=1.0, tau=tau, mesh=mesh)
        assert sizes.count(mesh) <= most, (prof, mesh, sizes)
        assert sum(sizes) <= (most + 1) * mesh, (prof, mesh, sizes)


def _ones_start_top(V, h, periodic):
    """The inverse iteration of ``_top_eigenpair`` from v = ones, each step
    written out as before the coarse start, one temporary per operation:
    the bit-for-bit reference below the coarse threshold."""
    off = 1.0 / h ** 2
    diag = V - 2.0 * off
    if not periodic:
        diag[[0, -1]] += off
    floor = 4.0 * EPS * (4.0 * off + float(np.max(V)))
    v = np.ones(V.size)
    rq, change = math.nan, math.inf
    for _ in range(100):
        Av = diag * v
        Av[1:] += off * v[:-1]
        Av[:-1] += off * v[1:]
        if periodic:
            Av[0] += off * v[-1]
            Av[-1] += off * v[0]
        ratio = Av / v
        lo, s = float(np.min(ratio)), float(np.max(ratio))
        rq_new = float(v @ Av) / float(v @ v)
        if s - lo <= floor or (abs(rq_new - rq) <= floor
                               and change <= auxfunc._STEP_TOL):
            return rq_new, v
        rq = rq_new
        v_new = auxfunc._shifted_solve(s - diag, off, v, periodic)
        v_new = v_new / np.max(v_new)
        assert np.all(v_new > 0.0)
        change = float(np.max(np.abs(v_new / v - 1.0)))
        v = v_new
    raise AssertionError("reference iteration did not converge")


# the step-count profiles and a constant one on the circle: top gaps 0.27
# to 3.6, so eps |A| / gap is at most 2.5e-8 up to mesh 2^14 and 2.6e-7
# to 1.6e-6 at 2^17
_SEPARATED = [case[:2] for case in _STEP_CASES] + [
    (CurvatureProfile.constant(2.5, 6.0, 3), 2.0)]


@pytest.mark.parametrize("mesh", [512, 1000, 2048, "below"])
@pytest.mark.parametrize("prof, tau", _SEPARATED)
def test_below_the_threshold_the_start_is_ones(prof, tau, mesh):
    # the fewer-pass step keeps every value of the one it replaced
    if mesh == "below":
        mesh = auxfunc._COARSE_FROM - 1
    sol = solve_J(prof, K=1.0, tau=tau, mesh=mesh)
    rq, W = _ones_start_top(_potential(sol), sol.h,
                            prof.geometry is Geometry.CIRCLE)
    J = W ** (-1.0 / (tau - 1.0))
    J = J / np.mean(J)
    assert sol.sigma_tilde == rq
    assert np.array_equal(sol.W, W)
    assert np.array_equal(sol.J, J)


@pytest.mark.parametrize("mesh", [4096, 5001, 1 << 14, 1 << 17])
@pytest.mark.parametrize("prof, tau", _SEPARATED)
def test_coarse_start_keeps_the_ones_start_result(monkeypatch, prof, tau,
                                                  mesh):
    # both stop once a step moves no entry by more than _STEP_TOL, and
    # the steps after that would move it far less; measured: sigma~
    # within 0.003 floors, J within 2.1e-7 (at 2^17, interval bump)
    assert mesh >= auxfunc._COARSE_FROM
    sol = solve_J(prof, K=1.0, tau=tau, mesh=mesh)
    monkeypatch.setattr(auxfunc, "_COARSE_FROM", math.inf)
    ref = solve_J(prof, K=1.0, tau=tau, mesh=mesh)
    floor = 4.0 * EPS * (4.0 / sol.h ** 2 + float(np.max(_potential(sol))))
    assert abs(sol.sigma_tilde - ref.sigma_tilde) <= floor
    assert float(np.max(np.abs(sol.J / ref.J - 1.0))) <= auxfunc._STEP_TOL


@pytest.mark.parametrize("error", [NonPositiveEigenfunction, NumericalError])
@pytest.mark.parametrize("geometry", list(Geometry))
def test_failing_coarse_level_falls_back_to_ones(monkeypatch, geometry,
                                                 error):
    prof = CurvatureProfile.bump(2.0, 0.6, 1.2, 2.0, 2 * math.pi, 3,
                                 geometry)
    mesh = 2 * auxfunc._COARSE_FROM
    real = auxfunc._top_eigenpair

    def failing_below(V, h, periodic):
        if V.size < mesh:
            raise error("coarse level fails")
        return real(V, h, periodic)

    monkeypatch.setattr(auxfunc, "_top_eigenpair", failing_below)
    sol = solve_J(prof, K=1.0, tau=2.2, mesh=mesh)
    monkeypatch.setattr(auxfunc, "_top_eigenpair", real)
    monkeypatch.setattr(auxfunc, "_COARSE_FROM", math.inf)
    ref = solve_J(prof, K=1.0, tau=2.2, mesh=mesh)
    assert sol.sigma_tilde == ref.sigma_tilde
    assert np.array_equal(sol.J, ref.J)


def test_dptsv_raises_on_a_non_positive_pivot():
    # LAPACK leaves the right-hand side unsolved; it must not come back
    with pytest.raises(NumericalError, match="pivot 2"):
        auxfunc.dptsv(np.array([1.0, -1.0, 1.0]), np.array([-1.0, -1.0]),
                      np.ones(3))


@pytest.mark.parametrize("periodic", [False, True], ids=["interval", "circle"])
def test_shifted_solve_matches_dense_solve(periodic):
    m, h = 64, 0.1
    rng = np.random.default_rng(3)
    V = rng.uniform(0.0, 5.0, m)
    off = 1.0 / h ** 2
    A = np.diag(V - 2.0 * off) + off * (np.eye(m, k=1) + np.eye(m, k=-1))
    if periodic:
        A[0, -1] = A[-1, 0] = off
    else:
        A[0, 0] += off
        A[-1, -1] += off
    # the Collatz-Wielandt shift of v = ones, as in the first step
    s = float(np.max(A.sum(axis=1)))
    v = rng.uniform(0.5, 1.5, m)
    x = auxfunc._shifted_solve(s - np.diag(A), off, v, periodic)
    ref = np.linalg.solve(s * np.eye(m) - A, v)
    assert float(np.max(np.abs(x / ref - 1.0))) <= 1e-13
    assert np.all(x > 0.0)


def test_iteration_cap_raises_numerical_error(monkeypatch):
    monkeypatch.setattr(auxfunc, "_MAX_ITER", 1)
    prof = CurvatureProfile.bump(2.0, 0.5, 1.0, 3.0, 2 * math.pi, 3)
    with pytest.raises(NumericalError):
        solve_J(prof, K=1.0, tau=2.0, mesh=256)
