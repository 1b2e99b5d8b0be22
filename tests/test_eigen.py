"""Tests for the first nonzero Neumann eigenvalue: shooting solver,
finite-difference oracle, and the diameter-level wrapper."""

import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap import eigen, model
from specgap.errors import (DomainError, MeshTooCoarse, NumericalError,
                            SpecgapError)
from specgap.eigen import (
    EigenQuery,
    lambda1_model,
    neumann_eigenvalue_shooting,
    symmetric_interval_length,
)
from specgap.model import Branch, ModelParams, branch_for_curvature

from fd_oracle import fd_oracle_eigenvalue
from flux_oracle import flux_shot
from n3_oracle import lambda1_interval, lambda1_symmetric
from prufer_oracle import prufer_eigenvalue

# frozen after cross-validation against the finite-difference oracle
# (Richardson 1024/2048 gives 8.93166014856054, rel gap 3.0e-11)
LAMBDA1_3_NEG1_D1 = 8.93166014829082


# ---------------------------------------------------------------------------
# closed-form anchors

@pytest.mark.parametrize("D", [1.0, math.pi, 5.0])
def test_flat_anchor(D):
    assert lambda1_model(3, 0.0, D) == pytest.approx(math.pi ** 2 / D ** 2, rel=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
def test_sphere_anchor(n, K):
    # the full tan domain closes at D = pi/sqrt(K) with eigenvalue n*K
    D = math.pi / math.sqrt(K)
    assert lambda1_model(n, K, D) == pytest.approx(n * K, rel=1e-8)


def test_golden_negative_curvature_value():
    assert lambda1_model(3, -1.0, 1.0) == pytest.approx(LAMBDA1_3_NEG1_D1, rel=1e-9)


def test_negative_curvature_sandwich():
    # pi^2/D^2 is the flat value; negative curvature can only lower
    # the gap, and the curvature-corrected floor must stay below it
    lam = lambda1_model(3, -1.0, 1.0)
    assert lam < math.pi ** 2
    assert lam > 8.0  # shi_zhang(3, -1, 1) = pi^2 - 1/4 - ... > 8


def test_diameter_beyond_closing_rejected():
    with pytest.raises(DomainError):
        lambda1_model(3, 1.0, math.pi + 1e-6)
    with pytest.raises(DomainError):
        lambda1_model(3, 4.0, math.pi)


@pytest.mark.parametrize("K,D", [(1.0, 1.0), (-4.0, 2.6), (-1.0, 6.0),
                                 (-1.0, 20.0), (-1.0, 30.0), (-0.25, 63.25)])
def test_lambda1_meets_tolerance_or_raises(K, D):
    try:
        got = lambda1_model(3, K, D)
    except SpecgapError:
        return
    assert abs(got / lambda1_symmetric(K, D) - 1.0) <= 1e-10


@pytest.mark.parametrize("K", [-4.0, -1.0, -0.25, 0.25, 1.0, 2.0])
def test_lambda1_n3_box_meets_tolerance_or_raises(K):
    """No silent miss on 14 log-spaced D from 0.05 to the closing diameter
    (less 1e-6 relative) or to |K| D^2 = 1e3."""
    top = (math.pi / math.sqrt(K) * (1.0 - 1e-6) if K > 0
           else math.sqrt(1e3 / abs(K)))
    for D in np.geomspace(0.05, top, 14):
        try:
            got = lambda1_model(3, K, D)
        except SpecgapError:
            continue
        assert abs(got / lambda1_symmetric(K, D) - 1.0) <= 1e-10, D


SWEEP_GRID = list(itertools.product(
    (3, 4, 5), (-1.0, -0.25, 0.0, 0.25, 1.0), (0.625, 1.25, 2.5)))


@pytest.mark.parametrize("K,D", [(K, D) for n, K, D in SWEEP_GRID if n == 3])
def test_lambda1_matches_n3_closed_form_on_sweep_grid(K, D):
    got = lambda1_model(3, K, D)
    assert abs(got / lambda1_symmetric(K, D) - 1.0) <= 1e-10


# theta D of 60, 80 and 90, where the Pruefer root cannot certify
# lambda1: the n = 3 closed form, and for n = 10 the half-interval flux
# form of flux_oracle.flux_form integrated by mpmath's Taylor method at
# 25 digits (a bidiagonal finite-volume oracle gave 3.069408432e-16 too)
@pytest.mark.parametrize("n,K,D", [(3, -1.0, 30.0), (3, -4.0, 20.0),
                                   (10, -1.0, 10.0)])
def test_lambda1_large_theta_d(n, K, D):
    want = lambda1_symmetric(K, D) if n == 3 else 3.0694084317933063e-16
    assert abs(lambda1_model(n, K, D) / want - 1.0) <= 1e-10


def test_lambda1_theta_d_200_matches_closed_form():
    # the closed form's flux cancels like e^(theta D / 4) = e^50 here: at a
    # fixed 40 digits it returned 1.488e-43, half the value 2.976e-43
    want = lambda1_symmetric(-1.0, 100.0)
    assert abs(lambda1_model(3, -1.0, 100.0) / want - 1.0) <= 1e-10


@pytest.mark.parametrize("D", [711.0, 800.0])
def test_lambda1_below_float_range_is_typed(D):
    # theta D / 2 near 709: lambda1 falls below the normal floats (D = 711)
    # and then the weight ratios overflow (D = 800)
    with pytest.raises(NumericalError):
        lambda1_model(3, -1.0, D)


def _calls(monkeypatch, module, name):
    """Counts the calls of module.name from here on."""
    count, fn = [0], getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


@pytest.fixture
def integrator_calls(monkeypatch):
    """Calls of the one model-ODE integrator binding, which every shot
    goes through."""
    return _calls(monkeypatch, model, "_scipy_solve_ivp")


@pytest.fixture
def green_applications(monkeypatch):
    """Applications of the symmetric path's operator, the flux operator
    folded onto half the interval."""
    return _calls(monkeypatch, eigen, "_green_apply")


@pytest.fixture
def flux_applications(monkeypatch):
    """Applications of the asymmetric path's flux operator."""
    return _calls(monkeypatch, eigen, "_flux_apply")


def test_lambda1_solve_count(integrator_calls, green_applications):
    """The sweep grid integrates nothing and its operator applications
    stay bounded; the points 1e-6 short of the closing diameter (40 to 44
    angle solves against 9 elsewhere on the shooting root) meet the same
    bound.  Today: median 25, at most 43 on the grid, 42 at closing."""
    per_call = []
    for n, K, D in SWEEP_GRID:
        green_applications[0] = 0
        lambda1_model(n, K, D)
        per_call.append(green_applications[0])
    assert integrator_calls[0] == 0
    assert statistics.median(per_call) <= 30, per_call
    assert max(per_call) <= 48, per_call
    for K in (0.25, 1.0, 2.0):
        green_applications[0] = 0
        lambda1_model(3, K, math.pi / math.sqrt(K) * (1.0 - 1e-6))
        assert green_applications[0] <= 48, K
    assert integrator_calls[0] == 0


@pytest.mark.parametrize("n,K", [(3, 1.0), (4, 0.5), (5, 2.0)])
def test_closing_diameter_exact_without_integrating(n, K, integrator_calls,
                                                    green_applications):
    D = math.pi / math.sqrt(K)
    for closing in (D, D * (1.0 - 5e-13)):
        assert lambda1_model(n, K, closing) == n * K
    p = ModelParams(float(n), K, Branch.TAN)
    dom = p.domain()
    assert neumann_eigenvalue_shooting(EigenQuery(p, dom.lo, dom.hi)) == n * K
    assert integrator_calls[0] == green_applications[0] == 0


def test_bad_inputs_rejected():
    with pytest.raises(DomainError):
        lambda1_model(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        lambda1_model(3, 1.0, 0.0)
    with pytest.raises(DomainError):
        lambda1_model(3, 1.0, -1.0)


# ---------------------------------------------------------------------------
# scaling and monotonicity properties

@given(c=st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=12, deadline=None)
def test_flat_scaling_property(c):
    """Property: lambda1(n, 0, cD) = lambda1(n, 0, D) / c^2."""
    base = lambda1_model(4, 0.0, 1.7)
    assert lambda1_model(4, 0.0, 1.7 * c) == pytest.approx(base / c ** 2, rel=1e-8)


def test_curvature_rescaling_property():
    """Property: lambda1(n, c^2 K, D/c) = c^2 lambda1(n, K, D)."""
    base = lambda1_model(3, -1.0, 1.3)
    for c in (0.5, 2.0):
        got = lambda1_model(3, -c ** 2, 1.3 / c)
        assert got == pytest.approx(c ** 2 * base, rel=1e-8)


@pytest.mark.parametrize("n,K", [(3, 1.0), (3, 0.0), (4, -1.0)])
def test_lambda1_decreasing_in_diameter(n, K):
    hi = 0.95 * math.pi / math.sqrt(K) if K > 0 else 3.0
    grid = np.linspace(0.4, hi, 12)
    vals = [lambda1_model(n, K, D) for D in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_lambda1_increasing_in_dimension_positive_curvature():
    vals = [lambda1_model(n, 1.0, 2.0) for n in (3, 4, 5, 6)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# asymmetric interval queries

def test_zero_branch_translation_invariance():
    p = ModelParams(3.0, 0.0, Branch.ZERO)
    lam_c = neumann_eigenvalue_shooting(EigenQuery(p, -0.8, 0.8))
    lam_s = neumann_eigenvalue_shooting(EigenQuery(p, 2.0, 3.6))
    assert lam_c == pytest.approx(math.pi ** 2 / 1.6 ** 2, rel=1e-9)
    assert lam_s == pytest.approx(lam_c, rel=1e-9)


def test_query_validation():
    p = ModelParams(3.0, 1.0, Branch.TAN)
    with pytest.raises(DomainError):
        EigenQuery(p, 0.5, 0.5)
    with pytest.raises(DomainError):
        EigenQuery(p, -2.0, 0.5)  # left end outside the tan domain


def test_central_interval_minimizes():
    """Property: among intervals of fixed length the symmetric one has
    the smallest eigenvalue."""
    p = ModelParams(3.0, -1.0, Branch.TANH)
    L = 1.4
    lam_c = neumann_eigenvalue_shooting(EigenQuery(p, -L / 2, L / 2))
    for a in (-1.2, -0.9, -0.3, 0.1):
        lam = neumann_eigenvalue_shooting(EigenQuery(p, a, a + L))
        assert lam >= lam_c - 1e-8 * lam_c


@pytest.mark.parametrize("b", [-math.pi / 2 + 0.01, -1.2, 0.0, 0.7, 1.3])
def test_pole_launch_matches_n3_closed_form_tan(b):
    want = lambda1_interval(1.0, -math.pi / 2, b, "tan")
    p = ModelParams(3.0, 1.0, Branch.TAN)
    lam = neumann_eigenvalue_shooting(EigenQuery(p, -math.pi / 2, b))
    assert lam == pytest.approx(want, rel=1e-10)
    # the even weight makes [-b, pi/2], which ends at the right pole and
    # runs as given, the mirror image with the same eigenvalue
    right = neumann_eigenvalue_shooting(EigenQuery(p, -b, math.pi / 2))
    assert right == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("b", [0.3, 0.8, 1.7, 3.0])
def test_pole_launch_matches_n3_closed_form_coth(b):
    p = ModelParams(3.0, -1.0, Branch.COTH)
    lam = neumann_eigenvalue_shooting(EigenQuery(p, 0.0, b))
    assert lam == pytest.approx(lambda1_interval(-1.0, 0.0, b, "coth"),
                                rel=1e-8)


@pytest.mark.parametrize("a,b,lam", [(-1.863, 2.082, 2.45e-4),
                                     (-1.55, 2.747, 2.79e-3)])
def test_long_asymmetric_tanh_n10_meets_flux_form(a, b, lam):
    # the angle at b is nearly flat in lambda on the first (it moves by
    # 1.3e-12 across lambda (1 -+ 1e-10)) and steep on the second, where
    # an angle run by scipy's LSODA put lambda_1 3.3e-10 and 1.2e-10 off
    want = flux_shot(10.0, -1.0, a, b, lam)
    p = ModelParams(10.0, -1.0, Branch.TANH)
    got = neumann_eigenvalue_shooting(EigenQuery(p, a, b))
    assert abs(got / want - 1.0) <= 1e-10


def test_long_tanh_interval_meets_n3_closed_form():
    # theta L = 40: the Pruefer root raised NumericalError here
    want = lambda1_interval(-1.0, -10.0, 30.0, "tanh")
    p = ModelParams(3.0, -1.0, Branch.TANH)
    got = neumann_eigenvalue_shooting(EigenQuery(p, -10.0, 30.0))
    assert abs(got / want - 1.0) <= 1e-10


@pytest.mark.parametrize("branch,a,b", [("coth", 0.0, 40.0),
                                        ("tanh", -1.0, 60.0)])
def test_long_interval_near_threshold_without_integrating(
        branch, a, b, integrator_calls):
    # lambda_2 / lambda_1 is about 1.02 on the coth interval, where power
    # steps alone took 3773 operator applications and its levels now
    # count; the tests-side Pruefer root, an independent method, is the
    # reference
    p = ModelParams(3.0, -1.0, Branch(branch))
    got = neumann_eigenvalue_shooting(EigenQuery(p, a, b))
    assert integrator_calls[0] == 0
    assert abs(got / prufer_eigenvalue(p, a, b) - 1.0) <= 1e-10


def _singular_kinds(rng):
    """The six asymmetric interval kinds of the singular benchmark."""
    tan = ModelParams(3.0, 1.0, Branch.TAN)
    coth = ModelParams(3.0, -1.0, Branch.COTH)
    tanh = ModelParams(3.0, -1.0, Branch.TANH)
    half_pi = math.pi / 2
    return [(tan, rng.uniform(-1.0, -0.6), rng.uniform(0.9, 1.1)),
            (tan, -half_pi, rng.uniform(0.2, 0.4)),
            (tan, rng.uniform(-0.3, 0.0), half_pi),
            (coth, 0.0, rng.uniform(1.6, 2.0)),
            (coth, rng.uniform(0.3, 0.6), rng.uniform(2.0, 2.4)),
            (tanh, rng.uniform(-0.8, -0.4), rng.uniform(1.4, 1.8))]


def test_flux_route_integrates_nothing(integrator_calls, flux_applications):
    """Every asymmetric interval takes the flux operator, graded at a
    pole end, with bounded applications on the singular kinds.  Today:
    median 59, at most 67 over 48 draws."""
    rng = np.random.default_rng(5)
    per_call = []
    for _ in range(8):
        for params, a, b in _singular_kinds(rng):
            flux_applications[0] = 0
            neumann_eigenvalue_shooting(EigenQuery(params, a, b))
            per_call.append(flux_applications[0])
    assert statistics.median(per_call) <= 72, per_call
    assert max(per_call) <= 84, per_call
    for n in (2.0, 3.0, 10.0):
        tan = ModelParams(n, 1.0, Branch.TAN)
        for params, a, b in ((tan, -math.pi / 2, 0.3),
                             (tan, -0.2, math.pi / 2),
                             (ModelParams(n, -1.0, Branch.COTH), 0.0, 1.8),
                             (ModelParams(n, -1.0, Branch.TANH), -0.6, 1.6)):
            neumann_eigenvalue_shooting(EigenQuery(params, a, b))
    assert integrator_calls[0] == 0


@pytest.mark.parametrize("n", [1.2, 1.5, 1.8, 2.0, 2.5, 3.0, 4.5])
def test_non_integer_pole_ends_take_the_graded_mesh(n, integrator_calls):
    """mu ~ s^(n - 1) at the pole: on the uniform mesh the flux operator's
    Romberg table did not settle there for n < 2.  On the mesh graded at
    each end at or next to a pole, whatever n is, it certifies with no
    integrator call, within 1e-10 of the tests-side Pruefer root.  So
    does lambda1_model's interval 1e-6 short of the closing diameter,
    folded onto its half and graded at the outer end."""
    half_pi = math.pi / 2
    tan = ModelParams(n, 1.0, Branch.TAN)
    intervals = [(ModelParams(n, -1.0, Branch.COTH), 0.0, 1.8),
                 (tan, -half_pi, half_pi - 1e-6)]
    for off in (0.0, 1e-6, 1e-3):
        intervals += [(tan, -half_pi + off, 0.3), (tan, -0.2, half_pi - off)]
    for K in (0.25, 1.0, 2.0):
        h = 0.5 * math.pi / math.sqrt(K) * (1.0 - 1e-6)
        intervals.append((ModelParams(n, K, Branch.TAN), -h, h))
    for params, a, b in intervals:
        integrator_calls[0] = 0
        got = neumann_eigenvalue_shooting(EigenQuery(params, a, b))
        assert integrator_calls[0] == 0
        assert any(eigen._pole_ends(params, a, b))
        if b == half_pi:
            a, b = -b, -a  # the Pruefer root launches at a pole on the left
        assert abs(got / prufer_eigenvalue(params, a, b) - 1.0) <= 1e-10


def test_prufer_root_certifies_next_to_the_tan_pole():
    # the angle at an end 1e-6 short of the pole jumps by pi at the root,
    # so the certificate must take the angle's error at each probe, not
    # at the root; the Green route on the same interval is the reference
    K = 2.0
    D = math.pi / math.sqrt(K) * (1.0 - 1e-6)
    p = ModelParams(10.0, K, Branch.TAN)
    got = prufer_eigenvalue(p, -D / 2, D / 2)
    assert abs(got / lambda1_model(10.0, K, D) - 1.0) <= 1e-10


@pytest.mark.parametrize("n,b", [(3.5, 40.0), (7.0, 40.0)])
def test_warm_starts_stay_positive(monkeypatch, n, b):
    # next to the pole of a long coth interval the eigenvector falls by
    # decades within a few cells: the cubic refinement undershot zero at
    # 64 cells on (7, -1) [0, 40] (-0.035), and the extrapolated step at
    # 128 cells on (3.5, -1) [0, 40] (-5.7e-4); a Collatz-Wielandt bracket
    # bounds the eigenvalue only from a positive vector
    starts = []
    top = eigen._top_eigenvalue

    def recorded(v, apply, pencil, inner, bracket):
        starts.append(float(v[inner].min()))
        return top(v, apply, pencil, inner, bracket)

    monkeypatch.setattr(eigen, "_top_eigenvalue", recorded)
    neumann_eigenvalue_shooting(EigenQuery(
        ModelParams(n, -1.0, Branch.COTH), 0.0, b))
    assert len(starts) >= 2 and min(starts) > 0.0, starts


@pytest.mark.parametrize("n,b", [(7.0, 40.0), (10.5, 30.0), (5.0, 80.0),
                                 (10.0, 40.0)])
def test_long_pole_interval_is_certified_or_typed(n, b):
    # theta L of 240, 285, 320 and 360: the coarse levels do not resolve
    # the weight's e-folding length 1 / theta, and no level's power steps
    # close the bracket, so each level counts; these raised
    # NumericalError before the counts.  The value must meet the
    # tests-side Pruefer root
    p = ModelParams(n, -1.0, Branch.COTH)
    got = neumann_eigenvalue_shooting(EigenQuery(p, 0.0, b))
    assert abs(got / prufer_eigenvalue(p, 0.0, b) - 1.0) <= 1e-10


@pytest.mark.parametrize("n", [2.5, 3.0, 3.5])
def test_long_pole_interval_at_theta_l_200_is_certified(n):
    # coth [0, L] with theta L = 200: lambda_2 / lambda_1 is so close to 1
    # that power steps stall on every level, and lambda is bisected by
    # counts on each level's pencil
    p = ModelParams(n, -1.0, Branch.COTH)
    b = 200.0 / (n - 1.0)
    got = neumann_eigenvalue_shooting(EigenQuery(p, 0.0, b))
    assert abs(got / prufer_eigenvalue(p, 0.0, b) - 1.0) <= 1e-10


def _pencil_spectrum(params, a, b, m):
    """A flux level's pencil (a_i, b_i) and its eigenvalues, from
    numpy.linalg.eigvalsh of M^(-1/2) K M^(-1/2) (diagonal a_i + b_i,
    off-diagonal -sqrt(b_i a_{i+1})), and 1 / rho of the level's operator
    applied to the unit vectors, a dense matrix."""
    x = np.linspace(0.0, 1.0, m + 1)
    apply, pencil = eigen._flux_level(params, a, b)(x, 0.5 / m)
    lo, up = pencil()
    off = -np.sqrt(np.multiply(up[:-1], lo[1:]))
    sym = np.diag(np.add(lo, up)) + np.diag(off, 1) + np.diag(off, -1)
    dense = np.column_stack([apply(e)[1:-1] for e in np.eye(m + 1)[1:-1]])
    rho = np.max(np.linalg.eigvals(dense).real)
    return lo, up, np.linalg.eigvalsh(sym), 1.0 / rho


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("params,a,b", [
    (ModelParams(3.0, -1.0, Branch.TANH), -2.0, 3.0),        # uniform mesh
    (ModelParams(2.5, 1.0, Branch.TAN), -math.pi / 2, 0.3),  # graded pole
    (ModelParams(3.0, -1.0, Branch.COTH), 0.0, 100.0),       # theta L 200
])
def test_count_matches_the_symmetrised_pencil(params, a, b, m):
    lo, up, ev, lam = _pencil_spectrum(params, a, b, m)
    assert abs(ev[0] / lam - 1.0) <= 1e-9  # the pencil is the operator's
    shifts = [e * (1.0 + d) for e in ev[:3] for d in (-1e-8, 1e-8)]
    shifts += list(0.5 * (ev[:3] + ev[1:4])) + [0.5 * ev[0], 2.0 * ev[-1]]
    for s in shifts:
        assert eigen._count(lo, up, s) == np.count_nonzero(ev < s), s


def test_count_steps_over_a_zero_pivot():
    # K - 2 M with a = b = 1 is tridiag(-1, 0, -1), whose first pivot is
    # exactly 0; the eigenvalues 2 - 2 cos(k pi / 5) put two below 2
    assert eigen._count([1.0] * 4, [1.0] * 4, 2.0) == 2


def test_coth_interval_dominates_central_even_family():
    pc = ModelParams(4.0, -1.0, Branch.COTH)
    pe = ModelParams(4.0, -1.0, Branch.TANH)
    lam = neumann_eigenvalue_shooting(EigenQuery(pc, 0.3, 1.7))
    lam_c = neumann_eigenvalue_shooting(EigenQuery(pe, -0.7, 0.7))
    assert lam >= lam_c - 1e-8 * lam_c


# ---------------------------------------------------------------------------
# finite-difference oracle

def test_fd_oracle_matches_flat_closed_form():
    p = ModelParams(3.0, 0.0, Branch.ZERO)
    q = EigenQuery(p, -0.5, 0.5)
    lam = fd_oracle_eigenvalue(q, 2048)
    assert lam == pytest.approx(math.pi ** 2, rel=1e-5)


def test_fd_richardson_improves_plain():
    p = ModelParams(3.0, -1.0, Branch.TANH)
    q = EigenQuery(p, -0.5, 0.5)
    plain = fd_oracle_eigenvalue(q, 1024)
    rich = fd_oracle_eigenvalue(q, 1024, richardson=True)
    truth = neumann_eigenvalue_shooting(q)
    assert abs(rich - truth) < abs(plain - truth)
    assert abs(rich - truth) / truth < 1e-7


def test_fd_second_order_convergence():
    """Property: the plain scheme converges at second order in h."""
    p = ModelParams(3.0, -1.0, Branch.TANH)
    q = EigenQuery(p, -0.6, 0.9)
    truth = neumann_eigenvalue_shooting(q)
    errs = [abs(fd_oracle_eigenvalue(q, m) - truth) for m in (256, 512, 1024)]
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert min(orders) > 1.8, (errs, orders)


def test_fd_mesh_too_coarse():
    p = ModelParams(3.0, 0.0, Branch.ZERO)
    q = EigenQuery(p, -0.5, 0.5)
    with pytest.raises(MeshTooCoarse):
        fd_oracle_eigenvalue(q, 8)


def test_fd_agrees_with_shooting_on_mixed_grid():
    for n, K, D in ((3, -1.0, 1.8), (5, 1.0, 2.6), (4, 0.0, 1.0)):
        p = ModelParams(float(n), K, branch_for_curvature(K, "symmetric"))
        q = EigenQuery(p, -D / 2, D / 2)
        fd = fd_oracle_eigenvalue(q, 1024, richardson=True)
        sh = neumann_eigenvalue_shooting(q)
        assert fd == pytest.approx(sh, rel=1e-6)


# ---------------------------------------------------------------------------
# symmetric interval length (the inverse problem)

def test_symmetric_interval_length_inverts_lambda1():
    for n, K, D in ((3, 1.0, 2.0), (3, -1.0, 1.0), (4, 0.0, 2.5)):
        lam = lambda1_model(n, K, D)
        p = ModelParams(float(n), K, branch_for_curvature(K, "symmetric"))
        assert symmetric_interval_length(p, lam) == pytest.approx(D, rel=1e-8)


def test_symmetric_interval_length_long_interval():
    # lambda_bar = 1e-9 on (3, -1) needs theta D ~ 46; the length's
    # eigenvalue amplifies its relative error about 46 times
    D = symmetric_interval_length(ModelParams(3.0, -1.0, Branch.TANH), 1e-9)
    assert abs(lambda1_symmetric(-1.0, D) / 1e-9 - 1.0) <= 1e-7


@pytest.mark.parametrize("lam", [1e-20, 1e-100, 1e-300])
def test_symmetric_interval_length_tiny_lambda(lam):
    # D ~ ln(8 / lam) up to 693; lambda1_model is exact to rounding there
    # (test_lambda1_theta_d_200_matches_closed_form).  An angle at the
    # scale sqrt(lam) puts lambda 1.3e-3 off at 1e-20 and fails below
    D = symmetric_interval_length(ModelParams(3.0, -1.0, Branch.TANH), lam)
    assert abs(lambda1_model(3, -1.0, D) / lam - 1.0) <= 1e-9


@pytest.mark.parametrize("K,lam", [(-1.0, 1e100), (1.0, 1e200)])
def test_symmetric_interval_length_at_huge_lambda(K, lam):
    # the drift is negligible over pi/sqrt(lam); the turn lies far below
    # any absolute time tolerance (the tan case used to return 0.0)
    p = ModelParams(3.0, K, branch_for_curvature(K, "symmetric"))
    assert symmetric_interval_length(p, lam) == pytest.approx(
        math.pi / math.sqrt(lam), rel=1e-12, abs=0.0)


def test_symmetric_interval_length_at_closing_eigenvalue():
    p = ModelParams(3.0, 1.0, Branch.TAN)
    assert symmetric_interval_length(p, 3.0) == pytest.approx(math.pi, rel=1e-6)


def test_symmetric_interval_length_wrong_family():
    p = ModelParams(3.0, -1.0, Branch.COTH)
    with pytest.raises(DomainError):
        symmetric_interval_length(p, 3.0)
