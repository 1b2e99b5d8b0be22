"""Tests for the perturbed-parameter selection rules and the three
pointwise conditions they must satisfy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specgap.errors import DomainError, InfeasibleDelta
from specgap.perturbation import (
    check_term_III,
    choose_K_bar,
    choose_N,
    choose_alpha_beta,
    choose_lambda_bar,
    cond1_margin,
    cond2_margin,
    cond3_margin,
    perturbed_params,
    verify_conditions,
    y_window,
)

_N_MARGIN = 1e-6


# ---------------------------------------------------------------------------
# closed-form anchor values for the parameter choices

def test_choose_lambda_bar():
    assert choose_lambda_bar(2.0, 0.1) == pytest.approx(2.4, rel=1e-15)
    assert choose_lambda_bar(5.0, 0.0) == 5.0


@pytest.mark.parametrize("n,delta,N_star", [
    (3, 0.0, 3.0),
    (3, 0.1, 5.0),
    (3, 0.01, 3.125),
    (4, 0.1, 9.0),
    (5, 0.1, 17.0),
])
def test_choose_N_exact(n, delta, N_star):
    assert choose_N(n, delta) == pytest.approx(N_star * (1.0 + _N_MARGIN), rel=1e-13)


def test_choose_N_infeasible():
    # the slack ratio r drops below 1 once delta is too aggressive
    with pytest.raises(InfeasibleDelta):
        choose_N(3, 0.3)
    with pytest.raises(InfeasibleDelta):
        choose_N(3, 0.25)  # r = 1 exactly: degenerate


def test_choose_N_monotone_in_delta():
    deltas = (0.0, 0.001, 0.01, 0.05, 0.1)
    Ns = [choose_N(3, d) for d in deltas]
    assert all(x < y for x, y in zip(Ns, Ns[1:]))


def test_y_window():
    lo, hi = y_window(0.1)
    assert lo == pytest.approx(0.75, rel=1e-15)
    assert hi == pytest.approx(11.0 / 12.0, rel=1e-15)
    lo, hi = y_window(0.0)
    assert lo == hi == 1.0


def test_choose_alpha_beta_values():
    alpha, beta = choose_alpha_beta(3, 0.1)
    # root of 2(1-a)y^2 - (n+1)y + (n-1) at y_hi = 11/12 is a = 1/121,
    # and the published choice takes half of it
    assert alpha == pytest.approx(1.0 / 242.0, rel=1e-10)
    assert beta == pytest.approx(1.0 / 36.0, rel=1e-13)


def test_choose_alpha_beta_unperturbed_limit():
    alpha, beta = choose_alpha_beta(3, 0.0)
    assert alpha == 0.0
    assert beta == 0.0


@pytest.mark.parametrize("n,delta", [(10, 0.3), (50, 0.1)])
def test_choose_alpha_beta_window_below_linear_root(n, delta):
    # y_hi < (n-1)/(n+1): condition (1) holds for every alpha < 1, so the
    # supremum is 1 and the choice is 1/2
    alpha, _ = choose_alpha_beta(n, delta)
    assert alpha == 0.5
    y = np.linspace(*y_window(delta), 201)
    assert np.all(cond1_margin(n, alpha, y) >= 0.0)


def test_choose_alpha_beta_supremum_one_exactly():
    # y_hi = 11/12 = (n-1)/(n+1) at n = 23: the supremum is exactly 1
    alpha, _ = choose_alpha_beta(23, 0.1)
    assert alpha == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("n,delta", [(3.9, 0.0), (3.0, 1e-9), (3.0 - 1e-13, 0.0)])
def test_choose_alpha_beta_near_zero_supremum(n, delta):
    # alpha_sup sits at or within rounding of 0: at (3.9, 0)
    # (n+1) - (n-1) rounds to 2 + 2^-51, at (3, 1e-9) alpha_sup is
    # (1 - y_hi)^2 / y_hi^2 ~ 1e-18, and n = 3 - 1e-13 lies inside the
    # 1e-12 feasibility band; none may read as infeasible
    alpha, _ = choose_alpha_beta(n, delta)
    assert 0.0 <= alpha <= 1e-15
    if delta == 0.0:
        assert alpha == 0.0


def test_choose_alpha_beta_infeasible():
    # n = 2: the alpha = 0 quadratic (2y - 1)(y - 1) is negative on
    # (1/2, 1), and at delta = 0 y_hi = 1 sits past its vertex 3/4
    with pytest.raises(InfeasibleDelta):
        choose_alpha_beta(2, 0.1)
    with pytest.raises(InfeasibleDelta):
        choose_alpha_beta(2, 0.0)


def test_validation():
    with pytest.raises(DomainError):
        choose_N(1.0, 0.1)
    with pytest.raises(DomainError):
        choose_N(3, -0.01)
    with pytest.raises(DomainError):
        choose_N(3, 0.5)


# ---------------------------------------------------------------------------
# curvature perturbation

def test_choose_K_bar_positive():
    N = choose_N(3, 0.1)
    want = 0.9 * 1.0 * 2.0 / (N - 1.0)
    assert choose_K_bar(3, 0.1, 1.0) == pytest.approx(want, rel=1e-13)
    # strict drop below K
    assert choose_K_bar(3, 0.1, 1.0) < 1.0


def test_choose_K_bar_negative():
    N = choose_N(3, 0.1)
    want = 1.1 * (-1.0) * 2.0 / (N - 1.0)
    assert choose_K_bar(3, 0.1, -1.0) == pytest.approx(want, rel=1e-13)


def test_choose_K_bar_sigma_penalty():
    N = choose_N(3, 0.1)
    want = (0.9 * 2.0 - 1.1 * 0.2) / (N - 1.0)
    assert choose_K_bar(3, 0.1, 1.0, sigma=0.2) == pytest.approx(want, rel=1e-13)
    assert choose_K_bar(3, 0.1, 1.0, sigma=0.2) < choose_K_bar(3, 0.1, 1.0)


def test_choose_K_bar_integral_cap_binds():
    N = choose_N(3, 0.1)
    plain = choose_K_bar(3, 0.1, 1.0)
    capped = choose_K_bar(3, 0.1, 1.0, aubry=(1.0, 0.3))
    assert capped == pytest.approx(min(plain, 3.0 * 0.7 / N), rel=1e-13)
    assert capped < plain


def test_choose_K_bar_zero_curvature():
    assert choose_K_bar(3, 0.1, 0.0) == 0.0


def test_choose_K_bar_rejects_too_small_N():
    # N = 2 leaves (1 - delta) K (n - 1) / (N - 1) = 1.98 above K = 1
    with pytest.raises(DomainError):
        choose_K_bar(3, 0.01, 1.0, N=2.0)


# ---------------------------------------------------------------------------
# the three pointwise conditions

def test_cond1_known_failure_in_dimension_two():
    # n = 2 fails condition 1 at the left window edge for delta = 0.1
    assert cond1_margin(2, 0.0, 0.75) == pytest.approx(-0.125, rel=1e-13)


def test_cond1_root_is_margin_zero():
    alpha, _ = choose_alpha_beta(3, 0.1)
    # doubling back to the sup value makes the margin vanish at y_hi
    _, y_hi = y_window(0.1)
    assert cond1_margin(3, 2.0 * alpha, y_hi) == pytest.approx(0.0, abs=1e-12)
    assert cond1_margin(3, alpha, y_hi) > 0.0


def test_cond2_margin_form():
    # 1 - 2 n beta/(n+1) - y at the chosen beta vanishes at y_hi
    _, beta = choose_alpha_beta(3, 0.1)
    _, y_hi = y_window(0.1)
    assert cond2_margin(3, 2.0 * beta, y_hi) == pytest.approx(0.0, abs=1e-13)
    assert cond2_margin(3, beta, y_hi) > 0.0


def test_cond3_tight_at_window_bottom():
    # N is chosen so condition 3 holds with a hair of slack at y_lo
    N = choose_N(3, 0.1)
    y_lo, _ = y_window(0.1)
    assert cond3_margin(3, N, y_lo) > 0.0
    assert cond3_margin(3, N, y_lo) < 1e-5
    # the margin-free dimension would sit exactly at zero
    assert cond3_margin(3, 5.0, y_lo) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("delta", [0.1, 0.01, 0.001])
def test_verify_conditions_on_window(n, delta):
    pp = perturbed_params(n, delta, 1.0, 1.0)
    y = np.linspace(pp.y_lo, pp.y_hi, 1000)
    rep = verify_conditions(pp, y)
    assert rep.all_ok
    assert rep.min_cond1 >= 0.0
    assert rep.min_cond2 >= 0.0
    assert rep.min_cond3 >= 0.0


@given(delta=st.floats(min_value=0.0005, max_value=0.17))
@settings(max_examples=40, deadline=None)
def test_conditions_hold_for_random_delta(delta):
    """Property: the published parameter choices satisfy all three
    conditions across the y-window for any feasible delta (n = 4 keeps
    its slack ratio above 1 up to delta = 2/11)."""
    pp = perturbed_params(4, delta, 2.0, -1.0)
    y = np.linspace(pp.y_lo, pp.y_hi, 200)
    assert verify_conditions(pp, y).all_ok


# ---------------------------------------------------------------------------
# composition and the remaining curvature term

def test_perturbed_params_composition():
    pp = perturbed_params(3, 0.1, 2.0, 1.0)
    assert pp.lambda_bar == pytest.approx(2.4)
    assert pp.N == pytest.approx(choose_N(3, 0.1))
    assert pp.K_bar == pytest.approx(choose_K_bar(3, 0.1, 1.0))
    assert pp.alpha == pytest.approx(1.0 / 242.0, rel=1e-10)
    assert pp.beta == pytest.approx(1.0 / 36.0)


def test_term_III_positive_curvature_slack():
    # minimum over J in [1-delta, 1+delta] lands at J = 1-delta and
    # equals 2 delta sigma/(1-delta) by construction
    n, delta, K, sigma = 3, 0.1, 1.0, 0.3
    N = choose_N(n, delta)
    Kb = choose_K_bar(n, delta, K, sigma=sigma)
    J = np.linspace(1.0 - delta, 1.0 + delta, 101)
    got = check_term_III(n, K, N, Kb, sigma, J)
    want = 2.0 * delta * sigma / (1.0 - delta)
    assert got == pytest.approx(want, rel=1e-6)


def test_term_III_negative_curvature_tight():
    # with sigma = 0 the negative-curvature choice is exactly tight at
    # the J = 1+delta end of the band
    n, delta, K = 3, 0.1, -1.0
    N = choose_N(n, delta)
    Kb = choose_K_bar(n, delta, K)
    J = np.linspace(1.0 - delta, 1.0 + delta, 101)
    got = check_term_III(n, K, N, Kb, 0.0, J)
    assert got == pytest.approx(0.0, abs=1e-12)
    assert got >= -1e-12


def test_term_III_rejects_nonpositive_J():
    with pytest.raises(DomainError):
        check_term_III(3, 1.0, 5.0, 0.4, 0.0, np.array([1.0, 0.0, 1.1]))
