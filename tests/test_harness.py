"""Tests for the verification harness: closed-spectrum manifolds with
known gap, diameter and curvature floor, scored against the model bound."""

import math

import numpy as np
import pytest

from specgap.eigen import lambda1_model
from specgap.errors import DomainError
from specgap.harness import (
    catalog,
    check_main_inequality,
    circle,
    diameter_chain_check,
    flat_torus,
    gradient_comparison_sphere,
    sphere,
)


# ---------------------------------------------------------------------------
# the catalog's exact spectral data

def test_sphere_data():
    s = sphere(3)
    assert s.lambda1_exact == 3.0
    assert s.diameter_exact == math.pi
    assert s.ricci_lower == 2.0
    s2 = sphere(3, radius=2.0)
    assert s2.lambda1_exact == 0.75
    assert s2.diameter_exact == 2 * math.pi
    assert s2.ricci_lower == 0.5
    assert s2.K == 0.25


def test_flat_torus_data():
    t = flat_torus([1.0, 1.0, 1.0])
    assert t.lambda1_exact == pytest.approx(4 * math.pi ** 2)
    assert t.diameter_exact == pytest.approx(0.5 * math.sqrt(3.0))
    assert t.ricci_lower == 0.0
    assert t.dim == 3


def test_circle_data():
    c = circle(2 * math.pi)
    assert c.lambda1_exact == pytest.approx(1.0)
    assert c.diameter_exact == pytest.approx(math.pi)
    assert c.dim == 1 and c.K == 0.0


def test_catalog_is_nonempty_and_diverse():
    cat = catalog()
    assert len(cat) >= 6
    kinds = {m.kind for m in cat}
    assert "sphere" in kinds and "torus" in kinds


# ---------------------------------------------------------------------------
# the main inequality on every catalog entry

@pytest.mark.parametrize("m", catalog(), ids=lambda m: m.name)
def test_main_inequality_holds(m):
    rep = check_main_inequality(m)
    assert rep.ok, (m.name, rep.slack)


def test_sphere_is_extremal():
    # round spheres attain the model value: slack vanishes
    for radius in (1.0, 2.0):
        rep = check_main_inequality(sphere(3, radius=radius))
        assert abs(rep.slack) <= 1e-9 * max(1.0, rep.lambda1_exact)


def test_cubic_torus_example():
    # unit cube torus: lambda1 = 4 pi^2, model value at D = sqrt(3)/2
    # is pi^2/D^2 = 4 pi^2/3, slack = 8 pi^2/3
    rep = check_main_inequality(flat_torus([1.0, 1.0, 1.0]))
    assert rep.model_value == pytest.approx(4 * math.pi ** 2 / 3.0, rel=1e-9)
    assert rep.slack == pytest.approx(8 * math.pi ** 2 / 3.0, rel=1e-8)


def test_circle_scored_against_dimension_free_model():
    # dim 1 sits outside the model family; the flat comparison is
    # dimension-free so the circle is scored against it
    rep = check_main_inequality(circle(2 * math.pi))
    assert rep.ok
    assert rep.model_value == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_alpha_discount_preserves_inequality(alpha):
    for m in catalog():
        rep = check_main_inequality(m, alpha=alpha)
        assert rep.ok
        assert rep.lower_bound == pytest.approx(alpha * rep.model_value, rel=1e-12)


# ---------------------------------------------------------------------------
# gradient comparison on round spheres

@pytest.mark.parametrize("n", [2, 3, 5])
def test_gradient_comparison_sphere(n):
    rep = gradient_comparison_sphere(n, n_samples=400)
    assert rep.ok
    assert rep.sup_discrepancy < 1e-8
    assert rep.equator_discrepancy < 1e-8
    assert rep.pole_value < 1e-12


# ---------------------------------------------------------------------------
# diameter chain: lambda_bar, matched model, achieved alpha

def test_chain_unperturbed_limit():
    lam = 8.93166014829082  # lambda1(3, -1, 1)
    rep = diameter_chain_check(3, -1.0, lam, 0.0)
    assert rep.ok
    assert rep.alpha_achieved == pytest.approx(1.0, abs=1e-4)
    assert rep.alpha_achieved == pytest.approx(
        lam / lambda1_model(3, -1.0, rep.target), rel=1e-12)
    assert rep.target == pytest.approx(rep.d_bar, rel=1e-13)


def test_chain_alpha_increases_toward_one():
    lam = 8.93166014829082
    a1 = diameter_chain_check(3, -1.0, lam, 0.1).alpha_achieved
    a2 = diameter_chain_check(3, -1.0, lam, 0.01).alpha_achieved
    assert a1 < a2 < 1.0
    assert a1 == pytest.approx(0.744659, abs=2e-4)
    assert a2 == pytest.approx(0.968645, abs=2e-4)


def test_chain_identity():
    # alpha is lambda_1 over the (n, K) model value at the target length,
    # which is d_bar shrunk by sqrt(1 + delta)
    lam = 8.93166014829082
    rep = diameter_chain_check(3, -1.0, lam, 0.1)
    assert rep.alpha_achieved == pytest.approx(
        lam / lambda1_model(3, -1.0, rep.target), rel=1e-12)
    assert rep.target == pytest.approx(rep.d_bar / math.sqrt(1.1), rel=1e-13)
