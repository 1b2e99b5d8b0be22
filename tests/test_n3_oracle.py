"""Tests for the n = 3 closed-form oracle on the inputs where the
benchmark's own references lose the value."""

import math

import pytest

import n3_oracle


@pytest.mark.parametrize("D", [100.0, 200.0])
def test_symmetric_keeps_its_digits_at_large_theta_d(monkeypatch, D):
    # the flux cancels like e^(D / 2); at a fixed 50 digits the root came
    # out 1.5e-8 off at D = 100 and 0.0 at D = 200
    got = n3_oracle.lambda1_symmetric(-1.0, D)
    monkeypatch.setattr(n3_oracle, "DIGITS", n3_oracle.DIGITS + 40)
    assert abs(got / n3_oracle.lambda1_symmetric(-1.0, D) - 1.0) <= 1e-14


def test_interval_scan_does_not_step_over_lambda1():
    # lambda_2 / lambda_1 is about 1.02 on coth [0, 40], where a geometric
    # scan in steps of 1.25 returned 1.1618134447
    got = n3_oracle.lambda1_interval(-1.0, 0.0, 40.0, "coth")
    assert abs(got / 1.006488174954221 - 1.0) <= 1e-14


def test_first_maximum_just_short_of_the_tan_pole():
    # a scan whose last partial step stops short of the pole missed it
    b, m = n3_oracle.first_maximum(1.0, 3.0 * (1.0 + 1e-9), -math.pi / 2,
                                   "tan")
    assert b == pytest.approx(1.5697402, abs=1e-7)
    assert math.pi / 2 - b == pytest.approx(1.06e-3, abs=1e-5)
    assert 0.0 < m < 1.0
