"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Checks 1 and 2 encode externally stated reference values (sigma = 0 interface
at pi*sqrt(2); sigma = 0.1 roots at 11.1/12.83 with slope signs (-,+,-)) that
are inconsistent with the profile equation this package integrates: direct
substitution shows the explicit sigma = 0 profile vanishes at 2*pi (m = 2),
and the stated sigma = 0.1 numbers are reproduced only by an equation with a
spurious factor m.  They are kept as stated and marked strict-xfail; the
corrected regressions live in test_shooting.py.
"""

import ast
import re

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


def _field(details: str, pattern: str) -> str:
    match = re.search(pattern, details)
    assert match, (pattern, details)
    return match.group(1)


# The details checks 3, 4, 5 and 8 print, pinned so that a refactor which
# moves a printed number fails here.  Numbers are compared to about their
# printed precision, well above libm differences between machines.
CHECK_3_XI0 = [6.9, 9.635, 15.386, 17.883, 23.697, 26.025, 31.879, 34.076,
               39.961, 42.053, 47.965, 49.967, 55.904, 57.827, 63.788, 65.64,
               71.623, 73.411, 79.416]
CHECK_5_SLOPES = [-0.16417, -0.30599, -0.39487, -0.41144]
CHECK_8_RADII = [0.0348, 0.0874, 0.1242, 0.1582, 0.1912, 0.2235, 0.2554,
                 0.2869, 0.3181]


def test_check_03_extended_multiplicity():
    # the check itself asks for >= 3 distinct maxima counts; the measured
    # window holds 19 roots, two per count from 1 to 9 and one with 10
    result = _run(3)
    assert result.passed
    assert result.details.startswith("19 good profiles;")
    xi0s = ast.literal_eval(_field(result.details, r"xi0 = (\[[^]]*\])"))
    assert xi0s == pytest.approx(CHECK_3_XI0, abs=2e-3)
    assert ast.literal_eval(_field(result.details, r"n_max = (\[[^]]*\])")) \
        == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10]


def test_check_04_nonexistence_gap():
    result = _run(4)
    assert result.passed
    assert "scan: 0 non-negative slopes, 0 failures of 201;" in result.details


def test_check_05_negative_slope_regime():
    result = _run(5)
    assert result.passed
    slopes = [float(v) for v in
              _field(result.details, r"slopes: (.*)$").split(", ")]
    assert slopes == pytest.approx(CHECK_5_SLOPES, abs=1e-5)


def test_check_06_critical_point_catalog():
    assert _run(6).passed


def test_check_07_normal_form():
    assert _run(7).passed


def test_check_08_p3_spiral():
    result = _run(8)
    assert result.passed
    assert result.details.startswith("9 returns,")
    radii = [float(v) for v in
             _field(result.details, r"radii \[([^]]*)\]").split()]
    assert radii == pytest.approx(CHECK_8_RADII, abs=1e-4)


def test_check_09_cylinder_properties():
    assert _run(9).passed


def test_check_10_identity_and_monotonicity():
    assert _run(10).passed
