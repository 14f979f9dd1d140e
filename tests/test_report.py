from fractions import Fraction

from rblie.report import VerificationReport, Violation, run_checks
from rblie.tensors import vec


def test_violation_line_format():
    v = Violation("jacobi", (0, 1, 2), vec(0, Fraction(-1, 2), 3))
    assert v.line() == "VIOLATION jacobi (0,1,2) (0,-1/2,3)"
    assert Violation("chain", (), ()).line() == "VIOLATION chain () ()"


def test_report_sorts_violations():
    report = VerificationReport(3, (
        Violation("zz", (0,), vec(1)),
        Violation("aa", (1, 0), vec(1)),
        Violation("aa", (0, 1), vec(1)),
    ))
    assert [v.condition for v in report.violations] == ["aa", "aa", "zz"]
    assert report.violations[0].indices == (0, 1)
    assert report.lines() == sorted(report.lines())


def test_run_checks_counts_and_filters_zero_residuals():
    checks = [
        ("one", (0,), lambda: vec(0, 0)),
        ("two", (1,), lambda: vec(0, 5)),
    ]
    report = run_checks(checks)
    assert report.checked == 2
    assert report.conditions() == {"two"}
    assert report.at("two", (1,)).residual == vec(0, 5)
    assert report.at("one", (0,)) is None
