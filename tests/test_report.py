import tracemalloc
from fractions import Fraction

from rblie.cli import structure_checks, verify_structure
from rblie.liealg import LieAlgebra
from rblie.report import VerificationReport, Violation, run_checks
from rblie.tensors import BilinearMap, vbasis, vec


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


def test_run_checks_consumes_a_one_shot_generator():
    checks = (("odd", (i,), lambda i=i: vec(i % 2)) for i in range(5))
    report = run_checks(checks)
    assert report.checked == 5
    assert [v.indices for v in report.violations] == [(1,), (3,)]
    assert run_checks(iter(())).checked == 0


def test_verify_holds_no_more_than_its_check_list():
    """`run_checks` keeps only the violations, not every residual, so the
    tracemalloc peak of `verify` on a sparse dim-40 Lie algebra (10,700
    checks, one bracket pair) stays within 1.25x the peak of building its
    check list alone; keeping every residual reads about 1.7x."""
    def peak(fn):
        n = 40
        alg = LieAlgebra(n, BilinearMap.from_map(n, n, n, {(0, 1): vbasis(n, 2)}, skew=True))
        tracemalloc.start()
        try:
            fn(alg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    build, verify = peak(structure_checks), peak(verify_structure)
    assert verify <= 1.25 * build, (verify, build)
