import random
import tracemalloc
from fractions import Fraction

from conftest import CATALOG_DIR, hom_mutants, structure_mutants
from rblie.cli import structure_checks, verify_structure
from rblie.liealg import LieAlgebra
from rblie.report import VerificationReport, Violation, family, run_checks
from rblie.search import mutate
from rblie.serialize import load
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


def test_family_binds_each_thunk_to_its_own_indices():
    """Each thunk of a family evaluates the residual at its own index
    tuple, also when the tuples come from a one-shot generator that is
    exhausted before any thunk runs (no late binding)."""
    seen = []

    def residual(i, j):
        seen.append((i, j))
        return vec(i, 10 * j)

    pairs = [(0, 1), (2, 0), (1, 1)]
    for indices in (pairs, (p for p in pairs), iter(pairs)):
        seen.clear()
        checks = family("cond", residual, indices)
        assert seen == []
        assert [(c, idx) for c, idx, _ in checks] == [("cond", p) for p in pairs]
        assert [fn() for _, _, fn in reversed(checks)] == [vec(1, 10), vec(2, 0), vec(0, 10)]
        assert seen == pairs[::-1]
    assert family("cond", residual, ()) == []
    report = run_checks(family("odd", lambda i: vec(i % 2), ((i,) for i in range(5))))
    assert report.checked == 5 and [v.indices for v in report.violations] == [(1,), (3,)]


def _catalog_mutants():
    sites = (("descent-aff1-ideal-cm-neg", ("phi3", 0, 1)),
             ("descent-sl2-adjoint-cm-tri", ("phi2", 0, 0, 2)),
             ("sl2-cocycle-rb2-nonstrict", ("l2_01", 0, 1, 0)),
             ("solv4-module-cocycle-rb2", ("l2_01", 0, 0, 0)),
             ("heis3-center-cm", ("rho", 1, 0, 0)),
             ("aff1-ideal-cm-neg-prelie", ("mult1", 0, 0, 0)))
    return [mutate(load(CATALOG_DIR / f"{name}.json"), site, 1) for name, site in sites]


def test_reports_do_not_depend_on_the_order_of_the_checks():
    """`run_checks` on a seeded shuffle of a document's check list gives
    the report of the list as built, on every catalog document and on
    mutants with violations, so no check relies on another having run
    first (the cached orbit, `rbh3` and `cohm` evaluations included)."""
    docs = [load(path) for path in sorted(CATALOG_DIR.glob("*.json"))]
    mutants = [m for _, m in structure_mutants() + hom_mutants()] + _catalog_mutants()
    violations = 0
    for seed, obj in enumerate(docs + mutants):
        shuffled = structure_checks(obj)
        random.Random(seed).shuffle(shuffled)
        report, expected = run_checks(shuffled), run_checks(structure_checks(obj))
        assert report == expected and report.lines() == expected.lines()
        violations += len(report.violations)
    assert len(docs) == 47 and violations > 0
