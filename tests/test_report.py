import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

from conftest import CATALOG_DIR, hom_mutants, structure_mutants
from rblie.cli import structure_checks, verify_structure
from rblie.liealg import LieAlgebra
from rblie.report import VerificationReport, Violation, choose, family, grid, run_checks
from rblie.search import mutate
from rblie.serialize import dumps, load, loads
from rblie.twoterm import identity_rb_hom, two_term, with_operators
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


def test_verify_peak_does_not_grow_with_the_check_count():
    """No check list is built and `run_checks` keeps only the violations,
    so the tracemalloc peak of `verify` on a sparse Lie algebra (one
    bracket pair) does not grow with its check count: at dim 40 (10,700
    checks) it is within 1.5x the peak at dim 20 (1,350 checks), and
    under 64 KB."""
    def peak(n):
        alg = LieAlgebra(n, BilinearMap.from_map(n, n, n, {(0, 1): vbasis(n, 2)}, skew=True))
        tracemalloc.start()
        try:
            checked = verify_structure(alg).checked
            return checked, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # the first verify of a process makes its one-off allocations
    (small_checks, small), (large_checks, large) = peak(20), peak(40)
    assert (small_checks, large_checks) == (1350, 10700)
    assert large <= 1.5 * small and large < 64 * 1024, (small, large)


def test_verify_peak_of_the_orbit_families_holds_one_value_per_sorted_tuple():
    """An alternating structure's orbit families (`rb3`, `coh`, `jcoh`)
    memoize one residual per sorted tuple of distinct indices, C(n, arity)
    of them, and nothing per ordering: after a warm-up, the tracemalloc
    peak of `verify` of the zero `rb-2term` at dim0 9, dim1 1 (9,056
    checks) is under 320 KB.  A memo of every ordering's signed value,
    perm(n, arity) entries, peaked at 0.9 MB there."""
    G = with_operators(two_term(9, 1))
    verify_structure(G)
    tracemalloc.start()
    try:
        checked = verify_structure(G).checked
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == 9056
    assert peak < 320 * 1024, peak


def test_family_binds_each_thunk_to_its_own_indices():
    """Each thunk of a family evaluates the residual at its own index
    tuple, also when every thunk is made before any runs and they run in
    reverse (no late binding); iterating the same `Checks` again makes the
    same checks, as its index tuples are made afresh."""
    seen = []

    def residual(i, j):
        seen.append((i, j))
        return vec(i, 10 * j)

    pairs = [(0, 1), (2, 0), (1, 1)]
    checks = family("cond", residual, lambda: (p for p in pairs), len(pairs))
    for _ in range(2):
        seen.clear()
        made = list(checks)
        assert seen == []
        assert [(c, idx) for c, idx, _ in made] == [("cond", p) for p in pairs]
        assert [fn() for _, _, fn in reversed(made)] == [vec(1, 10), vec(2, 0), vec(0, 10)]
        assert seen == pairs[::-1]
    assert list(family("cond", residual, *choose(1, 2))) == []
    report = run_checks(family("odd", lambda i: vec(i % 2), *grid(5)))
    assert report.checked == 5 and [v.indices for v in report.violations] == [(1,), (3,)]


def test_checks_add_rename_and_count_in_closed_form():
    """`+` concatenates families, `prefixed` renames them, `count` is the
    sum of their closed forms, and a constant family hands every tuple one
    shared thunk."""
    zero = vec(0, 0)
    checks = (family("a", lambda i, j: vec(i, j), *choose(4, 2))
              + family("z", zero, *grid(2, 3))).prefixed("p-")
    made = list(checks)
    assert checks.count == len(made) == 12
    assert [c for c, _, _ in made] == ["p-a"] * 6 + ["p-z"] * 6
    assert len({fn for c, _, fn in made if c == "p-z"}) == 1 and made[-1][2]() == zero
    for n, k, repeat in product(range(5), range(1, 4), (False, True)):
        tuples, count = choose(n, k, repeat)
        assert len(list(tuples())) == count, (n, k, repeat)


def test_count_is_the_number_of_checks_run():
    """`count`, a sum of closed forms, is the number of checks `run_checks`
    runs on every catalog document, every structure and homomorphism
    mutant, and every zero structure and its identity homomorphism at
    dim0 0..5 and dim1 0..3."""
    objs = [load(path) for path in sorted(CATALOG_DIR.glob("*.json"))]
    objs += [m for _, m in structure_mutants() + hom_mutants()]
    for d0, d1 in product(range(6), range(4)):
        G = with_operators(two_term(d0, d1))
        objs += [G, identity_rb_hom(G)]
    for obj in objs:
        checks = structure_checks(obj)
        assert checks.count == run_checks(checks).checked, obj


def test_count_of_the_dim_200_document_evaluates_no_residual(monkeypatch):
    """The two-entry `lie` document declaring dim 200 counts
    200 + C(200,2) + C(200,3) = 1,333,500 checks with no residual
    evaluated, at a tracemalloc peak under 64 KB."""
    alg = loads(dumps(LieAlgebra.from_brackets(200, {(0, 1): vbasis(200, 2)})))

    def evaluated(*args):
        raise AssertionError("a residual was evaluated")

    monkeypatch.setattr(BilinearMap, "__call__", evaluated)
    monkeypatch.setattr(BilinearMap, "apply", evaluated)
    tracemalloc.start()
    try:
        count = structure_checks(alg).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 200 + comb(200, 2) + comb(200, 3) == 1_333_500
    assert peak < 64 * 1024, peak


def _catalog_mutants():
    sites = (("descent-aff1-ideal-cm-neg", ("phi3", 0, 1)),
             ("descent-sl2-adjoint-cm-tri", ("phi2", 0, 0, 2)),
             ("sl2-cocycle-rb2-nonstrict", ("l2_01", 0, 1, 0)),
             ("solv4-module-cocycle-rb2", ("l2_01", 0, 0, 0)),
             ("heis3-center-cm", ("rho", 1, 0, 0)),
             ("aff1-ideal-cm-neg-prelie", ("mult1", 0, 0, 0)))
    return [mutate(load(CATALOG_DIR / f"{name}.json"), site, 1) for name, site in sites]


def test_reports_do_not_depend_on_the_order_of_the_checks():
    """`run_checks` on a seeded shuffle of a document's checks gives the
    report of the checks in the order they are made, on every catalog
    document and on mutants with violations, so no check relies on another
    having run first (the cached orbit, `rbh3` and `cohm` evaluations
    included)."""
    docs = [load(path) for path in sorted(CATALOG_DIR.glob("*.json"))]
    mutants = [m for _, m in structure_mutants() + hom_mutants()] + _catalog_mutants()
    violations = 0
    for seed, obj in enumerate(docs + mutants):
        shuffled = list(structure_checks(obj))
        random.Random(seed).shuffle(shuffled)
        report, expected = run_checks(shuffled), run_checks(structure_checks(obj))
        assert report == expected and report.lines() == expected.lines()
        violations += len(report.violations)
    assert len(docs) == 47 and violations > 0
