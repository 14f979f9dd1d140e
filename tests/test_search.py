import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rblie import search
from rblie.catalog import LIE_ALGEBRAS, aff1, aff1_rb_shift
from rblie.errors import BadSite, BudgetExceeded
from rblie.liealg import LieAlgebra, RotaBaxterLieAlgebra, rb_checks
from rblie.report import run_checks
from rblie.search import SearchSpec, _narrow, enumerate_rb_operators, mutate
from rblie.serialize import dumps, loads
from rblie.tensors import LinearMap, from_cells, vec


def brute_force(alg, coeffs, mask=None) -> list[LinearMap]:
    """The oracle: every matrix over the grid, in lexicographic row-major
    order, kept when the full operator verifier passes it."""
    n = alg.dim
    sites = [(r, c) for r in range(n) for c in range(n) if mask is None or mask[r][c]]
    return [r for values in product(sorted(set(coeffs)), repeat=len(sites))
            for r in [from_cells((n, n), dict(zip(sites, values)))]
            if run_checks(rb_checks(RotaBaxterLieAlgebra(alg, r))).ok]


def _mask(n, sites):
    return tuple(tuple((r, c) in sites for c in range(n)) for r in range(n))


@st.composite
def grids(draw, max_candidates=512):
    """An algebra of the catalog, a coefficient list (fractions, repeats,
    with or without 0) and a mask with as many free entries as keep the grid
    within `max_candidates` matrices."""
    alg = LIE_ALGEBRAS[draw(st.sampled_from(["aff1", "abelian2", "sl2", "heis3", "solv4"]))]
    coeffs = draw(st.lists(st.sampled_from(
        [-2, -1, Fraction(-1), Fraction(-1, 2), 0, Fraction(0), Fraction(1, 3), 1, 2]),
        min_size=1, max_size=4))
    n, size = alg.dim, len(set(coeffs))
    free = 0
    while size ** (free + 1) <= max_candidates and free < n * n:
        free += 1
    sites = draw(st.sets(st.sampled_from([(r, c) for r in range(n) for c in range(n)]),
                         min_size=free, max_size=free))
    return alg, coeffs, _mask(n, sites)


def test_abelian_grid_accepts_everything():
    spec = SearchSpec(LieAlgebra.abelian(2), (Fraction(0), Fraction(1)))
    found = enumerate_rb_operators(spec)
    assert len(found) == 16


def test_zero_coefficient_grid_gives_zero_operator():
    for alg in (aff1(), LIE_ALGEBRAS["sl2"]):
        found = enumerate_rb_operators(SearchSpec(alg, (Fraction(0),)))
        assert len(found) == 1
        assert found[0].r.is_zero()


def test_aff1_search_contains_shift_operator(golden_operators):
    assert any(rba.r == aff1_rb_shift().r for rba in golden_operators)


def test_aff1_search_matches_closed_form_oracle(golden_operators):
    """For R = [[a,b],[c,d]] on [e0,e1] = e1, the operator identity reduces
    to b(a+d) = 0 and d^2 = -bc; cross-check the enumeration against that
    independent derivation over the whole grid."""
    alg = aff1()
    golden = {rba.r for rba in golden_operators}
    grid = [Fraction(-1), Fraction(0), Fraction(1)]
    seen = 0
    for a, b, c, d in product(grid, repeat=4):
        r = LinearMap.from_rows([[a, b], [c, d]])
        expected = (b * (a + d) == 0) and (d * d == -b * c)
        assert (r in golden) == expected
        assert run_checks(rb_checks(RotaBaxterLieAlgebra(alg, r))).ok == expected
        seen += 1
    assert seen == 81
    assert len(golden) == 15


def test_enumeration_is_deterministic(golden_operators):
    again = enumerate_rb_operators(SearchSpec(aff1()))
    assert [rba.r for rba in again] == [rba.r for rba in golden_operators]
    flat = [rba.r.flat() for rba in again]
    assert flat == sorted(flat)


def test_budget_guard():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_rb_operators(SearchSpec(LIE_ALGEBRAS["sl2"], budget=100))
    assert exc.value.candidate_count == 3 ** 9


def test_mask_restricts_sites():
    mask = ((False, True), (False, False))
    spec = SearchSpec(aff1(), mask=mask)
    assert spec.candidate_count() == 3
    found = enumerate_rb_operators(spec)
    # with a = c = d = 0 every value of the free entry satisfies the identity
    assert [rba.r.entries[0][1] for rba in found] == [Fraction(-1), Fraction(0), Fraction(1)]
    assert all(rba.r.entries[1][1] == 0 for rba in found)


@pytest.mark.parametrize("coeffs", [
    (-1, 0, 1),
    (Fraction(1), 0, -1, 1, Fraction(-1)),           # duplicates, unsorted
    (0,),                                             # 0 only
    (Fraction(-1, 2), 1),                             # a fraction and no 0
])
@pytest.mark.parametrize("name", ["aff1", "abelian2"])
def test_search_matches_brute_force_on_dim2_grids(name, coeffs):
    alg = LIE_ALGEBRAS[name]
    assert ([rba.r for rba in enumerate_rb_operators(SearchSpec(alg, coeffs))]
            == brute_force(alg, coeffs))


@pytest.mark.parametrize("name, coeffs, mask", [
    ("sl2", (0, 1), None),
    ("sl2", (-1, Fraction(-1, 2)), None),
    ("heis3", (0, 1), None),
    ("heis3", (-1, 0, Fraction(-1, 2)), _mask(3, {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)})),
    # a pair whose v reaches two unset columns must stay open (dim 4 only)
    ("solv4", (-1, 0, 1), _mask(4, {(0, 2), (1, 0), (1, 1), (1, 3), (2, 3), (3, 1), (3, 3)})),
])
def test_search_matches_brute_force_on_forcing_grids(name, coeffs, mask):
    """Grids on which columns are forced often enough that a wrong residual,
    a wrong forced value or a pair decided too early loses operators."""
    alg = LIE_ALGEBRAS[name]
    assert ([rba.r for rba in enumerate_rb_operators(SearchSpec(alg, coeffs, mask))]
            == brute_force(alg, coeffs, mask))


@settings(max_examples=25, deadline=None)
@given(grids())
def test_search_matches_brute_force_on_masked_grids(grid):
    alg, coeffs, mask = grid
    assert ([rba.r for rba in enumerate_rb_operators(SearchSpec(alg, coeffs, mask))]
            == brute_force(alg, coeffs, mask))


@settings(max_examples=40, deadline=None)
@given(grids())
def test_every_kept_operator_passes_the_verifier(grid):
    alg, coeffs, mask = grid
    for rba in enumerate_rb_operators(SearchSpec(alg, coeffs, mask)):
        assert run_checks(rb_checks(rba)).ok


def test_sl2_and_heis3_counts_over_minus_one_zero_one():
    for name, count in (("sl2", 23), ("heis3", 639)):
        found = enumerate_rb_operators(SearchSpec(LIE_ALGEBRAS[name]))
        flat = [rba.r.flat() for rba in found]
        assert len(flat) == count
        assert flat == sorted(flat)


SOLV4_FORCING_MASK = _mask(4, {(0, 2), (1, 0), (1, 1), (1, 3), (2, 3), (3, 1), (3, 3)})


@pytest.mark.parametrize("name, mask, count", [
    ("sl2", None, 23),
    ("heis3", None, 639),
    ("solv4", SOLV4_FORCING_MASK, 63),  # brute force finds the same 63
])
def test_only_kept_operators_reach_the_full_identity_check(monkeypatch, name, mask, count):
    """A completed matrix is decided by `_narrow` like any other node, so the
    full identity check runs exactly once per kept operator and rejects
    none."""
    checked, is_rb = [], search._is_rb
    monkeypatch.setattr(search, "_is_rb", lambda alg, r: checked.append(r) or is_rb(alg, r))
    found = [rba.r for rba in enumerate_rb_operators(SearchSpec(LIE_ALGEBRAS[name], mask=mask))]
    assert sorted(checked, key=LinearMap.flat) == found
    assert len(found) == count


HEIS3_MASK = _mask(3, {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)})
ABELIAN3_MASK = _mask(3, {(0, 1), (0, 2), (1, 2), (2, 0), (2, 2)})
INTERLEAVED = [  # same dimension, different brackets, grids and coefficients
    ("sl2", (-1, 0, 1), None),
    ("heis3", (-1, 0, 1), None),
    ("abelian3", (-1, 0, 1), ABELIAN3_MASK),
    ("heis3", (-1, 0, 1), HEIS3_MASK),
    ("sl2", ("-1/2", 1), None),
    ("abelian3", ("-1/2", 1), None),
    ("heis3", ("-1/2", 1), HEIS3_MASK),
]
FRESH_SEARCH = """
import json, sys
from fractions import Fraction
from rblie.liealg import LieAlgebra
from rblie.catalog import LIE_ALGEBRAS
from rblie.search import SearchSpec, enumerate_rb_operators
name, coeffs, mask = json.loads(sys.argv[1])
alg = LieAlgebra.abelian(3) if name == "abelian3" else LIE_ALGEBRAS[name]
mask = None if mask is None else tuple(map(tuple, mask))
spec = SearchSpec(alg, tuple(map(Fraction, coeffs)), mask)
print(json.dumps([list(map(str, rba.r.flat())) for rba in enumerate_rb_operators(spec)]))
"""


def _spec(name, coeffs, mask) -> SearchSpec:
    alg = LieAlgebra.abelian(3) if name == "abelian3" else LIE_ALGEBRAS[name]
    return SearchSpec(alg, tuple(map(Fraction, coeffs)), mask)


def test_the_pair_table_lives_for_one_search(monkeypatch):
    """Searches of three dim-3 algebras over masked and unmasked grids and
    two coefficient lists, interleaved in one process, each give what the
    same search gives as the only one in a new process; a repeated search
    gives an equal list, and each kept operator meets the full identity
    check once."""
    src = str(Path(search.__file__).resolve().parents[1])
    procs = [subprocess.Popen([sys.executable, "-c", FRESH_SEARCH, json.dumps(spec)],
                              stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src})
             for spec in INTERLEAVED]
    fresh = [json.loads(proc.communicate(timeout=120)[0]) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    checked, is_rb = [], search._is_rb
    monkeypatch.setattr(search, "_is_rb", lambda alg, r: checked.append(r) or is_rb(alg, r))
    kept = 0
    # forward, then backward: the last search runs twice in a row
    for spec, expected in zip(INTERLEAVED + INTERLEAVED[::-1], fresh + fresh[::-1]):
        found = [rba.r for rba in enumerate_rb_operators(_spec(*spec))]
        assert [list(map(str, r.flat())) for r in found] == expected, spec
        kept += len(found)
    assert len(checked) == kept
    assert [len(f) for f in fresh[:2]] == [23, 639]


def test_completed_node_is_decided_by_its_residuals():
    """With every column set, each pair's residual lhs - sum_m v_m c_m must
    vanish: a zero residual keeps the node with nothing left open and no
    column to fill, a nonzero one prunes it."""
    cols = ((1, 0), (0, 1))
    still_open, values = _narrow([((1, 2), (1, 2)), ((0, 0), (0, 0))], cols, ())
    assert still_open == [] and list(values) == [()]
    assert _narrow([((0, 1), (1, 0))], cols, ()) is None          # residual (-1, 1)
    assert _narrow([((1, 2), (1, 2)), ((0, 0), (0, 1))], cols, ()) is None


def test_forced_column_outside_the_grid_or_masked_is_pruned():
    """Column 0 is set to e0 and a pair (lhs, v) is decided at column 1:
    with v_1 != 0 it forces column 1 to (lhs - v_0 e0) / v_1, which must lie
    in the grid and be 0 where the mask pins it; with v_1 = 0 the residual
    must vanish."""
    coeffs = (-1, 0, 1)

    def values(lhs, v, axes=(coeffs, coeffs)):
        narrowed = _narrow([(lhs, v)], ((1, 0),), axes)
        return None if narrowed is None else list(narrowed[1])

    assert values((0, 1), (0, 1)) == [(0, 1)]
    assert values((-1, 2), (0, 2), ((Fraction(-1, 2), 1), coeffs)) == [(Fraction(-1, 2), 1)]
    assert values((2, 0), (0, 1)) is None                       # 2 is off the grid
    assert values((1, 0), (0, 2)) is None                       # so is 1/2
    assert values((1, 0), (0, 1)) == [(1, 0)]
    assert values((1, 0), (0, 1), ((0,), coeffs)) is None       # row 0 is masked
    assert values((0, 1), (1, 0)) is None                       # residual (-1, 1)
    assert len(values((1, 0), (1, 0))) == 9                     # residual 0: closed
    assert _narrow([((1, 0), (1, 0))], ((1, 0),), (coeffs, coeffs))[0] == []
    # v reaches column 2 as well: the pair stays open and column 1 is free
    still_open, free = _narrow([((0, 0, 1), (0, 0, 1))], ((1, 0, 0),), (coeffs,) * 3)
    assert still_open == [((0, 0, 1), (0, 0, 1))] and len(list(free)) == 27


def test_spec_normalises_coefficients():
    spec = SearchSpec(aff1(), (Fraction(1), 1, Fraction(2, 2), Fraction(-1, 2), 0, Fraction(0)))
    assert spec.coeffs == (Fraction(-1, 2), 0, 1)
    assert [type(c) for c in spec.coeffs] == [Fraction, int, int]
    assert spec.candidate_count() == 3 ** 4


def test_mutate_zero_delta_is_identity():
    rba = aff1_rb_shift()
    assert mutate(rba, ("bracket", 1, 0, 1), 0) == rba
    assert mutate(rba, ("r", 0, 0), 0) == rba


def test_mutate_adjusts_skew_partner():
    alg = aff1()
    out = mutate(alg, ("bracket", 0, 0, 1), Fraction(1, 2))
    assert out.bracket.on_basis(0, 1) == vec(Fraction(1, 2), 1)
    assert out.bracket.on_basis(1, 0) == vec(Fraction(-1, 2), -1)


def test_mutate_reads_the_flag_from_the_kinds_table():
    """The action l2_01 has no skew flag in the kinds table, so mutating the
    in-memory adjoint structure moves one entry, as mutating its document
    does."""
    from rblie.catalog import adjoint_two_term
    obj = adjoint_two_term(aff1())
    out = mutate(obj, ("l2_01", 1, 0, 1), 1)
    assert out.l2_01.cells() == {(1, 0, 1): 2, (1, 1, 0): -1}
    assert out == mutate(loads(dumps(obj)), ("l2_01", 1, 0, 1), 1)


def test_mutate_rejects_skew_diagonal():
    with pytest.raises(BadSite):
        mutate(aff1(), ("bracket", 0, 0, 0), 1)


def test_mutate_rejects_unknown_tensor_and_bad_indices():
    with pytest.raises(BadSite):
        mutate(aff1(), ("nonsense", 0, 0, 0), 1)
    with pytest.raises(BadSite):
        mutate(aff1(), ("bracket", 5, 0, 1), 1)


def test_mutate_alternating_propagates_signs():
    from rblie.catalog import sl2_cocycle_rb
    G = sl2_cocycle_rb(0)
    out = mutate(G, ("l3", 0, 0, 1, 2), 1)
    l3 = out.linf.l3
    assert l3.on_basis(0, 1, 2) == vec(3)    # cocycle value 2 plus the delta
    assert l3.on_basis(1, 0, 2) == vec(-3)   # mirrored with the swap sign
    assert l3.on_basis(0, 0, 2) == vec(0)


@settings(max_examples=30)
@given(st.sampled_from([(k, i, j) for k in range(2) for i in range(2)
                        for j in range(2) if i != j]),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_mutate_then_reverse_restores(site, delta):
    rba = aff1_rb_shift()
    there = mutate(rba, ("bracket",) + site, delta)
    back = mutate(there, ("bracket",) + site, -delta)
    assert back == rba


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=1),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_mutated_operator_report_is_consistent_with_recheck(r, c, delta):
    """The verifier on a mutant agrees with a from-scratch evaluation of the
    defining identity; accidental validity is certified, not assumed."""
    mutant = mutate(aff1_rb_shift(), ("r", r, c), delta)
    report = run_checks(rb_checks(mutant))
    alg = mutant.base
    manual_bad = []
    from rblie.tensors import vadd, vbasis
    for i in range(2):
        for j in range(i + 1, 2):
            lhs = alg.bracket_vec(mutant.r.column(i), mutant.r.column(j))
            rhs = mutant.r.apply(vadd(
                alg.bracket_vec(mutant.r.column(i), vbasis(2, j)),
                alg.bracket_vec(vbasis(2, i), mutant.r.column(j))))
            if lhs != rhs:
                manual_bad.append((i, j))
    assert [v.indices for v in report.violations] == manual_bad
