import pytest
from hypothesis import given, strategies as st

from conftest import closed_form_derived
from rblie.catalog import CROSSED_MODULES, derived_rb_crossed
from rblie.crossed import (PreLieCrossedModule, crossed_semidirect, crossed_to_strict,
                           crossed_to_strict_data, derived_crossed,
                           prelie_crossed_checks, prelie_crossed_to_lie_crossed,
                           rb_crossed_to_prelie_crossed, strict_to_crossed,
                           strict_to_crossed_data, verify_crossed)
from rblie.errors import InternalInvariantBroken, NotStrict
from rblie.liealg import (PreLieAlgebra, act_on, action_hom_residual,
                          action_rb_residual, verify_lie, verify_rb)
from rblie.search import mutate
from rblie.tensors import from_cells
from rblie.twoterm import verify_rb_2term, verify_rb_triple


def test_catalog_crossed_modules_valid():
    for name, cm in CROSSED_MODULES.items():
        assert verify_crossed(cm).ok, name


def test_trivial_crossed_module_valid():
    assert verify_crossed(CROSSED_MODULES["trivial-cm"]).ok


def test_action_mutation_flags_peiffer_or_derivation_axioms():
    cm = CROSSED_MODULES["heis3-center-cm"]
    mutant = mutate(cm, ("rho", 0, 0, 0), 1)
    report = verify_crossed(mutant)
    assert not report.ok
    assert report.conditions() <= {"peiffer1", "peiffer2", "action-hom",
                                   "action-der", "action-rb"}
    assert "peiffer1" in report.conditions()


def test_strict_to_crossed_requires_strict():
    from rblie.catalog import sl2_cocycle_rb
    with pytest.raises(NotStrict):
        strict_to_crossed(sl2_cocycle_rb(0))  # nonzero homotopy


def test_strict_crossed_roundtrip_identity():
    for name, cm in CROSSED_MODULES.items():
        G = crossed_to_strict(cm)
        back = strict_to_crossed(G)
        assert back == cm, name
        assert crossed_to_strict(back) == G, name


def test_crossed_to_strict_passes_all_operator_conditions():
    for name, cm in CROSSED_MODULES.items():
        report = verify_rb_triple(crossed_to_strict(cm))
        assert report.ok, name


def test_crossed_semidirect_valid_and_block_restriction():
    for name, cm in CROSSED_MODULES.items():
        out = crossed_semidirect(cm)
        n0, n1 = cm.base.g0.dim, cm.base.g1.dim
        assert out.dim == n0 + n1
        assert verify_lie(out.base).ok and verify_rb(out).ok
        for i in range(n0):
            for j in range(n0):
                assert out.base.bracket.on_basis(i, j)[:n0] == \
                    cm.base.g0.bracket.on_basis(i, j)
            assert out.r.column(i)[:n0] == cm.t0.column(i)
        for a in range(n1):
            for b in range(n1):
                assert out.base.bracket.on_basis(n0 + a, n0 + b)[n0:] == \
                    cm.base.g1.bracket.on_basis(a, b)
            assert out.r.column(n0 + a)[n0:] == cm.t1.column(a)


def test_prelie_chain_matches_derived_construction():
    for name, cm in CROSSED_MODULES.items():
        pm = rb_crossed_to_prelie_crossed(cm)
        assert verify_crossed(pm).ok, name
        via_prelie = prelie_crossed_to_lie_crossed(pm)
        derived = derived_crossed(cm)
        assert via_prelie == derived == closed_form_derived(cm), name
        assert verify_crossed(derived).ok, name


@pytest.mark.parametrize("site, condition", [(("t0", 0, 0), "t0-hom"),
                                             (("t1", 0, 0), "square")])
def test_derived_crossed_raises_when_its_certificate_fails(site, condition):
    """The composite of these unverified mutants is still a crossed module;
    the operators fail only as a homomorphism back to the original."""
    mutant = mutate(CROSSED_MODULES["heis3-center-cm"], site, 1)
    with pytest.raises(InternalInvariantBroken, match=f"VIOLATION {condition} "):
        derived_crossed(mutant)


def test_zero_operators_give_zero_prelie_data():
    pm = rb_crossed_to_prelie_crossed(CROSSED_MODULES["aff1-ideal-cm-zero"])
    assert pm.p0.mult.is_zero() and pm.p1.mult.is_zero()
    assert all(m.is_zero() for m in pm.l_act + pm.r_act)


def test_operator_mutation_breaks_prelie_representation():
    from rblie.crossed import rb_crossed_to_prelie_crossed_data
    cm = CROSSED_MODULES["sl2-adjoint-cm-tri"]
    mutant = mutate(cm, ("t1", 0, 0), 1)
    assert "action-rb" in verify_crossed(mutant).conditions()
    pm = rb_crossed_to_prelie_crossed_data(mutant)
    assert "lr-rep" in verify_crossed(pm).conditions()


def test_derived_iterates():
    cm = CROSSED_MODULES["sl2-adjoint-cm-tri"]
    once = derived_rb_crossed(cm)
    twice = derived_rb_crossed(once)
    assert verify_crossed(once).ok and verify_crossed(twice).ok


def test_strict_validity_iff_crossed_validity_on_mutants():
    """Strict-shaped mutants are rejected on both sides of the
    correspondence."""
    G = crossed_to_strict(CROSSED_MODULES["sl2-adjoint-cm-tri"])
    sites = [("l2_00", 0, 0, 1), ("l2_01", 0, 0, 1), ("l1", 0, 1),
             ("r0", 0, 1), ("r1", 0, 1)]
    for site in sites:
        mutant = mutate(G, site, 1)
        strict_report = verify_rb_2term(mutant)
        crossed_report = verify_crossed(strict_to_crossed_data(mutant))
        assert not strict_report.ok, site
        assert not crossed_report.ok, site


def test_strict_data_maps_are_mutually_inverse_on_valid_corpus():
    for name, cm in CROSSED_MODULES.items():
        G = crossed_to_strict_data(cm)
        assert strict_to_crossed_data(G) == cm, name


def mat_mul(a, b):
    """Product of two square nested-list matrices of one size."""
    m = len(a)
    return [[sum(a[r][t] * b[t][c] for t in range(m)) for c in range(m)] for r in range(m)]


def mat_comb(terms, m):
    """The sum of c A over the (c, A) in `terms`, as an m x m nested list."""
    return [[sum(c * a[r][col] for c, a in terms) for col in range(m)] for r in range(m)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_flat(a):
    return tuple(x for row in a for x in row)


@given(st.data())
def test_action_residuals_match_dense_matrix_products(data):
    """`act_on`, `action_hom_residual`, `action_rb_residual` and every
    `lr-rep` residual of a drawn pre-Lie crossed module equal the same
    formulas computed here with nested-list matrix products over the dense
    `entries`, on rational actions of an algebra of dimension 0 to 3 on a
    module of dimension 0 to 3."""
    coeff = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)
    n, m = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))

    def draw_map(*shape):
        cells = data.draw(st.dictionaries(st.tuples(*(st.integers(0, d - 1) for d in shape)),
                                          coeff, max_size=6)) if all(shape) else {}
        return from_cells(shape, cells)

    def draw_action():
        return tuple(draw_map(m, m) for _ in range(n))

    def act(rho, x):  # the matrix of rho(x) for a vector x
        return mat_comb([(c, a.entries) for c, a in zip(x, rho)], m)

    rho, r, k = draw_action(), draw_map(n, n), draw_map(m, m)
    x = data.draw(st.tuples(*[coeff] * n))
    u = data.draw(st.tuples(*[coeff] * m))
    for arg in [*range(n), x]:
        a = rho[arg].entries if type(arg) is int else act(rho, arg)
        for w in [*range(m), u]:
            col = [int(c == w) for c in range(m)] if type(w) is int else w
            assert act_on(rho, arg, w, m) == tuple(
                sum(a[row][c] * col[c] for c in range(m)) for row in range(m))
    kk = k.entries
    for i in range(n):
        ri = rho[i].entries
        rx = act(rho, [r.entries[row][i] for row in range(n)])
        assert action_rb_residual(rho, r, k, i) == mat_flat(mat_sub(
            mat_sub(mat_mul(rx, kk), mat_mul(kk, rx)), mat_mul(mat_mul(kk, ri), kk)))
        for j in range(n):
            rj = rho[j].entries
            assert action_hom_residual(rho, x, i, j) == mat_flat(mat_sub(
                act(rho, x), mat_sub(mat_mul(ri, rj), mat_mul(rj, ri))))

    mult = draw_map(n, n, n)
    pm = PreLieCrossedModule(PreLieAlgebra(n, mult), PreLieAlgebra(m, draw_map(m, m, m)),
                             draw_map(n, m), draw_action(), draw_action())
    lr = {idx: fn() for cond, idx, fn in prelie_crossed_checks(pm) if cond == "lr-rep"}
    assert sorted(lr) == [(i, j) for i in range(n) for j in range(n)]
    for (i, j), got in lr.items():
        li, ri, rj = pm.l_act[i].entries, pm.r_act[i].entries, pm.r_act[j].entries
        xy = [mult.coeffs[out][i][j] for out in range(n)]
        assert got == mat_flat(mat_sub(mat_sub(mat_mul(li, rj), mat_mul(rj, li)),
                                       mat_sub(act(pm.r_act, xy), mat_mul(rj, ri))))
