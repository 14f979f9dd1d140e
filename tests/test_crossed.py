import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import closed_form_derived
from rblie.catalog import CROSSED_MODULES, RB_ALGEBRAS, derived_rb_crossed
from rblie.crossed import (LieCrossedModule, PreLieCrossedModule, RBLieCrossedModule,
                           crossed_semidirect, crossed_to_strict, crossed_to_strict_data,
                           derived_crossed, prelie_crossed_checks,
                           prelie_crossed_to_lie_crossed, rb_crossed_checks,
                           rb_crossed_to_prelie_crossed, strict_to_crossed,
                           strict_to_crossed_data)
from rblie.cli import verify_structure
from rblie.errors import NotStrict
from rblie.liealg import (LieAlgebra, PreLieAlgebra, RotaBaxterLieAlgebra, act_on,
                          action_hom_residual, action_rb_residual, chain_residual,
                          hom_residual, rb_checks)
from rblie.report import run_checks
from rblie.search import mutate
from rblie.tensors import BilinearMap, LinearMap, from_cells, vneg, vsub
from rblie.twoterm import LInfinityHom, hom_checks, rb_triple_checks, two_term_checks


def test_catalog_crossed_modules_valid():
    for name, cm in CROSSED_MODULES.items():
        assert verify_structure(cm).ok, name


def test_trivial_crossed_module_valid():
    assert verify_structure(CROSSED_MODULES["trivial-cm"]).ok


def test_action_mutation_flags_peiffer_or_derivation_axioms():
    cm = CROSSED_MODULES["heis3-center-cm"]
    mutant = mutate(cm, ("rho", 0, 0, 0), 1)
    report = verify_structure(mutant)
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
        report = run_checks(rb_triple_checks(crossed_to_strict(cm)))
        assert report.ok, name


def test_crossed_semidirect_valid_and_block_restriction():
    for name, cm in CROSSED_MODULES.items():
        out = crossed_semidirect(cm)
        n0, n1 = cm.base.g0.dim, cm.base.g1.dim
        assert out.dim == n0 + n1
        assert verify_structure(out).ok
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
        assert verify_structure(pm).ok, name
        via_prelie = prelie_crossed_to_lie_crossed(pm)
        derived = derived_crossed(cm)
        assert via_prelie == derived == closed_form_derived(cm), name
        assert verify_structure(derived).ok, name


@pytest.mark.parametrize("site, line", [(("t0", 0, 0), "VIOLATION g0-rota-baxter (0,1) (0,0,-1)"),
                                        (("t1", 0, 0), "VIOLATION d-rb (0) (0,0,1)")],
                         ids=["t0", "t1"])
def test_derived_crossed_certifies_only_its_output(site, line):
    """On these unverified mutants the derived crossed module is still a
    crossed module; the fault is the input's own, reported by its verifier
    (negated, or equal, to what a homomorphism check back to the input would
    print: t0-hom (0,1) (0,0,1), square (0) (0,0,1))."""
    mutant = mutate(CROSSED_MODULES["heis3-center-cm"], site, 1)
    out = derived_crossed(mutant)
    assert out == closed_form_derived(mutant)
    assert verify_structure(out).ok
    assert verify_structure(mutant).lines() == [line]


def random_operator(rng, n):
    return from_cells((n, n), {(r, c): rng.choice((-1, 1))
                               for r in range(n) for c in range(n) if rng.random() < 0.4})


def residuals(checks):
    return {(cond, idx): fn() for cond, idx, fn in checks}


def test_operators_map_the_derived_module_back_exactly_by_the_inputs_own_identities():
    """That (T0, T1) maps the derived crossed module back to `cm` is, at
    every index, one of `cm`'s own residuals: T0 on the brackets is
    -g0-rota-baxter, T1 is -g1-rota-baxter, the boundary square is d-rb
    and the action compatibility is minus one column of action-rb.  The
    strict homomorphism of these maps (the `descent-*` documents) has
    chain = d-rb, h1 = g0-rota-baxter, h2 = that column of action-rb.  For
    an operator algebra, R on the derived bracket is -rota-baxter.  Checked
    on seeded random unverified operators, with the derived structure from
    `closed_form_derived`."""
    rng = random.Random(20)
    nonzero = Counter()
    for cm in CROSSED_MODULES.values():
        base = cm.base
        n0, n1 = base.g0.dim, base.g1.dim
        for _ in range(15):
            t0, t1 = random_operator(rng, n0), random_operator(rng, n1)
            mutant = RBLieCrossedModule(base, t0, t1)
            out = closed_form_derived(mutant)
            own = residuals(rb_crossed_checks(mutant))
            descent = residuals(hom_checks(LInfinityHom(
                crossed_to_strict_data(RBLieCrossedModule(out, t0, t1)).linf,
                crossed_to_strict_data(mutant).linf, t0, t1,
                BilinearMap.zero(n0, n0, n1, skew=True))))
            for i, j in combinations(range(n0), 2):
                t0_hom = hom_residual(t0, out.g0.bracket, base.g0.bracket, i, j)
                assert t0_hom == vneg(own["g0-rota-baxter", (i, j)]), (i, j)
                assert descent["h1", (i, j)] == own["g0-rota-baxter", (i, j)], (i, j)
                nonzero["t0-hom"] += any(t0_hom)
            for a, b in combinations(range(n1), 2):
                t1_hom = hom_residual(t1, out.g1.bracket, base.g1.bracket, a, b)
                assert t1_hom == vneg(own["g1-rota-baxter", (a, b)]), (a, b)
                nonzero["t1-hom"] += any(t1_hom)
            for a in range(n1):
                square = chain_residual(t1, t0, base.d, base.d, a)
                assert square == own["d-rb", (a,)] == descent["chain", (a,)], a
                nonzero["square"] += any(square)
            for i in range(n0):
                rb = own["action-rb", (i,)]
                for a in range(n1):
                    compat = vsub(t1(out.rho[i](a)), act_on(base.rho, t0(i), t1(a), n1))
                    column = tuple(rb[r * n1 + a] for r in range(n1))
                    assert compat == vneg(column) == vneg(descent["h2", (i, a)]), (i, a)
                    nonzero["action-compat"] += any(compat)
    for rba in RB_ALGEBRAS.values():
        g, n = rba.base, rba.dim
        for _ in range(15):
            r = random_operator(rng, n)
            zero_top = LieCrossedModule(g, LieAlgebra.abelian(0), LinearMap.zero(n, 0),
                                        (LinearMap.zero(0, 0),) * n)
            derived = closed_form_derived(RBLieCrossedModule(zero_top, r, LinearMap.zero(0, 0)))
            own = residuals(rb_checks(RotaBaxterLieAlgebra(g, r)))
            for i, j in combinations(range(n), 2):
                r_hom = hom_residual(r, derived.g0.bracket, g.bracket, i, j)
                assert r_hom == vneg(own["rota-baxter", (i, j)]), (i, j)
                nonzero["derived-bracket"] += any(r_hom)
    assert set(nonzero) == {"t0-hom", "t1-hom", "square", "action-compat",
                            "derived-bracket"}
    assert min(nonzero.values()) > 0, nonzero


def test_zero_operators_give_zero_prelie_data():
    pm = rb_crossed_to_prelie_crossed(CROSSED_MODULES["aff1-ideal-cm-zero"])
    assert pm.p0.mult.is_zero() and pm.p1.mult.is_zero()
    assert all(m.is_zero() for m in pm.l_act + pm.r_act)


def test_operator_mutation_breaks_prelie_representation():
    from rblie.crossed import rb_crossed_to_prelie_crossed_data
    cm = CROSSED_MODULES["sl2-adjoint-cm-tri"]
    mutant = mutate(cm, ("t1", 0, 0), 1)
    assert "action-rb" in verify_structure(mutant).conditions()
    pm = rb_crossed_to_prelie_crossed_data(mutant)
    assert "lr-rep" in verify_structure(pm).conditions()


def test_derived_iterates():
    cm = CROSSED_MODULES["sl2-adjoint-cm-tri"]
    once = derived_rb_crossed(cm)
    twice = derived_rb_crossed(once)
    assert verify_structure(once).ok and verify_structure(twice).ok


def test_strict_validity_iff_crossed_validity_on_mutants():
    """Strict-shaped mutants are rejected on both sides of the
    correspondence."""
    G = crossed_to_strict(CROSSED_MODULES["sl2-adjoint-cm-tri"])
    sites = [("l2_00", 0, 0, 1), ("l2_01", 0, 0, 1), ("l1", 0, 1),
             ("r0", 0, 1), ("r1", 0, 1)]
    for site in sites:
        mutant = mutate(G, site, 1)
        strict_report = run_checks(two_term_checks(mutant.linf) + rb_triple_checks(mutant))
        crossed_report = verify_structure(strict_to_crossed_data(mutant))
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
