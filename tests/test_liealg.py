import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from rblie.catalog import (LIE_ALGEBRAS, RB_ALGEBRAS, TWO_TERM_STRUCTURES, aff1,
                           aff1_rb_shift, sl2_rb_zero)
from rblie import liealg
from rblie.cli import verify_structure
from rblie.errors import InternalInvariantBroken
from rblie.liealg import (LieAlgebra, RBRepresentation, RotaBaxterLieAlgebra,
                          adjoint_representation, coadjoint_representation,
                          derived_bracket, dual_representation, lie_checks,
                          prelie_from_rb, rb_checks, representation_checks,
                          semidirect_product, subadjacent_lie)
from rblie.report import run_checks
from rblie.tensors import BilinearMap, LinearMap, TrilinearMap, from_cells, vbasis, vec

small = st.integers(min_value=-3, max_value=3)


def test_catalog_lie_algebras_valid():
    for name, alg in LIE_ALGEBRAS.items():
        assert verify_structure(alg).ok, name


def test_call_agrees_with_apply_on_every_mix_of_indices_and_vectors():
    """Calling a map takes the stored image, a partial map or `apply`
    according to which arguments are basis indices, and zero for a map
    with no cells (`l3` and `R2` of the strict aff1 structure, and an empty
    map of each arity); each gives apply's value with the indices as basis
    vectors."""
    rng = random.Random(11)
    maps = [(name, t) for name in ("sl2-cocycle-rb2-nonstrict", "solv4-module-cocycle-rb2",
                                   "aff1-adjoint-rb2-shift")
            for G in [TWO_TERM_STRUCTURES[name]]
            for t in (G.linf.l1, G.linf.l2_00, G.linf.l2_01, G.linf.l3, G.r2)]
    maps += [("empty", LinearMap.zero(2, 3)), ("empty", BilinearMap.zero(2, 3, 2)),
             ("empty", TrilinearMap.zero(3, 2))]
    for name, t in maps:
        dims = t.shape[1:]
        for idx in product(*map(range, dims)):
            for as_vector in product((False, True), repeat=len(dims)):
                args = [vec(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(n))) if v else i
                        for i, n, v in zip(idx, dims, as_vector)]
                expect = t.apply(*(vbasis(n, a) if type(a) is int else a
                                   for a, n in zip(args, dims)))
                assert t(*args) == expect, (name, idx, as_vector)


def test_abelian_valid():
    assert verify_structure(LieAlgebra.abelian(3)).ok


def test_non_skew_bracket_flagged_at_pair():
    # [e0,e1] = e0+e1 but [e1,e0] = e1: not skew
    bad = LieAlgebra(2, BilinearMap.from_map(
        2, 2, 2, {(0, 1): vec(1, 1), (1, 0): vec(0, 1)}))
    report = verify_structure(bad)
    assert report.at("skew", (0, 1)) is not None
    assert report.at("skew", (0, 1)).residual == vec(1, 2)


def test_jacobi_violation_localized():
    # [e0,e1] = e2 and [e0,e2] = e0 leave J(e0,e1,e2) = e2
    bad = LieAlgebra.from_brackets(3, {(0, 1): vec(0, 0, 1),
                                       (0, 2): vec(1, 0, 0)})
    report = verify_structure(bad)
    assert report.conditions() == {"jacobi"}
    assert report.at("jacobi", (0, 1, 2)).residual == vec(0, 0, 1)


def test_rb_zero_operator_always_valid():
    for alg in LIE_ALGEBRAS.values():
        rba = RotaBaxterLieAlgebra(alg, LinearMap.zero(alg.dim, alg.dim))
        assert run_checks(rb_checks(rba)).ok


def test_rb_shift_operator_valid():
    assert run_checks(rb_checks(aff1_rb_shift())).ok


def test_rb_identity_operator_invalid_with_residual():
    rba = RotaBaxterLieAlgebra(aff1(), LinearMap.identity(2))
    report = run_checks(rb_checks(rba))
    v = report.at("rota-baxter", (0, 1))
    assert v is not None
    # [e0,e1] - R(2[e0,e1]) = e1 - 2 e1 = -e1
    assert v.residual == vec(0, -1)


def test_catalog_rb_algebras_valid():
    for name, rba in RB_ALGEBRAS.items():
        assert run_checks(rb_checks(rba)).ok, name


@given(st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2))
def test_every_operator_is_rb_on_abelian(rows):
    rba = RotaBaxterLieAlgebra(LieAlgebra.abelian(2), LinearMap.from_rows(rows))
    assert run_checks(rb_checks(rba)).ok


def test_prelie_from_rb_frozen_products():
    p = prelie_from_rb(aff1_rb_shift())
    # only e1 * e1 = e1 survives
    expected = {(i, j): vec(0, 0) for i in range(2) for j in range(2)}
    expected[(1, 1)] = vec(0, 1)
    for (i, j), want in expected.items():
        assert p.mult.on_basis(i, j) == want


def test_prelie_from_zero_operator_is_zero():
    rba = RotaBaxterLieAlgebra(aff1(), LinearMap.zero(2, 2))
    assert prelie_from_rb(rba).mult.is_zero()


def test_prelie_on_abelian_is_zero_for_any_operator():
    rba = RotaBaxterLieAlgebra(LieAlgebra.abelian(2),
                               LinearMap.from_rows([[1, 2], [3, 4]]))
    assert prelie_from_rb(rba).mult.is_zero()


def test_dual_of_zero_action_is_zero():
    rba = aff1_rb_shift()
    zero_rep = RBRepresentation(rba, 2, BilinearMap.zero(2, 2, 2), LinearMap.zero(2, 2))
    dual = dual_representation(zero_rep)
    assert dual.act.is_zero() and dual.cal_r.is_zero()


def test_prelie_from_rb_rejects_bad_operator():
    rba = RotaBaxterLieAlgebra(aff1(), LinearMap.identity(2))
    with pytest.raises(InternalInvariantBroken):
        prelie_from_rb(rba)


def test_subadjacent_of_shift_prelie_is_abelian():
    lie = subadjacent_lie(prelie_from_rb(aff1_rb_shift()))
    assert lie.bracket.is_zero()


def test_derived_bracket_equals_subadjacent_of_prelie(golden_operators):
    for rba in golden_operators:
        derived = derived_bracket(rba)
        via_prelie = subadjacent_lie(prelie_from_rb(rba))
        assert derived.bracket == via_prelie.bracket
        assert verify_structure(derived).ok


def test_derived_bracket_runs_exactly_the_lie_checks_of_its_output(monkeypatch):
    """`derived_bracket` verifies its output only: one `run_checks` call, on
    the `lie_checks` of the algebra it returns, and no `pre-lie` check of
    the operator product on the way.  So an operator that is not
    Rota-Baxter but whose derived bracket is a Lie bracket passes: the
    identity on aff1 gives 2 [x, y], where `prelie_from_rb` raises."""
    calls = []
    monkeypatch.setattr(liealg, "run_checks", lambda checks: calls.append(list(checks))
                        or run_checks(checks))
    identity = RotaBaxterLieAlgebra(aff1(), LinearMap.identity(2))
    for rba in (*RB_ALGEBRAS.values(), identity):
        calls.clear()
        out = derived_bracket(rba)
        assert [[(cond, idx, fn()) for cond, idx, fn in made] for made in calls] == [
            [(cond, idx, fn()) for cond, idx, fn in lie_checks(out)]]
    doubled = from_cells((2, 2, 2), {k: 2 * q for k, q in aff1().bracket.cells().items()})
    assert out.bracket.cells() == doubled.cells()


def test_adjoint_representation_valid():
    for rba in RB_ALGEBRAS.values():
        assert run_checks(representation_checks(adjoint_representation(rba))).ok


def test_coadjoint_representation_valid():
    for rba in RB_ALGEBRAS.values():
        assert run_checks(representation_checks(coadjoint_representation(rba))).ok


def test_dual_is_involution_on_data():
    for rba in RB_ALGEBRAS.values():
        rep = adjoint_representation(rba)
        assert dual_representation(dual_representation(rep)) == rep


def test_semidirect_trivial_representation_is_direct_sum():
    rba = aff1_rb_shift()
    rep_zero = adjoint_representation(rba)
    trivial = rep_zero.__class__(rba, 2, BilinearMap.zero(2, 2, 2), LinearMap.zero(2, 2))
    out = semidirect_product(trivial)
    assert out.dim == 4
    # cross-block brackets vanish
    for i in range(2):
        for b in range(2):
            assert out.base.bracket.on_basis(i, 2 + b) == vec(0, 0, 0, 0)


def test_semidirect_adjoint_aff1_valid():
    out = semidirect_product(adjoint_representation(aff1_rb_shift()))
    assert out.dim == 4
    assert verify_structure(out).ok


def test_semidirect_coadjoint_sl2_valid():
    out = semidirect_product(coadjoint_representation(sl2_rb_zero()))
    assert out.dim == 6
    assert verify_structure(out).ok


def test_semidirect_restricts_to_base():
    """The projection of g (+) V onto g is a homomorphism of operator
    algebras: proj [x+u, y+v] = [x, y] at every ordered basis pair, and
    proj R = R proj on every basis vector, for the adjoint, coadjoint and
    trivial representations of every catalog operator algebra."""
    for name, rba in RB_ALGEBRAS.items():
        n, zero = rba.dim, (0,) * rba.dim
        trivial = RBRepresentation(rba, n, BilinearMap.zero(n, n, n), rba.r)
        for rep in (adjoint_representation(rba), coadjoint_representation(rba), trivial):
            out = semidirect_product(rep)
            for p, q in product(range(out.dim), repeat=2):
                base = rba.base.bracket(p, q) if p < n and q < n else zero
                assert out.base.bracket(p, q)[:n] == base, (name, p, q)
            for p in range(out.dim):
                assert out.r(p)[:n] == (rba.r(p) if p < n else zero), (name, p)


def test_pre_lie_verifier_rejects_half_bracket():
    # half of a Lie bracket is generally not pre-Lie
    from rblie.catalog import sl2
    alg = sl2()
    halved = from_cells((3, 3, 3), {idx: c / 2 for idx, c in alg.bracket.cells().items()})
    from rblie.liealg import PreLieAlgebra
    assert not verify_structure(PreLieAlgebra(3, halved)).ok
