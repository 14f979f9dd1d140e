from fractions import Fraction
from itertools import product

import pytest

from conftest import CATALOG_DIR, descent_chain, hom_mutants, structure_mutants
from rblie.catalog import (CROSSED_MODULES, LIE_ALGEBRAS, TWO_TERM_STRUCTURES, aff1,
                           aff1_adjoint_completed, aff1_rb_shift, adjoint_rb_two_term,
                           adjoint_two_term, sl2_cocycle_rb)
from rblie.cli import verify_structure
from rblie.crossed import crossed_to_strict
from rblie import twoterm
from rblie.errors import InternalInvariantBroken, NotChainMap, SourceTargetMismatch
from rblie.report import family, grid, run_checks
from rblie.search import SearchSpec, enumerate_rb_operators, mutate
from rblie.serialize import dumps, load, loads
from rblie.tensors import BilinearMap, LinearMap, TrilinearMap, parity, vec, vzero
from rblie.twoterm import (CompletionFailure, LInfinityHom, RBLInfinityHom,
                           TwoTermLInfinity, TwoTermRBLInfinity,
                           complete_rb_triple, compose_rb_homs,
                           hom_checks, identity_rb_hom, rb_hom, rb_hom_checks,
                           rb_triple_checks, two_term, two_term_checks, with_operators)
from rblie.value import replace


@pytest.mark.parametrize("arity", [3, 4])
def test_repeated_index_family_is_the_parity_zero_tuples(arity):
    """The zero family of an alternating `ordered_checks` makes exactly the
    tuples of `product` at parity 0, in its order, and counts them."""
    for n in range(7):
        checks = twoterm.ordered_checks("x", n, arity, lambda *idx: vzero(1), 1, ())
        (_, _, orderings, distinct), (_, _, repeated, count) = checks.families
        want = [idx for idx in product(range(n), repeat=arity) if not parity(idx)]
        assert list(repeated()) == want and count == len(want)
        assert len(list(orderings())) == distinct == n ** arity - count


@pytest.mark.parametrize("d0, d1", product(range(4), range(4)))
def test_constructors_default_to_the_zero_maps_of_the_document_fields(d0, d1):
    """A map left out of `two_term`, `with_operators` or `rb_hom` is the
    zero map, skew or alternating as its document field is; each result
    round-trips through its document."""
    L = two_term(d0, d1)
    assert L == TwoTermLInfinity(d0, d1, LinearMap.zero(d0, d1),
                                 BilinearMap.zero(d0, d0, d0, skew=True),
                                 BilinearMap.zero(d0, d1, d1),
                                 TrilinearMap.zero(d0, d1, alt=True))
    G = with_operators(L)
    assert G == TwoTermRBLInfinity(L, LinearMap.zero(d0, d0), LinearMap.zero(d1, d1),
                                   BilinearMap.zero(d0, d0, d1, skew=True))
    H = with_operators(two_term(d1, d0))  # a target of other dimensions
    F = rb_hom(G, H)
    phis = (LinearMap.zero(d1, d0), LinearMap.zero(d0, d1), BilinearMap.zero(d0, d0, d0, skew=True))
    assert F == RBLInfinityHom(G, H, *phis, LinearMap.zero(d0, d0))
    assert F.hom == LInfinityHom(L, H.linf, *phis)
    assert ([L.l2_00.skew, L.l2_01.skew, L.l3.alt, G.r2.skew, F.phi2.skew]
            == [True, False, True, True, True])
    for obj in (L, G, F):
        assert loads(dumps(obj)) == obj


def test_rb_hom_builds_its_homomorphism_once_from_its_own_fields():
    """An operator homomorphism stores its endpoints and maps once; `hom`
    is built from them on first read and kept, and dumps and loads as a
    `hom` document."""
    homs = [obj for obj in map(load, sorted(CATALOG_DIR.glob("*.json")))
            if isinstance(obj, RBLInfinityHom)]
    assert len(homs) == 9
    for F in homs:
        assert not any(isinstance(getattr(F, name), LInfinityHom) for name in F._fields)
        assert F.hom is F.hom and loads(dumps(F.hom)) == F.hom
        assert F.hom == LInfinityHom(F.source.linf, F.target.linf, F.phi0, F.phi1, F.phi2)


def test_lie_algebra_with_empty_top_term_is_valid():
    from rblie.catalog import sl2
    assert verify_structure(two_term(2, 0, l2_00=aff1().bracket)).ok
    assert verify_structure(two_term(3, 0, l2_00=sl2().bracket)).ok


def test_adjoint_complex_valid():
    assert verify_structure(adjoint_two_term(aff1())).ok


def test_catalog_two_term_structures_valid():
    for name, G in TWO_TERM_STRUCTURES.items():
        assert verify_structure(G.linf).ok, name
        assert run_checks(rb_triple_checks(G)).ok, name


def test_perturbed_homotopy_violates_condition_b():
    G = adjoint_rb_two_term(aff1_rb_shift())
    from rblie.catalog import sl2_rb_zero
    H = adjoint_rb_two_term(sl2_rb_zero())  # dim0 = 3 so l3 sites exist
    mutant = mutate(H, ("l3", 0, 0, 1, 2), 1)
    report = verify_structure(mutant.linf)
    assert "b" in report.conditions()


def test_zero_triple_valid_on_any_valid_structure():
    G = with_operators(adjoint_two_term(aff1()))
    assert run_checks(rb_triple_checks(G)).ok


def test_r2_mutation_caught():
    G = TWO_TERM_STRUCTURES["aff1-adjoint-rb2-shift"]
    mutant = mutate(G, ("r2", 0, 0, 1), 1)
    report = run_checks(rb_triple_checks(mutant))
    assert not report.ok
    assert {"rb1", "rb2", "rb3"} & report.conditions()


def test_structure_mutants_hit_exactly_one_condition():
    for condition, mutant in structure_mutants():
        report = run_checks(two_term_checks(mutant.linf) + rb_triple_checks(mutant))
        assert report.conditions() == {condition}, condition


def test_hom_mutants_hit_exactly_one_condition():
    for condition, mutant in hom_mutants():
        report = run_checks(hom_checks(mutant.hom) + rb_hom_checks(mutant))
        assert report.conditions() == {condition}, condition


def test_complete_rb_triple_recovers_zero_corrector():
    cm = CROSSED_MODULES["heis3-center-cm"]
    G = crossed_to_strict(cm)
    triple = complete_rb_triple(G.linf, cm.t0, cm.t1)
    assert not isinstance(triple, CompletionFailure)
    assert triple.r2.is_zero()


def test_complete_rb_triple_unsolvable_when_differential_vanishes():
    # zero differential leaves nothing to absorb the defect of a bad operator
    L = two_term(2, 1, l2_00=aff1().bracket)
    bad = LinearMap.identity(2)
    res = complete_rb_triple(L, bad, LinearMap.zero(1, 1))
    assert isinstance(res, CompletionFailure)
    assert res.stage == "condition-1"
    assert res.pair == (0, 1)


def test_complete_rb_triple_on_adjoint_complex():
    # identity differential forces R2 to be the operator defect; with an
    # exact operator the completion is the zero corrector
    G = adjoint_rb_two_term(aff1_rb_shift())
    triple = complete_rb_triple(G.linf, G.r0, G.r1)
    assert not isinstance(triple, CompletionFailure)
    assert triple.r2.is_zero()
    # a non-exact operator on the adjoint complex: solvable but then
    # rejected (or accepted) by the remaining conditions; record which
    bad = LinearMap.from_rows([[0, 0], [1, 0]])
    res = complete_rb_triple(G.linf, bad, bad)
    if isinstance(res, CompletionFailure):
        assert res.stage == "conditions-2-3"
        assert res.report is not None and not res.report.ok
    else:
        assert res.linf == G.linf and run_checks(rb_triple_checks(res)).ok


def test_complete_rb_triple_is_exact_on_integer_input():
    """The catalog's integer operator on the adjoint complex of aff1, with
    the differential tripled: the solver divides by the pivot 3, and R2
    comes back as exact thirds (a float would be stored as a nearby dyadic
    rational, not 1/3)."""
    G = aff1_adjoint_completed()
    L = replace(G.linf, l1=LinearMap.from_rows([[3, 0], [0, 3]]))
    assert verify_structure(L).ok
    triple = complete_rb_triple(L, G.r0, G.r1)
    assert not isinstance(triple, CompletionFailure)
    assert triple.r2.on_basis(0, 1) == (Fraction(2, 3), Fraction(1, 3))
    for m in (triple.r0, triple.r1, triple.r2):
        assert all(type(x) in (int, Fraction) for x in m.cells().values())


def test_complete_rb_triple_requires_chain_map():
    G = adjoint_rb_two_term(aff1_rb_shift())
    with pytest.raises(NotChainMap):
        complete_rb_triple(G.linf, G.r0, LinearMap.zero(2, 2))


def test_zero_pinned_completion_finds_every_sl2_operator_pair():
    """`complete_rb_triple` pins the free coordinates of R2 to zero, so it
    could miss a triple that only a nonzero free part completes.  On the
    skeletal sl2 structure l1 = 0, so with a Rota-Baxter R0 every R2
    satisfies the first condition and the solve returns R2 = 0.  For each
    of the 23 Rota-Baxter operators of sl2 over {-1,0,1} as R0 and each R1
    in {-1, 0, 1, 2}, the completion succeeds and the structure it returns
    passes its whole verifier (188 checks each): zero-pinning loses no pair
    there."""
    L = load(CATALOG_DIR / "sl2-cocycle-rb2.json").linf
    operators = [rba.r for rba in enumerate_rb_operators(SearchSpec(LIE_ALGEBRAS["sl2"]))]
    assert len(operators) == 23
    checked = 0
    for r0, r1 in product(operators, (-1, 0, 1, 2)):
        G = complete_rb_triple(L, r0, LinearMap.from_rows([[r1]]))
        assert not isinstance(G, CompletionFailure), (r0, r1)
        assert G.linf == L and G.r0 == r0 and G.r2.is_zero()
        report = verify_structure(G)
        assert report.ok, (r0, r1)
        checked += report.checked
    assert checked == 92 * 188


def test_completion_reproduces_catalog_nonstrict_instance():
    """The catalog's completed adjoint instance is exactly what the solver
    returns for its (non-exact) degree-zero operator, and its cyclic
    condition carries live cancellations."""
    from itertools import product
    from rblie.catalog import aff1_adjoint_completed
    from rblie.tensors import is_zero, vadd, vbasis, vneg, vsub
    G = aff1_adjoint_completed()
    solved = complete_rb_triple(G.linf, G.r0, G.r1)
    assert not isinstance(solved, CompletionFailure)
    assert solved == G
    assert G.r2.on_basis(0, 1) == vec(2, 1)

    def grouped(x1, x2, x3):
        t1 = G.linf.l2_01.apply(G.r0.apply(x1), G.r2.apply(x2, x3))
        t2 = G.r2.apply(x3, vsub(G.linf.l2_00.apply(G.r0.apply(x1), x2),
                                    G.linf.l2_00.apply(G.r0.apply(x2), x1)))
        t3 = G.r1.apply(vneg(G.linf.l2_01.apply(x1, G.r2.apply(x2, x3))))
        return [t1, t2, t3]

    live = 0
    for i, j, k in product(range(2), repeat=3):
        xs = (vbasis(2, i), vbasis(2, j), vbasis(2, k))
        terms = (grouped(*xs) + grouped(xs[1], xs[2], xs[0])
                 + grouped(xs[2], xs[0], xs[1]))
        live = max(live, sum(1 for t in terms if not is_zero(t)))
    assert live >= 6
    assert run_checks(two_term_checks(G.linf) + rb_triple_checks(G)).ok


def test_identity_hom_valid():
    for name, G in TWO_TERM_STRUCTURES.items():
        f = identity_rb_hom(G)
        assert run_checks(hom_checks(f.hom) + rb_hom_checks(f)).ok, name


def test_zero_hom_into_zero_structure_valid():
    src = two_term(2, 1, l2_00=aff1().bracket,
                    l2_01=BilinearMap.from_map(2, 1, 1, {(0, 0): vec(1)}))
    tgt = two_term(0, 0)
    f = LInfinityHom(src, tgt, LinearMap.zero(0, 2), LinearMap.zero(0, 1),
                     BilinearMap.zero(2, 2, 0, skew=True))
    assert run_checks(hom_checks(f)).ok


def test_identity_maps_between_different_brackets_fail_h1():
    from rblie.catalog import sl2, heisenberg3
    src, tgt = adjoint_two_term(sl2()), adjoint_two_term(heisenberg3())
    f = LInfinityHom(src, tgt, LinearMap.identity(3), LinearMap.identity(3),
                     BilinearMap.zero(3, 3, 3, skew=True))
    report = run_checks(hom_checks(f))
    assert "h1" in report.conditions()


def test_descent_homs_verify(hom_catalog):
    for name, f in hom_catalog.items():
        assert run_checks(hom_checks(f.hom) + rb_hom_checks(f)).ok, name


def test_compose_with_identity_is_identity_on_data(hom_catalog):
    for f in hom_catalog.values():
        left = compose_rb_homs(identity_rb_hom(f.target), f)
        right = compose_rb_homs(f, identity_rb_hom(f.source))
        assert left == f and right == f


def test_composition_closure_and_associativity():
    for cm_name in ("aff1-ideal-cm-neg", "heis3-center-cm", "sl2-adjoint-cm-tri"):
        h0, h1, h2 = descent_chain(cm_name, 3)
        # h2 maps deepest; h0 shallowest: compose pairwise
        gf = compose_rb_homs(h0, h1)
        assert run_checks(hom_checks(gf.hom) + rb_hom_checks(gf)).ok
        left = compose_rb_homs(compose_rb_homs(h0, h1), h2)
        right = compose_rb_homs(h0, compose_rb_homs(h1, h2))
        assert left == right
        assert run_checks(hom_checks(left.hom) + rb_hom_checks(left)).ok


@pytest.mark.parametrize("kind", ["same", "identity"])
def test_compose_verifies_the_inputs_only_when_the_output_fails(monkeypatch, kind):
    """A composite that verifies is the only homomorphism whose checks
    `compose_rb_homs` evaluates.  With the output forced to fail, it raises
    exactly when both inputs verify.  The inputs are two loads of one
    identity document (equal but distinct objects), or a homomorphism and
    the identity of its target."""
    if kind == "same":
        f, g = (load(CATALOG_DIR / "id-aff1-adjoint-rb2-shift.json") for _ in range(2))
    else:
        f = load(CATALOG_DIR / "aff1-phi3-hom.json")
        g = identity_rb_hom(f.target)
    bad_f, bad_g = (mutate(h, ("phi0", 0, 0), 1) for h in (f, g))  # same endpoints
    for h, ok in ((f, True), (g, True), (bad_f, False), (bad_g, False)):
        assert run_checks(hom_checks(h.hom) + rb_hom_checks(h)).ok == ok

    seen = []
    monkeypatch.setattr(twoterm, "rb_hom_checks",
                        lambda h: seen.append(h) or rb_hom_checks(h))
    out = compose_rb_homs(g, f)
    assert len(seen) == 1 and seen[0] is out

    inputs = (f, g, bad_f, bad_g)
    forced = family("forced", lambda: (1,), *grid())  # one check, at the empty tuple
    monkeypatch.setattr(twoterm, "rb_hom_checks", lambda h: rb_hom_checks(h) if any(
        h is x for x in inputs) else rb_hom_checks(h) + forced)
    with pytest.raises(InternalInvariantBroken):
        compose_rb_homs(g, f)
    compose_rb_homs(g, bad_f)
    compose_rb_homs(bad_g, f)


def test_compose_rejects_mismatched_endpoints():
    f = identity_rb_hom(TWO_TERM_STRUCTURES["aff1-adjoint-rb2-shift"])
    g = identity_rb_hom(TWO_TERM_STRUCTURES["sl2-adjoint-rb2-tri"])
    with pytest.raises(SourceTargetMismatch):
        compose_rb_homs(g, f)


def test_rbh3_interpretation_identity_hom_consistent():
    """With the adopted reading, both sides of the operator-compatibility
    condition reduce to the corrector tensor for the identity hom, so the
    residual vanishes even when R2 is nonzero."""
    G = sl2_cocycle_rb(1)
    assert not G.r2.is_zero()
    f = identity_rb_hom(G)
    assert run_checks(hom_checks(f.hom) + rb_hom_checks(f)).ok


def test_quadruple_identity_signs_pinned_by_module_cocycle():
    """On the solvable-algebra instance whose homotopy is a module-valued
    3-cocycle, the two sums of the four-argument identity are individually
    nonzero and cancel; flipping the relative sign would leave 6."""
    from itertools import combinations
    from rblie.catalog import solv4_module_cocycle_rb
    from rblie.tensors import vadd, vbasis, vneg, vzero
    G = solv4_module_cocycle_rb()
    assert verify_structure(G.linf).ok
    L = G.linf
    xs = [vbasis(4, t) for t in range(4)]
    first = vzero(1)
    for p in range(4):
        rest = [xs[q] for q in range(4) if q != p]
        term = L.l2_01.apply(xs[p], L.l3.apply(*rest))
        first = vadd(first, term if p % 2 == 0 else vneg(term))
    second = vzero(1)
    for p, q in combinations(range(4), 2):
        rest = [xs[t] for t in range(4) if t not in (p, q)]
        term = L.l3.apply(L.l2_00.apply(xs[p], xs[q]), *rest)
        second = vadd(second, term if (p + q) % 2 == 0 else vneg(term))
    assert first == vec(3) and second == vec(-3)


def test_h3_signs_pinned_by_module_two_cocycle():
    """The endomorphism with a module-valued 2-cocycle as phi2 verifies,
    and its corrector terms are individually nonzero at (e0, e2, e3)."""
    from rblie.catalog import solv4_cocycle_phi2_hom
    from rblie.tensors import vbasis
    F = solv4_cocycle_phi2_hom()
    assert run_checks(hom_checks(F.hom) + rb_hom_checks(F)).ok
    src = F.source.linf
    p2 = F.phi2.apply
    x, y, z = vbasis(4, 0), vbasis(4, 2), vbasis(4, 3)
    assert src.l2_01.apply(x, p2(y, z)) == vec(2)
    assert p2(src.l2_00.apply(x, y), z) == vec(1)
    assert p2(src.l2_00.apply(x, z), y) == vec(-1)
