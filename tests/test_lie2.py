import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, strategies as st

from conftest import (CATALOG_DIR, bracket_forms, flag_broken_rb_hom,
                      flag_respecting_rb_hom, hom_mutants,
                      reference_coh, reference_cohm, reference_d, reference_h3,
                      reference_jcoh, reference_perm_sign, reference_rb3,
                      structure_mutants)
from rblie import lie2, twoterm
from rblie.catalog import TWO_TERM_STRUCTURES, HOMOMORPHISMS, solvable4
from rblie.cli import verify_structure
from rblie.errors import NotComposable
from rblie.liealg import skew_checks
from rblie.lie2 import (Morphism2V, RBLie2View, coherence_checks,
                        coherence_residual, hom_coherence_checks,
                        jacobiator_coherence_checks,
                        jacobiator_coherence_residual, roundtrip_hom,
                        roundtrip_structure)
from rblie.report import run_checks
from rblie.search import mutate
from rblie.serialize import dumps, load, loads
from rblie.tensors import (BilinearMap, LinearMap, TrilinearMap, from_cells, is_zero,
                           vadd, vbasis, vec, vscale, vsub, vzero)
from rblie.twoterm import (RBLInfinityHom, TwoTermRBLInfinity, alt_checks, h3_residual,
                           hom_checks, identity_rb_hom, quadruple_identity_residual,
                           rb3_residual, rb_hom_checks, rb_triple_checks, rbh3_residual,
                           two_term, two_term_checks, with_operators)
from rblie.value import replace

VIEW = RBLie2View(TWO_TERM_STRUCTURES["sl2-cocycle-rb2-nonstrict"])

coords = st.integers(min_value=-4, max_value=4)


def rand_vec(rng: random.Random, n: int):
    return vec(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))


def composable_pair(view: RBLie2View, rng: random.Random):
    g = Morphism2V(rand_vec(rng, view.dim0), rand_vec(rng, view.dim1))
    f = Morphism2V(view.target(g), rand_vec(rng, view.dim1))
    return f, g


def test_identity_is_unit():
    rng = random.Random(7)
    for _ in range(20):
        f = Morphism2V(rand_vec(rng, VIEW.dim0), rand_vec(rng, VIEW.dim1))
        assert VIEW.compose(VIEW.identity(VIEW.target(f)), f) == f
        assert VIEW.compose(f, VIEW.identity(f.source)) == f


def test_compose_adds_arrow_parts():
    rng = random.Random(8)
    f, g = composable_pair(VIEW, rng)
    out = VIEW.compose(f, g)
    assert out.source == g.source
    assert out.arrow == tuple(a + b for a, b in zip(g.arrow, f.arrow))


def test_compose_rejects_boundary_mismatch():
    f = Morphism2V(vbasis(3, 0), vzero(1))
    g = Morphism2V(vbasis(3, 1), vbasis(1, 0))  # target != e0
    with pytest.raises(NotComposable):
        VIEW.compose(f, g)


def test_compose_associative_on_samples():
    for name, G in TWO_TERM_STRUCTURES.items():
        view = RBLie2View(G)
        rng = random.Random(f"assoc:{name}".encode())
        for _ in range(100):
            h = Morphism2V(rand_vec(rng, view.dim0), rand_vec(rng, view.dim1))
            g = Morphism2V(view.target(h), rand_vec(rng, view.dim1))
            f = Morphism2V(view.target(g), rand_vec(rng, view.dim1))
            left = view.compose(f, view.compose(g, h))
            right = view.compose(view.compose(f, g), h)
            assert left == right


def test_bracket_forms_agree_on_samples():
    for name, G in TWO_TERM_STRUCTURES.items():
        view = RBLie2View(G)
        rng = random.Random(len(name))
        for _ in range(100):
            f = Morphism2V(rand_vec(rng, view.dim0), rand_vec(rng, view.dim1))
            g = Morphism2V(rand_vec(rng, view.dim0), rand_vec(rng, view.dim1))
            first, second = bracket_forms(view, f, g)
            assert first == second


def test_bracket_of_identities_is_identity_of_bracket():
    rng = random.Random(3)
    x, z = rand_vec(rng, VIEW.dim0), rand_vec(rng, VIEW.dim0)
    out = VIEW.bracket(VIEW.identity(x), VIEW.identity(z))
    assert out == VIEW.identity(VIEW.base.linf.l2_00.apply(x, z))


def test_bracket_with_identity_matches_action():
    # [f, i(z)] = (l2(x, z), l2(arrow, z)) with the degree-one skew extension
    L = VIEW.base.linf
    rng = random.Random(4)
    f = Morphism2V(rand_vec(rng, 3), rand_vec(rng, 1))
    z = rand_vec(rng, 3)
    out = VIEW.bracket(f, VIEW.identity(z))
    assert out.source == L.l2_00.apply(f.source, z)
    assert out.arrow == tuple(-c for c in L.l2_01.apply(z, f.arrow))


def test_bracket_functoriality_on_samples():
    """[f o f', g o g'] = [f, g] o [f', g'] whenever both sides compose."""
    for name, G in TWO_TERM_STRUCTURES.items():
        view = RBLie2View(G)
        rng = random.Random(f"functor:{name}".encode())
        for _ in range(100):
            fp, gp = (Morphism2V(rand_vec(rng, view.dim0), rand_vec(rng, view.dim1))
                      for _ in range(2))
            f = Morphism2V(view.target(fp), rand_vec(rng, view.dim1))
            g = Morphism2V(view.target(gp), rand_vec(rng, view.dim1))
            lhs = view.bracket(view.compose(f, fp), view.compose(g, gp))
            rhs = view.compose(view.bracket(f, g), view.bracket(fp, gp))
            assert lhs == rhs


def test_coherence_clean_on_catalog():
    for name, G in TWO_TERM_STRUCTURES.items():
        assert run_checks(coherence_checks(G)).ok, name


def flag_respecting_structures():
    """Both endpoints of seeded random flag-respecting homomorphisms: dim0
    4, skew l2_00 and R2, alternating l3, every other store random."""
    homs = [flag_respecting_rb_hom(seed) for seed in range(3)]
    return [G for F in homs for G in (F.source, F.target)]


def test_coherence_residual_equals_chain_condition_everywhere():
    """The diagram difference IS the cyclic operator condition on any
    flag-valid data: the catalog, the structure mutants, and seeded random
    stores on which no axiom holds (there `rb3` also equals its reference
    form, and is nonzero at some triples)."""
    instances = list(TWO_TERM_STRUCTURES.values()) + [m for _, m in structure_mutants()]
    for G in instances:
        for idx in product(range(G.linf.dim0), repeat=3):
            assert coherence_residual(G, *idx) == rb3_residual(G, *idx)
    for G in flag_respecting_structures():
        nonzero = 0
        for idx in product(range(G.linf.dim0), repeat=3):
            rb3 = rb3_residual(G, *idx)
            assert coherence_residual(G, *idx) == rb3 == reference_rb3(G, *idx)
            nonzero += not is_zero(rb3)
        assert nonzero


def test_coherence_flags_r2_mutants_at_same_triples():
    mutant = dict(structure_mutants())["rb3"]
    coh = run_checks(coherence_checks(mutant))
    assert coh.conditions() == {"coh"}
    coh_triples = {v.indices for v in coh.violations if v.condition == "coh"}
    rb = run_checks(rb_triple_checks(mutant))
    rb3_triples = {v.indices for v in rb.violations if v.condition == "rb3"}
    assert coh_triples == rb3_triples and coh_triples


def test_jacobiator_coherence_clean_on_catalog():
    for name, G in TWO_TERM_STRUCTURES.items():
        assert run_checks(jacobiator_coherence_checks(G)).ok, name


def test_jacobiator_coherence_equals_quadruple_identity_everywhere():
    """The coherence diagram difference IS the four-argument chain-level
    identity at every ordered quadruple, on the catalog, on every structure
    mutant and on seeded random flag-respecting stores (where the identity
    also equals its reference form, and is nonzero at some quadruples)."""
    instances = list(TWO_TERM_STRUCTURES.values()) + [m for _, m in structure_mutants()]
    for G in instances:
        for idx in product(range(G.linf.dim0), repeat=4):
            assert jacobiator_coherence_residual(G, *idx) == \
                quadruple_identity_residual(G.linf, *idx)
    for G in flag_respecting_structures():
        nonzero = 0
        for idx in product(range(G.linf.dim0), repeat=4):
            d = quadruple_identity_residual(G.linf, *idx)
            assert jacobiator_coherence_residual(G, *idx) == d == reference_d(G.linf, *idx)
            nonzero += not is_zero(d)
        assert nonzero


def test_jacobiator_coherence_flags_d_mutant():
    mutant = dict(structure_mutants())["d"]
    assert run_checks(jacobiator_coherence_checks(mutant)).conditions() == {"jcoh"}


def test_hom_coherence_clean_on_catalog():
    for name, F in HOMOMORPHISMS.items():
        assert run_checks(hom_coherence_checks(F, rb_hom_checks(F))).ok, name


def test_hom_coherence_agrees_with_chain_condition_on_mutants():
    for condition, mutant in hom_mutants():
        report = run_checks(hom_coherence_checks(mutant, rb_hom_checks(mutant)))
        assert "cohm-vs-rbh3" not in report.conditions(), condition
        cohm_pairs = {v.indices for v in report.violations if v.condition == "cohm"}
        d0 = mutant.source.linf.dim0
        rbh3_pairs = {(i, j) for i in range(d0) for j in range(d0)
                      if not is_zero(rbh3_residual(mutant, i, j))}
        assert cohm_pairs == rbh3_pairs, condition


def test_hom_coherence_equals_rbh3_minus_phi3_bracket():
    """The `cohm` check, read as `rbh3` minus `phi3_bracket`, equals the
    diagram's two-path formula term by term (`reference_cohm`) and that
    difference of the two residuals at every ordered pair: on every catalog homomorphism, each of its
    single-site phi3 mutants, and seeded random flag-respecting and
    flag-broken homomorphisms.  B is nonzero at some pairs of the mutants
    and of the random homomorphisms."""
    instances = []
    for F in HOMOMORPHISMS.values():
        instances.append(F)
        instances += [mutate(F, ("phi3", r, c), 1)
                      for r in range(F.phi3.rows) for c in range(F.phi3.cols)]
    random_homs = [make(seed) for make in (flag_respecting_rb_hom, flag_broken_rb_hom)
                   for seed in range(3)]

    def nonzero_b(homs):
        """Pairs with B != 0, after checking every `cohm` pair of `homs`."""
        count = 0
        for F in homs:
            cohm = [(idx, fn) for cond, idx, fn in hom_coherence_checks(F, rb_hom_checks(F))
                    if cond == "cohm"]
            assert len(cohm) == F.source.linf.dim0 ** 2
            for (i, j), check in cohm:
                assert check() == reference_cohm(F, i, j) == vsub(
                    rbh3_residual(F, i, j), lie2.phi3_bracket(F, i, j))
                count += not is_zero(lie2.phi3_bracket(F, i, j))
        return count

    # 73 catalog pairs and 285 mutant pairs; B is nonzero only on mutants
    assert sum(F.source.linf.dim0 ** 2 for F in instances) == 73 + 285
    assert nonzero_b(instances) == 12
    assert nonzero_b(random_homs)


def test_each_diagram_residual_is_evaluated_once(monkeypatch):
    """The alternating families `coh`, `jcoh`, `rb3` and `h3` of a valid
    document are evaluated once per sorted tuple of distinct indices, and
    `rbh3`, `cohm` and `cohm-vs-rbh3` share one evaluation of the `rbh3`
    chain residual per ordered pair, to which `cohm` adds one of the phi3
    bracket term B.  No diagram builds a `Morphism2V`: `cohm` reads the
    arrow part of the bracket [f3(x), f3(y)] by calls, so `verify` builds
    none on any catalog document."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("coherence_residual", "jacobiator_coherence_residual",
             "rb3_residual", "h3_residual", "rbh3_residual", "phi3_bracket")
    for name in names:
        for module in (lie2, twoterm):  # wherever the module calls it by name
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Morphism2V, "__init__", counted("Morphism2V", Morphism2V.__init__))

    for name in ("sl2-cocycle-rb2", "solv4-module-cocycle-rb2"):
        G = load(CATALOG_DIR / f"{name}.json")
        calls.clear()
        assert verify_structure(G).ok
        d0 = G.linf.dim0  # 1, 0, 1 and 0 at dim0 3; 4, 1, 4 and 0 at dim0 4
        assert (calls["coherence_residual"], calls["jacobiator_coherence_residual"],
                calls["rb3_residual"], calls["Morphism2V"]) == \
            (comb(d0, 3), comb(d0, 4), comb(d0, 3), 0)

    F = load(CATALOG_DIR / "aff1-phi3-hom.json")
    calls.clear()
    assert verify_structure(F).ok
    h0 = F.source.linf.dim0  # 4, 4 and 12
    assert (calls["rbh3_residual"], calls["phi3_bracket"],
            calls["Morphism2V"]) == (h0 ** 2, h0 ** 2, 0)

    F = load(CATALOG_DIR / "solv4-cocycle-phi2-hom.json")
    calls.clear()
    assert verify_structure(F).ok
    h0 = F.source.linf.dim0  # 4 for h3, 4 for each endpoint's rb3
    assert (calls["h3_residual"], calls["rb3_residual"]) == (comb(h0, 3), 2 * comb(h0, 3))

    for path in sorted(CATALOG_DIR.glob("*.json")):
        assert verify_structure(load(path)).ok
    assert calls["Morphism2V"] == 0


@pytest.mark.parametrize("seed, d0", [(0, 3), (1, 3), (2, 3), (0, 4)],
                         ids=["0", "1", "2", "0-dim0-4"])
def test_cached_terms_give_the_direct_residuals_on_flag_broken_stores(seed, d0):
    """With l2_00, r2 and phi2 not skew and l3 not alternating, every `d`,
    `jcoh`, `rb3`, `coh` and `h3` residual of the check families, evaluated
    literally at each ordered tuple, equals its reference form, and so does
    the four-argument identity at every ordered quadruple; so no orbit
    evaluation stands in for a literal one.  The `d` check exists only from
    dim0 4 on, so one case has dim0 4.  The flag checks fire, so such a
    store fails `verify`."""
    F = flag_broken_rb_hom(seed, d0)
    G = F.source
    checks = (two_term_checks(G.linf) + rb_triple_checks(G) + coherence_checks(G)
              + jacobiator_coherence_checks(G) + hom_checks(F.hom))
    got = {(cond, idx): fn() for cond, idx, fn in checks}
    references = {"rb3": lambda *t: reference_rb3(G, *t),
                  "coh": lambda *t: reference_coh(G, *t),
                  "h3": lambda *t: reference_h3(F.hom, *t)}
    for idx in product(range(d0), repeat=3):
        for cond, reference in references.items():
            assert got[cond, idx] == reference(*idx), (cond, idx)
    for idx in product(range(d0), repeat=4):
        assert got["jcoh", idx] == reference_jcoh(G, *idx)
        assert quadruple_identity_residual(G.linf, *idx) == reference_d(G.linf, *idx)
    d_tuples = [idx for cond, idx in got if cond == "d"]
    assert d_tuples == list(combinations(range(d0), 4))
    for idx in d_tuples:
        assert got["d", idx] == reference_d(G.linf, *idx)
    assert {"skew-l2", "skew-r2", "alt-l3"} <= run_checks(checks).conditions()


# The families checked once per orbit: arity, public residual, reference.
ORBIT_FAMILIES = {
    "rb3": (3, rb3_residual, reference_rb3),
    "coh": (3, coherence_residual, reference_coh),
    "jcoh": (4, jacobiator_coherence_residual, reference_jcoh),
    "h3": (3, h3_residual, reference_h3),
}


def _assert_orbit_checks_give_references(F):
    """Every `rb3`, `coh` and `jcoh` check of both endpoints of F and every
    `h3` check of F, one at every ordered tuple, equals its reference form."""
    lists = [(G, rb_triple_checks(G) + coherence_checks(G) + jacobiator_coherence_checks(G))
             for G in (F.source, F.target)] + [(F.hom, hom_checks(F.hom))]
    for owner, checks in lists:
        seen = Counter()
        for cond, idx, fn in checks:
            if cond in ORBIT_FAMILIES:
                assert fn() == ORBIT_FAMILIES[cond][2](owner, *idx), (cond, idx)
                seen[cond] += 1
        d0 = F.source.linf.dim0
        assert seen and seen == {cond: d0 ** ORBIT_FAMILIES[cond][0] for cond in seen}


def test_orbit_families_alternate_on_flag_respecting_stores():
    """On seeded random stores with skew l2_00, R2 and phi2 and alternating
    l3, where no axiom holds, each of `rb3`, `coh`, `jcoh` and `h3` is at
    every ordered tuple sign(pi) times its value at the sorted tuple, zero
    at every tuple with a repeated index and nonzero somewhere; and every
    residual the check families give equals its reference form."""
    for seed in range(8):
        F = flag_respecting_rb_hom(seed)
        d0 = F.source.linf.dim0
        assert d0 == 4
        for cond, (arity, residual, _) in ORBIT_FAMILIES.items():
            owner = F.hom if cond == "h3" else F.source
            at_sorted = {s: residual(owner, *s) for s in combinations(range(d0), arity)}
            nonzero = 0
            for idx in product(range(d0), repeat=arity):
                value = residual(owner, *idx)
                if len(set(idx)) < arity:
                    assert is_zero(value), (seed, cond, idx)
                    continue
                s = tuple(sorted(idx))
                sign = reference_perm_sign(tuple(s.index(i) for i in idx))
                assert value == vscale(sign, at_sorted[s]), (seed, cond, idx)
                nonzero += not is_zero(value)
            assert nonzero, (seed, cond)
        _assert_orbit_checks_give_references(F)


def _raise_cell(t, cell):
    """`t` with the coefficient of `cell` raised by one and its partners
    left as they are, under the same flag."""
    cells = t.cells()
    cells[cell] = cells.get(cell, 0) + 1
    return from_cells(t.shape, cells, t.flag)


def _broken_store(F, store):
    """F with the store `store` (`src-l2_00`, `src-l3`, `src-r2`, the same
    with `tgt-`, or `phi2`) raised by one at output 0 and inputs (0, 1) or
    (0, 1, 2), so that it alone is not skew or alternating."""
    def broken(t):
        return _raise_cell(t, (0, *range(len(t.shape) - 1)))

    side, _, name = store.rpartition("-")
    src, tgt, hom = F.source, F.target, F.hom
    if not side:
        return RBLInfinityHom(src, tgt, replace(hom, phi2=broken(hom.phi2)), F.phi3)
    G = src if side == "src" else tgt
    if name == "r2":
        G = replace(G, rb=replace(G.rb, r2=broken(G.rb.r2)))
    else:
        G = replace(G, linf=replace(G.linf, **{name: broken(getattr(G.linf, name))}))
    src, tgt = (G, tgt) if side == "src" else (src, G)
    return RBLInfinityHom(src, tgt, replace(hom, source=src.linf, target=tgt.linf), F.phi3)


@pytest.mark.parametrize("store, flag", [
    ("src-l2_00", "src-skew-l2"), ("src-l3", "src-alt-l3"), ("src-r2", "src-skew-r2"),
    ("tgt-l2_00", "tgt-skew-l2"), ("tgt-l3", "tgt-alt-l3"), ("tgt-r2", "tgt-skew-r2"),
    ("phi2", "skew-phi2")])
def test_orbit_checks_give_references_with_one_flag_broken(store, flag):
    """With one store of a flag-respecting homomorphism broken, only its
    flag check among the flag checks fires, and every ordered `rb3`, `coh`,
    `jcoh` and `h3` residual of the check families still equals its reference
    form: a family that reads the broken store is evaluated literally, so
    the predicate leaves out no store that a family needs."""
    for seed in range(2):
        F = _broken_store(flag_respecting_rb_hom(seed), store)
        flags = {c for c in verify_structure(F).conditions()
                 if "skew" in c or "alt" in c}
        assert flags == {flag}
        _assert_orbit_checks_give_references(F)


def test_is_alternating_is_exactly_the_flag_checks_passing():
    """`is_alternating` is true exactly when the store's `skew-*` or
    `alt-l3` checks report nothing: on the flagged stores of seeded random
    homomorphisms that keep their flags and that break them, and on the
    kept ones with one cell raised at distinct or at repeated inputs."""
    stores = []
    for seed in range(4):
        for F in (flag_respecting_rb_hom(seed), flag_broken_rb_hom(seed)):
            stores += [t for G in (F.source.linf, F.target.linf) for t in (G.l2_00, G.l3)]
            stores += [F.source.rb.r2, F.target.rb.r2, F.hom.phi2]
    kept = [t for t in stores if t.is_alternating]
    for t in kept:
        arity = len(t.shape) - 1
        stores += [_raise_cell(t, (0, *range(arity))), _raise_cell(t, (0,) * (arity + 1))]
    verdicts = Counter()
    for t in stores:
        checks = alt_checks(t) if isinstance(t, TrilinearMap) else skew_checks(t)
        ok = run_checks(checks).ok
        assert t.is_alternating == ok
        verdicts[ok] += 1
    assert len(kept) == 28 and verdicts == {True: 28, False: 28 + 2 * 28}


def test_verified_structures_are_freed_without_the_cycle_collector():
    """Nothing that verifying caches on the tensors refers back to the
    structure, so a verified structure and homomorphism go as soon as their
    last reference does."""
    G = load(CATALOG_DIR / "solv4-module-cocycle-rb2.json")
    F = load(CATALOG_DIR / "aff1-phi3-hom.json")
    gc.disable()
    try:
        assert verify_structure(G).ok and verify_structure(F).ok
        refs = [weakref.ref(x) for x in (G, G.linf, F, F.hom, F.source, F.source.linf)]
        del G, F
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _d_mutant_base():
    """The base of the `d` structure mutant: solv4's bracket, l3 = 0."""
    return with_operators(two_term(4, 1, l2_00=solvable4().bracket))


@pytest.mark.parametrize("parent, site", [
    ("solv4-module-cocycle-rb2", ("l2_00", 1, 0, 1)),
    ("solv4-module-cocycle-rb2", ("l2_01", 0, 0, 0)),
    ("solv4-module-cocycle-rb2", ("r1", 0, 0)),
    ("sl2-cocycle-rb2-nonstrict", ("r0", 0, 2)),
    ("sl2-adjoint-cm-tri-strict", ("r2", 1, 0, 2)),
    ("sl2-adjoint-rb2-tri", ("l3", 0, 0, 1, 2)),
    (_d_mutant_base, ("l3", 0, 1, 2, 3)),
    ("descent-sl2-adjoint-cm-tri", ("phi2", 0, 0, 2)),
    ("id-sl2-cocycle-rb2-nonstrict", ("phi0", 0, 0)),
])
def test_mutant_verified_after_its_parent_reads_its_own_terms(parent, site):
    """A mutant shares every unchanged tensor, and the partial maps cached
    on it, with its parent; verified after the parent it reports exactly
    what a freshly loaded copy of it reports."""
    parent = parent() if callable(parent) else load(CATALOG_DIR / f"{parent}.json")
    assert verify_structure(parent).ok
    mutant = mutate(parent, site, 1)
    report = verify_structure(mutant)
    fresh = verify_structure(loads(dumps(mutant)))
    assert (report.checked, report.lines()) == (fresh.checked, fresh.lines())
    assert not report.ok


def test_roundtrip_identity_on_catalog():
    for name, G in TWO_TERM_STRUCTURES.items():
        assert roundtrip_structure(G).ok, name


def test_roundtrip_hom_identity_on_catalog():
    for name, F in HOMOMORPHISMS.items():
        assert roundtrip_hom(F).ok, name


def test_each_roundtrip_id_reads_its_own_map(monkeypatch):
    """Each `rt-*` id reads exactly the map it names: shifting the `apply`
    of one map class by e_0 fires exactly the ids over maps of that class,
    and neither round trip builds a `Morphism2V` or an `RBLie2View`."""
    calls = Counter()
    for cls in (Morphism2V, RBLie2View):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    G = TWO_TERM_STRUCTURES["sl2-adjoint-rb2-tri"]
    F = HOMOMORPHISMS["id-sl2-cocycle-rb2-nonstrict"]
    assert roundtrip_structure(G).ok and roundtrip_hom(F).ok
    assert calls == Counter()

    expected = {
        LinearMap: ({"rt-l1", "rt-r0", "rt-r1"}, {"rt-phi0", "rt-phi1", "rt-phi3"}),
        BilinearMap: ({"rt-l2-act", "rt-l2-obj", "rt-r2"}, {"rt-phi2"}),
        TrilinearMap: ({"rt-l3"}, set()),
    }
    for cls, (structure_ids, hom_ids) in expected.items():
        def shifted(self, *args, _apply=cls.apply):
            out = _apply(self, *args)
            return vadd(out, vbasis(len(out), 0))
        with monkeypatch.context() as m:
            m.setattr(cls, "apply", shifted)
            assert roundtrip_structure(G).conditions() == structure_ids, cls.__name__
            assert roundtrip_hom(F).conditions() == hom_ids, cls.__name__


def test_roundtrip_counts_have_closed_forms():
    """`roundtrip_structure` checks 2 d1 + d0 + d0^2 + d0 d1 + C(d0,2)
    + C(d0,3) entries and `roundtrip_hom` 2 d0 + d0^2 + d1, in the
    source's dimensions."""
    def structure_count(G):
        d0, d1 = G.linf.dim0, G.linf.dim1
        return 2 * d1 + d0 + d0 ** 2 + d0 * d1 + comb(d0, 2) + comb(d0, 3)

    def hom_count(F):
        d0, d1 = F.source.linf.dim0, F.source.linf.dim1
        return 2 * d0 + d0 ** 2 + d1

    docs = [load(path) for path in sorted(CATALOG_DIR.glob("*.json"))]
    structures = [G for G in docs if isinstance(G, TwoTermRBLInfinity)]
    homs = [F for F in docs if isinstance(F, RBLInfinityHom)]
    assert len(structures) + len(homs) == 22
    zeros = [with_operators(two_term(d0, d1)) for d0 in range(6) for d1 in range(4)]
    for G in structures + zeros:
        assert roundtrip_structure(G).checked == structure_count(G)
    for F in homs + [identity_rb_hom(G) for G in zeros]:
        assert roundtrip_hom(F).checked == hom_count(F)


@given(st.lists(coords, min_size=3, max_size=3),
       st.lists(coords, min_size=1, max_size=1),
       st.lists(coords, min_size=1, max_size=1))
def test_compose_is_total_on_matching_boundaries(src, u, v):
    g = Morphism2V(vec(*src), vec(*u))
    f = Morphism2V(VIEW.target(g), vec(*v))
    out = VIEW.compose(f, g)
    assert out.source == g.source
    assert VIEW.target(out) == VIEW.target(f)
