import functools
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from conftest import (CATALOG_DIR, bracket_forms, flag_broken_rb_hom,
                      flag_respecting_rb_hom, hom_mutants, make_linf,
                      reference_coh, reference_cohm, reference_d, reference_h3,
                      reference_jcoh, reference_rb3, structure_mutants,
                      with_zero_rb)
from rblie import lie2, twoterm
from rblie.catalog import TWO_TERM_STRUCTURES, HOMOMORPHISMS, solvable4
from rblie.cli import verify_structure
from rblie.errors import NotComposable
from rblie.lie2 import (Morphism2V, RBLie2Hom, RBLie2View, coherence_checks,
                        coherence_residual, hom_coherence_checks,
                        jacobiator_coherence_checks,
                        jacobiator_coherence_residual, roundtrip_hom,
                        roundtrip_structure)
from rblie.report import run_checks
from rblie.search import mutate
from rblie.serialize import dumps, load, loads
from rblie.tensors import is_zero, vadd, vbasis, vec, vzero
from rblie.twoterm import (hom_checks, identity_rb_hom, quadruple_identity_residual,
                           rb3_residual, rb_hom_checks, rb_triple_checks,
                           rbh3_residual, two_term_checks)

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
    stores on which no axiom holds (there the cached `rb3` also equals its
    reference form, and is nonzero at some triples)."""
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
    """`hom_coherence_residual` and the `cohm` check, both read as `rbh3`
    minus `phi3_bracket`, equal the diagram's two-path formula term by term
    at every ordered pair: on every catalog homomorphism, each of its
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
                assert lie2.hom_coherence_residual(F, i, j) == check() == \
                    reference_cohm(F, i, j)
                count += not is_zero(lie2.phi3_bracket(F, i, j))
        return count

    # 73 catalog pairs and 285 mutant pairs; B is nonzero only on mutants
    assert sum(F.source.linf.dim0 ** 2 for F in instances) == 73 + 285
    assert nonzero_b(instances) == 12
    assert nonzero_b(random_homs)


def test_each_diagram_residual_is_evaluated_once(monkeypatch):
    """Each diagram and chain residual is evaluated once per index tuple:
    `rbh3`, `cohm` and `cohm-vs-rbh3` share one evaluation of the `rbh3`
    chain residual, and `cohm` adds one of the phi3 bracket term B.  No
    diagram builds a `Morphism2V`: `cohm` reads the arrow part of the
    bracket [f3(x), f3(y)] by calls, so `verify` builds none on any catalog
    document."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("coherence_residual", "jacobiator_coherence_residual",
             "rb3_residual", "rbh3_residual", "phi3_bracket")
    for name in names:
        for module in (lie2, twoterm):  # wherever the module calls it by name
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(Morphism2V, "__init__", counted("Morphism2V", Morphism2V.__init__))

    G = load(CATALOG_DIR / "sl2-cocycle-rb2.json")
    calls.clear()
    assert verify_structure(G).ok
    d0 = G.linf.dim0  # 27, 81, 27 and 0
    assert (calls["coherence_residual"], calls["jacobiator_coherence_residual"],
            calls["rb3_residual"], calls["Morphism2V"]) == (d0 ** 3, d0 ** 4, d0 ** 3, 0)

    F = load(CATALOG_DIR / "aff1-phi3-hom.json")
    calls.clear()
    assert verify_structure(F).ok
    h0 = F.source.linf.dim0  # 4, 4 and 12
    assert (calls["rbh3_residual"], calls["phi3_bracket"],
            calls["Morphism2V"]) == (h0 ** 2, h0 ** 2, 0)

    for path in sorted(CATALOG_DIR.glob("*.json")):
        assert verify_structure(load(path)).ok
    assert calls["Morphism2V"] == 0


@pytest.mark.parametrize("seed, d0", [(0, 3), (1, 3), (2, 3), (0, 4)],
                         ids=["0", "1", "2", "0-dim0-4"])
def test_cached_terms_give_the_direct_residuals_on_flag_broken_stores(seed, d0):
    """With l2_00, r2 and phi2 not skew and l3 not alternating, every `d`,
    `jcoh`, `rb3`, `coh` and `h3` residual, read through the term caches in
    check-list order, equals its reference form, and so does the
    four-argument identity at every ordered quadruple, read through the
    same caches after them; so no cache key folds two argument orders into
    one.  The `d` check exists only from dim0 4 on, so one case has dim0
    4.  The flag checks fire, so such a store fails `verify`."""
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


def _term_caches(G):
    return (G.linf.act_l3, G.linf.l3_br, G.act_r0_r2, G.r1_act_r2, G.l3_r0, G.grouped)


def test_each_cached_term_is_evaluated_once_per_key(monkeypatch):
    """Verifying sl2-cocycle-rb2 and its identity homomorphism evaluates
    each term of the structure's and the homomorphism's term caches at most
    once per argument tuple, and each cache is read again after it is
    filled."""
    evaluated = Counter()

    def counting_cache(fn):
        def counted(*args):
            evaluated[fn.__qualname__, args] += 1
            return fn(*args)
        return functools.cache(counted)

    monkeypatch.setattr(twoterm, "cache", counting_cache)
    G = load(CATALOG_DIR / "sl2-cocycle-rb2.json")
    F = identity_rb_hom(G)
    assert verify_structure(G).ok and verify_structure(F).ok
    terms = {name for name, args in evaluated if args}
    assert {name.split(".")[1] for name in terms} == {
        "act_l3", "l3_br", "act_r0_r2", "r1_act_r2", "l3_r0", "grouped", "act_phi2"}
    assert max(n for (_, args), n in evaluated.items() if args) == 1
    for term in _term_caches(G) + (F.hom.act_phi2,):
        assert term.cache_info().hits > 0


def test_zero_terms_share_one_tuple_per_length(monkeypatch):
    """After verifying sl2-cocycle-rb2 and its identity homomorphism, every
    zero value held by a term cache is one object per vector length."""
    held = []

    def recording_cache(fn):
        def recorded(*args):
            value = fn(*args)
            if args:  # a term, not a check's zero-argument residual thunk
                held.append(value)
            return value
        return functools.cache(recorded)

    monkeypatch.setattr(twoterm, "cache", recording_cache)
    G = load(CATALOG_DIR / "sl2-cocycle-rb2.json")
    F = identity_rb_hom(G)
    assert verify_structure(G).ok and verify_structure(F).ok
    zeros = Counter(len(v) for v in held if not any(v))
    assert max(zeros.values()) > 1
    assert len({id(v) for v in held if not any(v)}) == len(zeros)


def test_verified_structures_are_freed_without_the_cycle_collector():
    """The term caches hold the tensors, not the structure, so a verified
    structure and homomorphism go as soon as their last reference does."""
    G = load(CATALOG_DIR / "solv4-module-cocycle-rb2.json")
    F = load(CATALOG_DIR / "aff1-phi3-hom.json")
    gc.disable()
    try:
        assert verify_structure(G).ok and verify_structure(F).ok
        assert all(term.cache_info().currsize for term in _term_caches(G))
        assert F.hom.act_phi2.cache_info().currsize
        refs = [weakref.ref(x) for x in (G, G.linf, F, F.hom, F.source, F.source.linf)]
        del G, F
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _d_mutant_base():
    """The base of the `d` structure mutant: solv4's bracket, l3 = 0."""
    return with_zero_rb(make_linf(4, 1, l2_00=solvable4().bracket))


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
    """A mutant shares every unchanged part, and its term caches, with its
    parent; verified after the parent it reports exactly what a freshly
    loaded copy of it reports."""
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


def test_roundtrip_hom_catches_a_wrong_view_map(monkeypatch):
    """rt-phi2 and rt-phi3 read their arrows through the view maps, so a
    view that shifts the arrow parts of f2 and f3 is reported."""
    def shifted(view_map):
        def wrong(self, *args):
            m = view_map(self, *args)
            return Morphism2V(m.source, vadd(m.arrow, vbasis(len(m.arrow), 0)))
        return wrong

    F = HOMOMORPHISMS["id-aff1-adjoint-rb2-shift"]
    monkeypatch.setattr(RBLie2Hom, "f2", shifted(RBLie2Hom.f2))
    monkeypatch.setattr(RBLie2Hom, "f3", shifted(RBLie2Hom.f3))
    assert roundtrip_hom(F).conditions() == {"rt-phi2", "rt-phi3"}


@given(st.lists(coords, min_size=3, max_size=3),
       st.lists(coords, min_size=1, max_size=1),
       st.lists(coords, min_size=1, max_size=1))
def test_compose_is_total_on_matching_boundaries(src, u, v):
    g = Morphism2V(vec(*src), vec(*u))
    f = Morphism2V(VIEW.target(g), vec(*v))
    out = VIEW.compose(f, g)
    assert out.source == g.source
    assert VIEW.target(out) == VIEW.target(f)
