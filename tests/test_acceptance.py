"""Acceptance suite: one test per criterion, exact equality throughout
(tolerances are identically zero), one PASS/FAIL line per criterion."""

import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from conftest import (CATALOG_DIR, bracket_forms, closed_form_derived,
                      descent_chain, hom_mutants, structure_mutants)
from rblie import catalog
from rblie.cli import main as cli_main, verify_structure
from rblie.crossed import (crossed_semidirect, crossed_to_strict,
                           derived_crossed, prelie_crossed_to_lie_crossed,
                           rb_crossed_to_prelie_crossed, strict_to_crossed)
from rblie.liealg import (RotaBaxterLieAlgebra, adjoint_representation,
                          coadjoint_representation, derived_bracket,
                          dual_representation, prelie_from_rb, rb_checks,
                          representation_checks, semidirect_product,
                          subadjacent_lie)
from rblie.lie2 import (Morphism2V, RBLie2View, coherence_residual, phi3_bracket,
                        roundtrip_hom, roundtrip_structure)
from rblie.report import run_checks
from rblie.search import SearchSpec, enumerate_rb_operators
from rblie.serialize import dumps, load, loads
from rblie.tensors import LinearMap, is_zero, vec, vsub
from rblie.twoterm import (compose_rb_homs, hom_checks, identity_rb_hom,
                           rb3_residual, rb_hom_checks, rb_triple_checks,
                           rbh3_residual, two_term_checks)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def test_criterion_1_classical_layer():
    with criterion(1, "classical-layer"):
        algebras = catalog.LIE_ALGEBRAS
        assert len(algebras) >= 5
        for name, alg in algebras.items():
            assert alg.dim <= 4, name
            assert verify_structure(alg).ok, name
        assert run_checks(rb_checks(catalog.aff1_rb_shift())).ok

        spec = SearchSpec(algebras["aff1"])
        found = enumerate_rb_operators(spec)
        golden = load(CATALOG_DIR / "aff1-rb-search.json")
        assert tuple(rba.r for rba in found) == golden.operators
        found_set = {rba.r for rba in found}
        grid = [Fraction(-1), Fraction(0), Fraction(1)]
        candidates = 0
        for a, b, c, d in product(grid, repeat=4):
            r = LinearMap.from_rows([[a, b], [c, d]])
            ok = run_checks(rb_checks(RotaBaxterLieAlgebra(algebras["aff1"], r))).ok
            assert ok == (r in found_set)
            # independent closed-form oracle for the identity on this algebra
            assert ok == ((b * (a + d) == 0) and (d * d == -b * c))
            candidates += 1
        assert candidates == 81 and len(found_set) == 15


def test_criterion_2_prelie_chain(golden_operators):
    with criterion(2, "pre-Lie-chain"):
        for rba in golden_operators:
            p = prelie_from_rb(rba)
            assert verify_structure(p).ok
            derived = derived_bracket(rba)
            assert derived.bracket == subadjacent_lie(p).bracket
            for i in range(rba.dim):  # R is a homomorphism off the derived bracket
                for j in range(rba.dim):
                    lhs = rba.r.apply(derived.bracket.on_basis(i, j))
                    rhs = rba.base.bracket_vec(rba.r.column(i), rba.r.column(j))
                    assert lhs == rhs


def test_criterion_3_representations():
    with criterion(3, "representations"):
        for name, rba in catalog.RB_ALGEBRAS.items():
            adj = adjoint_representation(rba)
            coadj = coadjoint_representation(rba)
            assert run_checks(representation_checks(adj)).ok, name
            assert run_checks(representation_checks(coadj)).ok, name
            assert dual_representation(dual_representation(adj)) == adj
            assert dual_representation(dual_representation(coadj)) == coadj
            for rep in (adj, coadj):
                out = semidirect_product(rep)
                assert verify_structure(out).ok, name


def test_criterion_4_two_term_and_mutations():
    with criterion(4, "two-term-and-mutation-coverage"):
        for name, G in catalog.TWO_TERM_STRUCTURES.items():
            assert verify_structure(G.linf).ok, name
            assert run_checks(rb_triple_checks(G)).ok, name
        seen = {}
        for condition, mutant in structure_mutants():
            report = run_checks(two_term_checks(mutant.linf) + rb_triple_checks(mutant))
            assert report.conditions() == {condition}, condition
            seen[condition] = True
        for condition, mutant in hom_mutants():
            report = run_checks(hom_checks(mutant.hom) + rb_hom_checks(mutant))
            assert report.conditions() == {condition}, condition
            seen[condition] = True
        assert sorted(seen) == ["a", "b", "c", "d", "rb1", "rb2", "rb3",
                                "rbh1", "rbh2", "rbh3"]


def test_criterion_5_equivalence():
    with criterion(5, "categorified-equivalence"):
        for name, G in catalog.TWO_TERM_STRUCTURES.items():
            assert roundtrip_structure(G).ok, name
        for name, F in catalog.HOMOMORPHISMS.items():
            assert roundtrip_hom(F).ok, name
        instances = list(catalog.TWO_TERM_STRUCTURES.values())
        instances += [m for _, m in structure_mutants()]
        for G in instances:
            d0 = G.linf.dim0
            for idx in product(range(d0), repeat=3):
                assert coherence_residual(G, *idx) == rb3_residual(G, *idx)
        homs = list(catalog.HOMOMORPHISMS.values())
        homs += [m for _, m in hom_mutants()]
        for F in homs:
            d0 = F.source.linf.dim0
            for i, j in product(range(d0), repeat=2):
                rbh3 = rbh3_residual(F, i, j)
                assert is_zero(vsub(rbh3, phi3_bracket(F, i, j))) == is_zero(rbh3)


def test_criterion_6_crossed_modules():
    with criterion(6, "crossed-modules"):
        for name, cm in catalog.CROSSED_MODULES.items():
            G = crossed_to_strict(cm)
            assert strict_to_crossed(G) == cm, name
            assert crossed_to_strict(strict_to_crossed(G)) == G, name
            pm = rb_crossed_to_prelie_crossed(cm)
            assert verify_structure(pm).ok, name
            chain = prelie_crossed_to_lie_crossed(pm)
            assert verify_structure(chain).ok, name
            assert derived_crossed(cm) == chain == closed_form_derived(cm), name
            semi = crossed_semidirect(cm)
            assert verify_structure(semi).ok, name


def test_criterion_7_hom_algebra():
    with criterion(7, "homomorphism-algebra"):
        for cm_name in ("aff1-ideal-cm-neg", "heis3-center-cm", "sl2-adjoint-cm-tri"):
            h0, h1, h2 = descent_chain(cm_name, 3)
            for f in (h0, h1, h2):
                assert run_checks(hom_checks(f.hom) + rb_hom_checks(f)).ok
                assert compose_rb_homs(identity_rb_hom(f.target), f) == f
                assert compose_rb_homs(f, identity_rb_hom(f.source)) == f
            inner = compose_rb_homs(h0, h1)
            assert run_checks(hom_checks(inner.hom) + rb_hom_checks(inner)).ok  # closure
            assert compose_rb_homs(inner, h2) == compose_rb_homs(h0, compose_rb_homs(h1, h2))
        for F in catalog.HOMOMORPHISMS.values():
            left = compose_rb_homs(identity_rb_hom(F.target), F)
            assert run_checks(hom_checks(left.hom) + rb_hom_checks(left)).ok


def test_criterion_8_morphism_calculus():
    with criterion(8, "morphism-calculus"):
        for name, G in catalog.TWO_TERM_STRUCTURES.items():
            view = RBLie2View(G)
            rng = random.Random(f"samples:{name}".encode())

            def rand_vec(n):
                return vec(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(n)))

            for _ in range(100):
                h = Morphism2V(rand_vec(view.dim0), rand_vec(view.dim1))
                g = Morphism2V(view.target(h), rand_vec(view.dim1))
                f = Morphism2V(view.target(g), rand_vec(view.dim1))
                assert view.compose(f, view.compose(g, h)) == \
                    view.compose(view.compose(f, g), h)
                assert view.compose(view.identity(view.target(f)), f) == f
                assert view.compose(f, view.identity(f.source)) == f
                a = Morphism2V(rand_vec(view.dim0), rand_vec(view.dim1))
                b = Morphism2V(rand_vec(view.dim0), rand_vec(view.dim1))
                first, second = bracket_forms(view, a, b)
                assert first == second
                fp = Morphism2V(rand_vec(view.dim0), rand_vec(view.dim1))
                gp = Morphism2V(rand_vec(view.dim0), rand_vec(view.dim1))
                f2 = Morphism2V(view.target(fp), rand_vec(view.dim1))
                g2 = Morphism2V(view.target(gp), rand_vec(view.dim1))
                assert view.bracket(view.compose(f2, fp), view.compose(g2, gp)) == \
                    view.compose(view.bracket(f2, g2), view.bracket(fp, gp))


def test_criterion_9_cli_contract(capsys, tmp_path):
    with criterion(9, "cli-contract"):
        files = sorted(CATALOG_DIR.glob("*.json"))
        assert len(files) >= 30
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert dumps(loads(text)) == text, path.name

        assert cli_main(["verify", str(CATALOG_DIR / "aff1-rb-shift.json")]) == 0
        capsys.readouterr()

        bad = tmp_path / "bad.json"
        assert cli_main(["mutate", str(CATALOG_DIR / "sl2-adjoint-rb2-tri.json"),
                         "--site", "r0,0,1", "--delta", "1", "-o", str(bad)]) == 0
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert cli_main(["verify", str(bad)]) == 1
            out = capsys.readouterr().out
            lines = out.strip().splitlines()
            assert lines == sorted(lines)
            assert all(line.startswith("VIOLATION ") for line in lines)
            outputs.append(out)
        assert outputs[0] == outputs[1]

        broken = tmp_path / "broken.json"
        broken.write_text('{"kind": "lie"')
        assert cli_main(["verify", str(broken)]) == 2
        capsys.readouterr()
