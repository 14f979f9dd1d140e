"""Built-in catalog: small exactly-verified algebras, operators, crossed
modules, two-term structures and homomorphisms.

Everything here is constructed from integer data and certified by the
verifiers at build time (`scripts/build_catalog.py` regenerates the shipped
document files and refuses to write anything that fails).
"""

from __future__ import annotations

from .crossed import (LieCrossedModule, RBLieCrossedModule,
                      crossed_to_strict, derived_crossed)
from .liealg import LieAlgebra, RotaBaxterLieAlgebra
from .tensors import BilinearMap, LinearMap, TrilinearMap, from_cells, vec
from .twoterm import (RBLInfinityHom, TwoTermLInfinity, TwoTermRBLInfinity,
                      identity_rb_hom, rb_hom, two_term, with_operators)
from .value import replace


# --- Lie algebras ---------------------------------------------------------

def aff1() -> LieAlgebra:
    """Nonabelian dim 2: [e0, e1] = e1."""
    return LieAlgebra.from_brackets(2, {(0, 1): vec(0, 1)}, labels=("e0", "e1"))


def heisenberg3() -> LieAlgebra:
    """[e0, e1] = e2, center spanned by e2."""
    return LieAlgebra.from_brackets(3, {(0, 1): vec(0, 0, 1)}, labels=("e0", "e1", "e2"))


def sl2() -> LieAlgebra:
    """Basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return LieAlgebra.from_brackets(
        3,
        {(0, 1): vec(0, 0, 1), (2, 0): vec(2, 0, 0), (2, 1): vec(0, -2, 0)},
        labels=("e", "f", "h"))


def solvable4() -> LieAlgebra:
    """dim 4 solvable: ad(e0) acts on span(e1..e3) by a Jordan-type block."""
    return LieAlgebra.from_brackets(
        4,
        {(0, 1): vec(0, 1, 0, 0),
         (0, 2): vec(0, 1, 1, 0),
         (0, 3): vec(0, 0, 0, 1)},
        labels=("e0", "e1", "e2", "e3"))


LIE_ALGEBRAS = {
    "abelian1": LieAlgebra.abelian(1),
    "abelian2": LieAlgebra.abelian(2),
    "abelian3": LieAlgebra.abelian(3),
    "aff1": aff1(),
    "heis3": heisenberg3(),
    "sl2": sl2(),
    "solv4": solvable4(),
}


# --- Rota-Baxter operators ------------------------------------------------

def aff1_rb_shift() -> RotaBaxterLieAlgebra:
    """R(e0) = 0, R(e1) = e0 on aff1."""
    return RotaBaxterLieAlgebra(aff1(), LinearMap.from_rows([[0, 1], [0, 0]]))


def aff1_rb_neg() -> RotaBaxterLieAlgebra:
    """R(e0) = -e0, R(e1) = 0 on aff1."""
    return RotaBaxterLieAlgebra(aff1(), LinearMap.from_rows([[-1, 0], [0, 0]]))


def sl2_rb_zero() -> RotaBaxterLieAlgebra:
    return RotaBaxterLieAlgebra(sl2(), LinearMap.zero(3, 3))


def sl2_rb_triangular() -> RotaBaxterLieAlgebra:
    """R(e) = 0, R(f) = -h, R(h) = 2e."""
    return RotaBaxterLieAlgebra(
        sl2(), LinearMap.from_rows([[0, 0, 2], [0, 0, 0], [0, -1, 0]]))


def heis3_rb_center() -> RotaBaxterLieAlgebra:
    """Projection onto the center."""
    return RotaBaxterLieAlgebra(
        heisenberg3(), LinearMap.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]]))


def abelian2_rb_jordan() -> RotaBaxterLieAlgebra:
    """Any operator works on an abelian algebra; this one is non-normal."""
    return RotaBaxterLieAlgebra(LieAlgebra.abelian(2), LinearMap.from_rows([[1, 1], [0, 1]]))


def solv4_rb_zero() -> RotaBaxterLieAlgebra:
    return RotaBaxterLieAlgebra(solvable4(), LinearMap.zero(4, 4))


RB_ALGEBRAS = {
    "aff1-rb-shift": aff1_rb_shift(),
    "aff1-rb-neg": aff1_rb_neg(),
    "sl2-rb-zero": sl2_rb_zero(),
    "sl2-rb-tri": sl2_rb_triangular(),
    "heis3-rb-center": heis3_rb_center(),
    "abelian2-rb-jordan": abelian2_rb_jordan(),
    "solv4-rb-zero": solv4_rb_zero(),
}


# --- crossed modules ------------------------------------------------------

def _ideal_crossed(alg: LieAlgebra, ideal_indices: tuple[int, ...],
                   t0: LinearMap, t1: LinearMap) -> RBLieCrossedModule:
    """Crossed module of an ideal inclusion with the adjoint action."""
    n = alg.dim
    m = len(ideal_indices)
    pos = {g: a for a, g in enumerate(ideal_indices)}

    def restrict(v):  # g-coordinates -> ideal coordinates, must be supported there
        for i, c in enumerate(v):
            if c != 0 and i not in pos:
                raise ValueError("subspace is not an ideal")
        return vec(*(v[g] for g in ideal_indices))

    bracket1 = {(a, b): restrict(alg.bracket.on_basis(ideal_indices[a], ideal_indices[b]))
                for a in range(m) for b in range(m)}
    g1 = LieAlgebra(m, BilinearMap.from_map(m, m, m, bracket1, skew=True))
    d = from_cells((n, m), {(g, a): 1 for a, g in enumerate(ideal_indices)})
    act = BilinearMap.from_map(n, m, m, {(i, a): restrict(alg.bracket.on_basis(i, g))
                                         for i in range(n) for a, g in enumerate(ideal_indices)})
    return RBLieCrossedModule(LieCrossedModule(alg, g1, d, act), t0, t1)


def aff1_ideal_cm_zero() -> RBLieCrossedModule:
    return _ideal_crossed(aff1(), (1,), LinearMap.zero(2, 2), LinearMap.zero(1, 1))


def aff1_ideal_cm_neg() -> RBLieCrossedModule:
    return _ideal_crossed(aff1(), (1,), aff1_rb_neg().r, LinearMap.zero(1, 1))


def heis3_center_cm() -> RBLieCrossedModule:
    return _ideal_crossed(heisenberg3(), (2,), heis3_rb_center().r,
                          LinearMap.identity(1))


def sl2_adjoint_cm_tri() -> RBLieCrossedModule:
    r = sl2_rb_triangular().r
    return _ideal_crossed(sl2(), (0, 1, 2), r, r)


def trivial_cm() -> RBLieCrossedModule:
    """Zero boundary, abelian top term, trivial action."""
    return RBLieCrossedModule(
        LieCrossedModule(LieAlgebra.abelian(2), LieAlgebra.abelian(1), LinearMap.zero(2, 1),
                         BilinearMap.zero(2, 1, 1)),
        LinearMap.zero(2, 2), LinearMap.zero(1, 1))


CROSSED_MODULES = {
    "aff1-ideal-cm-zero": aff1_ideal_cm_zero(),
    "aff1-ideal-cm-neg": aff1_ideal_cm_neg(),
    "heis3-center-cm": heis3_center_cm(),
    "sl2-adjoint-cm-tri": sl2_adjoint_cm_tri(),
    "trivial-cm": trivial_cm(),
}


# --- two-term structures --------------------------------------------------

def adjoint_two_term(alg: LieAlgebra) -> TwoTermLInfinity:
    """g1 = g0 = g, identity differential, bracket acting in both degrees.
    The action copy l2_01 carries no skew flag, like its document field."""
    n = alg.dim
    return two_term(n, n, LinearMap.identity(n), alg.bracket, replace(alg.bracket, skew=False))


def adjoint_rb_two_term(rba: RotaBaxterLieAlgebra) -> TwoTermRBLInfinity:
    return with_operators(adjoint_two_term(rba.base), rba.r, rba.r)


def sl2_cocycle_two_term() -> TwoTermLInfinity:
    """g0 = sl2, g1 one-dimensional, zero differential and action; the
    homotopy is the invariant-form 3-cocycle B([x,y], z) with B(e,f) = 1,
    B(h,h) = 2."""
    l3 = TrilinearMap.from_map(3, 1, {(0, 1, 2): vec(2)}, alt=True)
    return two_term(3, 1, l2_00=sl2().bracket, l3=l3)


def sl2_cocycle_rb(r2_value: int = 0) -> TwoTermRBLInfinity:
    """Operator triple (0, 1, R2) on the cocycle structure; with zero
    degree-zero operator every skew R2 satisfies the cyclic condition."""
    r2 = BilinearMap.from_map(3, 3, 1, {(0, 2): vec(r2_value)}, skew=True)
    return with_operators(sl2_cocycle_two_term(), r1=LinearMap.identity(1), r2=r2)


def solv4_module_cocycle_rb() -> TwoTermRBLInfinity:
    """g0 the solvable dim-4 algebra, g1 a one-dimensional module on which
    e0 acts by 3, homotopy the volume form on span(e1, e2, e3).  The two
    sums of the four-argument homotopy identity are individually nonzero
    here (+3 and -3 at the full quadruple) and cancel only under the
    adopted sign convention, so this instance pins it."""
    action = BilinearMap.from_map(4, 1, 1, {(0, 0): vec(3)})
    l3 = TrilinearMap.from_map(4, 1, {(1, 2, 3): vec(1)}, alt=True)
    return with_operators(two_term(4, 1, l2_00=solvable4().bracket, l2_01=action, l3=l3))


def aff1_adjoint_completed() -> TwoTermRBLInfinity:
    """A non-exact degree-zero operator on the adjoint complex of aff1,
    made valid by the corrector the identity differential forces:
    R2(e0, e1) = 2 e0 + e1.  Six of the nine grouped summands of the
    cyclic degree-two condition are individually nonzero here, so the
    cyclic bookkeeping is exercised against live cancellations."""
    r0 = LinearMap.from_rows([[-1, -1], [0, -1]])
    r2 = BilinearMap.from_map(2, 2, 2, {(0, 1): vec(2, 1)}, skew=True)
    return with_operators(adjoint_two_term(aff1()), r0, r0, r2)


def two_term_catalog() -> dict[str, TwoTermRBLInfinity]:
    out = {
        "aff1-adjoint-rb2-shift": adjoint_rb_two_term(aff1_rb_shift()),
        "aff1-adjoint-rb2-neg": adjoint_rb_two_term(aff1_rb_neg()),
        "aff1-adjoint-rb2-completed": aff1_adjoint_completed(),
        "sl2-adjoint-rb2-zero": adjoint_rb_two_term(sl2_rb_zero()),
        "sl2-adjoint-rb2-tri": adjoint_rb_two_term(sl2_rb_triangular()),
        "sl2-cocycle-rb2": sl2_cocycle_rb(0),
        "sl2-cocycle-rb2-nonstrict": sl2_cocycle_rb(1),
        "solv4-module-cocycle-rb2": solv4_module_cocycle_rb(),
    }
    for name, cm in CROSSED_MODULES.items():
        out[f"{name}-strict"] = crossed_to_strict(cm)
    return out


TWO_TERM_STRUCTURES = two_term_catalog()


# --- homomorphisms --------------------------------------------------------

def derived_rb_crossed(cm: RBLieCrossedModule) -> RBLieCrossedModule:
    """The derived crossed module with the same operators (T0, T1), which
    `operator_descent_hom` maps back to `cm`; whether they are operators on
    the derived module the caller checks with the verifier."""
    return RBLieCrossedModule(derived_crossed(cm), cm.t0, cm.t1)


def operator_descent_hom(cm: RBLieCrossedModule) -> RBLInfinityHom:
    """The (T0, T1)-homomorphism from the strict structure of the derived
    crossed module to the strict structure of the original one."""
    return rb_hom(crossed_to_strict(derived_rb_crossed(cm)), crossed_to_strict(cm),
                  cm.t0, cm.t1)


def heis3_cocycle_phi2_hom() -> RBLInfinityHom:
    """An endomorphism-shaped homomorphism with a nonzero degree-two
    corrector: phi2 is the central 2-cocycle of the Heisenberg algebra.
    The degree-zero operator moves e0 off the center, so the corrector
    terms of the compatibility conditions are computed with live data and
    cancel only with the correct signs."""
    r0 = LinearMap.from_columns([vec(0, 1, 0), vec(0, 0, 0), vec(0, 0, 0)])
    G = with_operators(two_term(3, 1, l2_00=heisenberg3().bracket), r0, LinearMap.identity(1))
    phi2 = BilinearMap.from_map(3, 3, 1, {(0, 1): vec(1)}, skew=True)
    return rb_hom(G, G, LinearMap.identity(3), LinearMap.identity(1), phi2)


def solv4_cocycle_phi2_hom() -> RBLInfinityHom:
    """An endomorphism-shaped homomorphism over the solvable algebra with
    a one-dimensional module on which e0 acts by 2: phi2 dual to e2^e3 is
    a module-valued 2-cocycle, so the action and bracket corrector terms
    of the third homomorphism condition are individually nonzero (2, -1,
    -1 at the triple (e0, e2, e3)) and cancel only with correct signs."""
    action = BilinearMap.from_map(4, 1, 1, {(0, 0): vec(2)})
    G = with_operators(two_term(4, 1, l2_00=solvable4().bracket, l2_01=action))
    phi2 = BilinearMap.from_map(4, 4, 1, {(2, 3): vec(1)}, skew=True)
    return rb_hom(G, G, LinearMap.identity(4), LinearMap.identity(1), phi2)


def aff1_phi3_hom() -> RBLInfinityHom:
    """A homomorphism with a nonzero degree-shift component phi3 out of a
    structure with empty top term.  The shift operator makes the two phi3
    summands of the compatibility condition individually nonzero at the
    pair (e1, e1); they cancel only with the correct relative sign."""
    bracket, shift = aff1().bracket, aff1_rb_shift().r
    src = with_operators(two_term(2, 0, l2_00=bracket), shift)
    tgt = with_operators(two_term(2, 1, l2_00=bracket), shift)
    phi3 = LinearMap.from_rows([[1, 1]])  # e0 -> f0', e1 -> f0'
    return rb_hom(src, tgt, LinearMap.identity(2), phi3=phi3)


def hom_catalog() -> dict[str, RBLInfinityHom]:
    out = {}
    for name in ("aff1-adjoint-rb2-shift", "sl2-cocycle-rb2-nonstrict",
                 "heis3-center-cm-strict"):
        out[f"id-{name}"] = identity_rb_hom(TWO_TERM_STRUCTURES[name])
    for name in ("aff1-ideal-cm-neg", "heis3-center-cm", "sl2-adjoint-cm-tri"):
        out[f"descent-{name}"] = operator_descent_hom(CROSSED_MODULES[name])
    out["heis3-cocycle-phi2-hom"] = heis3_cocycle_phi2_hom()
    out["solv4-cocycle-phi2-hom"] = solv4_cocycle_phi2_hom()
    out["aff1-phi3-hom"] = aff1_phi3_hom()
    return out


HOMOMORPHISMS = hom_catalog()


def shipped_documents() -> dict[str, object]:
    """Everything the catalog directory carries, keyed by file stem.
    The build script writes these; tests compare the shipped bytes against
    them to catch drift."""
    from .crossed import rb_crossed_to_prelie_crossed
    from .liealg import adjoint_representation
    from .search import SearchSpec, enumerate_rb_operators
    from .serialize import SearchResults

    docs: dict[str, object] = {}
    docs.update(LIE_ALGEBRAS)
    docs.update(RB_ALGEBRAS)
    docs["aff1-adjoint-rep"] = adjoint_representation(RB_ALGEBRAS["aff1-rb-shift"])
    docs.update(CROSSED_MODULES)
    docs["aff1-ideal-cm-lie"] = CROSSED_MODULES["aff1-ideal-cm-zero"].base
    docs["aff1-ideal-cm-neg-prelie"] = rb_crossed_to_prelie_crossed(
        CROSSED_MODULES["aff1-ideal-cm-neg"])
    docs.update(TWO_TERM_STRUCTURES)
    docs.update(HOMOMORPHISMS)

    plain = adjoint_two_term(LIE_ALGEBRAS["aff1"])
    docs["aff1-adjoint-2term"] = plain
    docs["aff1-adjoint-2term-idhom"] = identity_rb_hom(with_operators(plain)).hom

    spec = SearchSpec(LIE_ALGEBRAS["aff1"])
    found = enumerate_rb_operators(spec)
    docs["aff1-rb-search"] = SearchResults(spec.target, spec.coeffs, tuple(r.r for r in found))
    return docs
