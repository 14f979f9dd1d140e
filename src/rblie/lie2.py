"""Skeletal 2-vector-space calculus over a two-term structure: morphisms as
(source, arrow part) pairs, the bracket functor, coherence-diagram
evaluation, and round-trip extraction.

A morphism is the pair (source in g0, arrow in g1); its target is always
derived as source + l1(arrow) and never stored.  Composition adds arrow
parts; `compose(f, g)` means "g then f" and requires t(g) = s(f).

Since composition adds arrow parts and identities carry none, the arrow
part of a diagram path is the sum of the arrow parts of its named
generators, and two parallel paths agree exactly when those sums agree.
Each diagram residual is that difference of arrow sums
(`_path_difference`).  Each diagram check is cross-checked against the
corresponding chain-level condition; a disagreement is reported as its
own violation (condition ids `coh-vs-rb3`, `jcoh-vs-d` and
`cohm-vs-rbh3`), never patched silently.
Each diagram residual is evaluated once per index tuple and feeds both the
diagram id and its cross-check id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .errors import NotComposable
from .report import Check, VerificationReport, run_checks
from .tensors import (Vec, vadd, vbasis, vneg, vsub, vzero, is_zero)
from .twoterm import (RBLInfinityHom, TwoTermRBLInfinity,
                      quadruple_identity_residual, rb3_residual,
                      rbh3_residual)


@dataclass(frozen=True)
class Morphism2V:
    source: Vec  # in g0
    arrow: Vec   # in g1


@dataclass(frozen=True)
class RBLie2View:
    """Derived accessors over a two-term structure: objects are g0,
    morphisms are g0 (+) g1, and the operator functor acts by (R0, R1)."""
    base: TwoTermRBLInfinity

    @property
    def dim0(self) -> int:
        return self.base.linf.dim0

    @property
    def dim1(self) -> int:
        return self.base.linf.dim1

    def identity(self, x: Vec) -> Morphism2V:
        return Morphism2V(tuple(x), vzero(self.dim1))

    def target(self, f: Morphism2V) -> Vec:
        return vadd(f.source, self.base.linf.l1v(f.arrow))

    def compose(self, f: Morphism2V, g: Morphism2V) -> Morphism2V:
        """g then f; defined when t(g) = s(f); arrow parts add."""
        tg = self.target(g)
        if tg != f.source:
            raise NotComposable(f"target {tg} of the first leg differs from source {f.source}")
        return Morphism2V(g.source, vadd(g.arrow, f.arrow))

    def bracket_objects(self, x: Vec, y: Vec) -> Vec:
        return self.base.linf.l2_obj(x, y)

    def bracket(self, f: Morphism2V, g: Morphism2V) -> Morphism2V:
        """Bracket functor on a pair of morphisms, in the first displayed
        form.  The second form differs from it by the second equation of
        condition `a` on the two arrow parts, which the chain-level checks
        report, so a structure that fails it is not rejected here."""
        L = self.base.linf
        return Morphism2V(L.l2_obj(f.source, g.source),
                          vadd(vneg(L.l2_act(g.source, f.arrow)),
                               L.l2_act(self.target(f), g.arrow)))

    def bracket_forms(self, f: Morphism2V, g: Morphism2V) -> tuple[Morphism2V, Morphism2V]:
        """Both displayed expressions for the bracket of two morphisms."""
        L = self.base.linf
        first = self.bracket(f, g)
        second = vadd(L.l2_act(f.source, g.arrow),
                      vneg(L.l2_act(self.target(g), f.arrow)))
        return first, Morphism2V(first.source, second)

    def jacobiator(self, x: Vec, y: Vec, z: Vec) -> Morphism2V:
        L = self.base.linf
        return Morphism2V(L.l2_obj(L.l2_obj(x, y), z), L.l3v(x, y, z))

    def rb_obj(self, x: Vec) -> Vec:
        return self.base.rb.r0.apply(x)

    def rb_mor(self, f: Morphism2V) -> Morphism2V:
        return Morphism2V(self.base.rb.r0.apply(f.source),
                          self.base.rb.r1.apply(f.arrow))

    def rb_iso(self, x: Vec, y: Vec) -> Morphism2V:
        """The comparison morphism [Px, Py] -> P[Px, y] + P[x, Py] with
        arrow part R2(x, y)."""
        px, py = self.rb_obj(x), self.rb_obj(y)
        return Morphism2V(self.bracket_objects(px, py), self.base.rb.r2.apply(x, y))


def _path_difference(left: list[list[Morphism2V]],
                     right: list[list[Morphism2V]]) -> Vec:
    """Arrow part of the left path minus that of the right path, each path
    given as its steps of named generators.  Composing adds arrow parts and
    the identities a step leaves untouched carry none, so a path's arrow
    part is the sum of its generators' arrow parts."""
    def arrows(steps):
        return vadd(*(gen.arrow for step in steps for gen in step))
    return vsub(arrows(left), arrows(right))


def coherence_residual(view: RBLie2View, i: int, j: int, k: int) -> Vec:
    """Arrow-part difference of the two composite paths of the operator
    coherence diagram at one ordered basis triple of g0."""
    d0 = view.dim0
    x, y, z = vbasis(d0, i), vbasis(d0, j), vbasis(d0, k)
    br, J, R = view.bracket_objects, view.jacobiator, view.rb_iso
    px, py, pz = view.rb_obj(x), view.rb_obj(y), view.rb_obj(z)
    one = view.identity

    return _path_difference([
        [J(px, py, pz)],
        [view.bracket(one(px), R(y, z)), view.bracket(R(x, z), one(py))],
        [R(x, br(py, z)), R(x, br(y, pz)), R(br(x, pz), y), R(br(px, z), y)],
        [view.rb_mor(J(px, z, py))],
        [view.rb_mor(view.bracket(R(x, y), one(z)))],
    ], [
        [view.bracket(R(x, y), one(pz))],
        [R(br(px, y), z), R(br(x, py), z)],
        [view.rb_mor(J(px, y, pz)), view.rb_mor(J(x, py, pz))],
        [view.rb_mor(view.bracket(R(x, z), one(y))),
         view.rb_mor(view.bracket(one(x), R(y, z)))],
    ])


def _with_crosscheck(diagram: str, crosscheck: str, indices, residual, chain,
                     agree=vsub) -> list[Check]:
    """Per index tuple, the diagram check and its cross-check against the
    chain-level residual; both read one cached evaluation of the diagram
    residual."""
    def pair(idx):
        once = cache(lambda: residual(*idx))
        return [(diagram, idx, once),
                (crosscheck, idx, lambda: agree(once(), chain(*idx)))]
    return [check for idx in indices for check in pair(idx)]


def coherence_checks(G: TwoTermRBLInfinity) -> list[Check]:
    """Diagram-level operator coherence over every ordered basis triple,
    cross-checked triple-by-triple against the chain-level cyclic
    condition (id `coh-vs-rb3` flags any disagreement)."""
    view = RBLie2View(G)
    return _with_crosscheck("coh", "coh-vs-rb3", product(range(G.linf.dim0), repeat=3),
                            lambda *idx: coherence_residual(view, *idx),
                            lambda *idx: rb3_residual(G, *idx))


def verify_rbcoh(G: TwoTermRBLInfinity) -> VerificationReport:
    return run_checks(coherence_checks(G))


def jacobiator_coherence_residual(view: RBLie2View,
                                  i: int, j: int, k: int, l: int) -> Vec:
    """Arrow-part difference of the two composite paths of the Jacobiator
    coherence diagram at one ordered basis quadruple of g0."""
    d0 = view.dim0
    w, x, y, z = (vbasis(d0, t) for t in (i, j, k, l))
    br, J = view.bracket_objects, view.jacobiator
    one = view.identity

    return _path_difference([
        [view.bracket(J(w, x, y), one(z))],
        [J(br(w, y), x, z), J(w, br(x, y), z)],
        [view.bracket(J(w, y, z), one(x))],
        [view.bracket(one(w), J(x, y, z))],
    ], [
        [J(br(w, x), y, z)],
        [view.bracket(J(w, x, z), one(y))],
        [J(w, br(x, z), y), J(br(w, z), x, y), J(w, x, br(y, z))],
    ])


def jacobiator_coherence_checks(G: TwoTermRBLInfinity) -> list[Check]:
    """Diagram-level Jacobiator coherence over every ordered basis
    quadruple, cross-checked against the chain-level four-argument
    identity (id `jcoh-vs-d` flags any disagreement)."""
    view = RBLie2View(G)
    return _with_crosscheck("jcoh", "jcoh-vs-d", product(range(G.linf.dim0), repeat=4),
                            lambda *idx: jacobiator_coherence_residual(view, *idx),
                            lambda *idx: quadruple_identity_residual(G.linf, *idx))


def verify_jacobiator_coherence(G: TwoTermRBLInfinity) -> VerificationReport:
    return run_checks(jacobiator_coherence_checks(G))


def naturality_residual(view: RBLie2View, a: int, j: int) -> Vec:
    """Naturality of the comparison morphism along the basis morphism
    (0, u_a) against the object e_j, evaluated as two composite paths."""
    d0, d1 = view.dim0, view.dim1
    y = vbasis(d0, j)
    f = Morphism2V(vzero(d0), vbasis(d1, a))
    py = view.rb_obj(y)
    one = view.identity
    return _path_difference([
        [view.rb_iso(f.source, y)],
        [view.rb_mor(view.bracket(view.rb_mor(f), one(y))),
         view.rb_mor(view.bracket(f, one(py)))],
    ], [
        [view.bracket(view.rb_mor(f), one(py))],
        [view.rb_iso(view.target(f), y)],
    ])


def verify_naturality(G: TwoTermRBLInfinity) -> VerificationReport:
    """The morphism-calculus form of the degree-one operator condition;
    its residuals coincide with the chain-level ones."""
    view = RBLie2View(G)

    def res(a, j):
        return lambda: naturality_residual(view, a, j)

    checks = [("nt", (a, j), res(a, j))
              for a in range(view.dim1) for j in range(view.dim0)]
    return run_checks(checks)


class RBLie2Hom:
    """The view maps of an operator homomorphism F into the target view:
    the functor f1 on morphisms and the comparison morphisms
    f2(x, y): [F x, F y] -> F[x, y] and f3(x): R'(F x) -> F(R x), whose
    arrow parts are phi2 and phi3."""

    def __init__(self, F: RBLInfinityHom):
        self.F = F
        self.target = RBLie2View(F.target)

    def f1(self, f: Morphism2V) -> Morphism2V:
        return Morphism2V(self.F.hom.phi0.apply(f.source), self.F.hom.phi1.apply(f.arrow))

    def f2(self, x: Vec, y: Vec) -> Morphism2V:
        p0 = self.F.hom.phi0.apply
        return Morphism2V(self.target.bracket_objects(p0(x), p0(y)), self.F.hom.phi2.apply(x, y))

    def f3(self, x: Vec) -> Morphism2V:
        return Morphism2V(self.target.rb_obj(self.F.hom.phi0.apply(x)), self.F.phi3.apply(x))


def hom_coherence_residual(F: RBLInfinityHom, i: int, j: int) -> Vec:
    """Arrow-part difference of the two composite paths of the
    homomorphism coherence diagram at one ordered basis pair."""
    src_view, hom = RBLie2View(F.source), RBLie2Hom(F)
    tgt_view, f1, f2, f3 = hom.target, hom.f1, hom.f2, hom.f3
    src = F.source.linf
    p0 = F.hom.phi0.apply
    x, y = vbasis(src.dim0, i), vbasis(src.dim0, j)

    one = tgt_view.identity
    return _path_difference([
        [tgt_view.rb_iso(p0(x), p0(y))],
        [tgt_view.rb_mor(tgt_view.bracket(f3(x), one(p0(y)))),
         tgt_view.rb_mor(tgt_view.bracket(one(p0(x)), f3(y)))],
        [tgt_view.rb_mor(f2(src_view.rb_obj(x), y)),
         tgt_view.rb_mor(f2(x, src_view.rb_obj(y)))],
        [f3(src.l2_obj(src_view.rb_obj(x), y)),
         f3(src.l2_obj(x, src_view.rb_obj(y)))],
    ], [
        [tgt_view.bracket(f3(x), f3(y))],
        [f2(src_view.rb_obj(x), src_view.rb_obj(y))],
        [f1(src_view.rb_iso(x, y))],
    ])


def _zero_iff_zero(a: Vec, b: Vec) -> Vec:
    return vzero(len(a)) if is_zero(a) == is_zero(b) else vsub(a, b)


def hom_coherence_checks(F: RBLInfinityHom) -> list[Check]:
    """Diagram-level homomorphism coherence over every ordered basis pair.

    The diagram bracket of the two comparison morphisms f3(x), f3(y) has
    arrow part B(x, y) = l2'(R0' phi0 x + l1' phi3 x, phi3 y)
    - l2'(R0' phi0 y, phi3 x), which the chain-level condition reads as
    zero by degree; the two residuals differ by exactly that term:

        cohm(x, y) = rbh3(x, y) - B(x, y).

    The cross-check still asserts only zero iff zero pair-by-pair and
    reports any disagreement under `cohm-vs-rbh3`.
    """
    return _with_crosscheck("cohm", "cohm-vs-rbh3",
                            product(range(F.source.linf.dim0), repeat=2),
                            lambda *idx: hom_coherence_residual(F, *idx),
                            lambda *idx: rbh3_residual(F, *idx), _zero_iff_zero)


def verify_rbcohm(F: RBLInfinityHom) -> VerificationReport:
    return run_checks(hom_coherence_checks(F))


def roundtrip_structure(G: TwoTermRBLInfinity) -> VerificationReport:
    """Extract the two-term data back out of the skeletal view through the
    morphism calculus and compare it entrywise with the original."""
    view = RBLie2View(G)
    L = G.linf
    d0, d1 = L.dim0, L.dim1
    e0 = lambda i: vbasis(d0, i)
    ker = lambda a: Morphism2V(vzero(d0), vbasis(d1, a))

    checks: list[Check] = []
    for a in range(d1):
        checks.append(("rt-l1", (a,),
                       (lambda a=a: vsub(view.target(ker(a)), L.complex.l1.column(a)))))
        checks.append(("rt-r1", (a,),
                       (lambda a=a: vsub(view.rb_mor(ker(a)).arrow, G.rb.r1.column(a)))))
    for i in range(d0):
        checks.append(("rt-r0", (i,),
                       (lambda i=i: vsub(view.rb_obj(e0(i)), G.rb.r0.column(i)))))
        for j in range(d0):
            checks.append(("rt-l2-obj", (i, j), (lambda i=i, j=j: vsub(
                view.bracket(view.identity(e0(i)), view.identity(e0(j))).source,
                L.l2_00.on_basis(i, j)))))
        for a in range(d1):
            checks.append(("rt-l2-act", (i, a), (lambda i=i, a=a: vsub(
                view.bracket(view.identity(e0(i)), ker(a)).arrow,
                L.l2_01.on_basis(i, a)))))
    for i, j in combinations(range(d0), 2):
        checks.append(("rt-r2", (i, j), (lambda i=i, j=j: vsub(
            view.rb_iso(e0(i), e0(j)).arrow, G.rb.r2.on_basis(i, j)))))
    for i, j, k in combinations(range(d0), 3):
        checks.append(("rt-l3", (i, j, k), (lambda i=i, j=j, k=k: vsub(
            view.jacobiator(e0(i), e0(j), e0(k)).arrow, L.l3.on_basis(i, j, k)))))
    return run_checks(checks)


def roundtrip_hom(F: RBLInfinityHom) -> VerificationReport:
    """Push a homomorphism through the view maps (`RBLie2Hom`) and extract
    its chain data back; every component must return identical."""
    hom = RBLie2Hom(F)
    d0, d1 = F.source.linf.dim0, F.source.linf.dim1
    e0 = lambda i: vbasis(d0, i)

    checks: list[Check] = []
    for i in range(d0):
        checks.append(("rt-phi0", (i,), (lambda i=i: vsub(
            hom.f1(Morphism2V(e0(i), vzero(d1))).source, F.hom.phi0.column(i)))))
        checks.append(("rt-phi3", (i,), (lambda i=i: vsub(
            hom.f3(e0(i)).arrow, F.phi3.column(i)))))
        for j in range(d0):
            checks.append(("rt-phi2", (i, j), (lambda i=i, j=j: vsub(
                hom.f2(e0(i), e0(j)).arrow, F.hom.phi2.on_basis(i, j)))))
    for a in range(d1):
        checks.append(("rt-phi1", (a,), (lambda a=a: vsub(
            hom.f1(Morphism2V(vzero(d0), vbasis(d1, a))).arrow, F.hom.phi1.column(a)))))
    return run_checks(checks)
