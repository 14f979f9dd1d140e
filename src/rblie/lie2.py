"""Skeletal 2-vector-space calculus over a two-term structure: morphisms as
(source, arrow part) pairs, the bracket functor, coherence-diagram
evaluation, and the round trips.

A morphism is the pair (source in g0, arrow in g1); its target is always
derived as source + l1(arrow) and never stored.  Composition adds arrow
parts; `compose(f, g)` means "g then f" and requires t(g) = s(f).

Since composition adds arrow parts and identities carry none, a diagram
residual is the difference of the arrow sums of its two paths
(`_path_difference`).  So the diagram generators return arrow parts only
(a bracket with an identity has arrow part l2(x, a) for [1_x, g] and
-l2(y, a) for [f, 1_y], where a is the other morphism's arrow part), the
diagram residuals take the structure itself, and no check builds a
`Morphism2V` or an `RBLie2View`.

`coh` and `jcoh` run at every ordered tuple through
`twoterm.ordered_checks`: once per sorted tuple of distinct indices when
the maps they need (l2_00, l3 and, for `coh`, R2) are skew and
alternating, read times each ordering's `parity`; literally at each tuple
when one is not.  Once the skew and alternating flags hold, the `coh` and
`jcoh` residuals are term by term the chain conditions `rb3` and `d` (the
tests prove both identities), so neither is compared with its chain
condition here.  The homomorphism diagram `cohm` has every term of
the chain condition `rbh3` plus the arrow part B of the bracket
[f3(x), f3(y)] (`phi3_bracket`), so it is read as `rbh3` - B from the
cached residual of the `rbh3` family; its `cohm-vs-rbh3` cross-check reads
the same evaluations, and a disagreement is reported as its own violation,
never patched silently.

The round trips read each map back at basis vectors against its stored
image (`_read_back`), one `rt-*` id per map.  That compares a map with
itself: independent content waits for the genuine Lie 2-algebra of a
structure (Baez-Crans, *HDA VI*).
"""

from __future__ import annotations

from functools import cache, partial

from .errors import NotComposable
from .report import Checks, VerificationReport, choose, family, grid, run_checks
from .tensors import (Vec, vadd, vbasis, vneg, vsub, vzero, is_zero)
from .twoterm import RBLInfinityHom, TwoTermRBLInfinity, ordered_checks
from .value import Value


class Morphism2V(Value):
    source: Vec  # in g0
    arrow: Vec   # in g1


class RBLie2View(Value):
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
        return vadd(f.source, self.base.linf.complex.l1.apply(f.arrow))

    def compose(self, f: Morphism2V, g: Morphism2V) -> Morphism2V:
        """g then f; defined when t(g) = s(f); arrow parts add."""
        tg = self.target(g)
        if tg != f.source:
            raise NotComposable(f"target {tg} of the first leg differs from source {f.source}")
        return Morphism2V(g.source, vadd(g.arrow, f.arrow))

    def bracket(self, f: Morphism2V, g: Morphism2V) -> Morphism2V:
        """Bracket functor on a pair of morphisms, in the first displayed
        form.  The second form differs from it by the second equation of
        condition `a` on the two arrow parts, which the chain-level checks
        report, so a structure that fails it is not rejected here."""
        L = self.base.linf
        return Morphism2V(L.l2_00.apply(f.source, g.source),
                          vadd(vneg(L.l2_01.apply(g.source, f.arrow)),
                               L.l2_01.apply(self.target(f), g.arrow)))


def _path_difference(left: list[list[Vec]], right: list[list[Vec]]) -> Vec:
    """Arrow part of the left path minus that of the right path, each path
    given as its steps of named generators' arrow parts.  Composing adds
    arrow parts and the identities a step leaves untouched carry none, so a
    path's arrow part is the sum of its generators' arrow parts."""
    def arrows(steps):
        return vadd(*(arrow for step in steps for arrow in step))
    return vsub(arrows(left), arrows(right))


def coherence_residual(G: TwoTermRBLInfinity, i: int, j: int, k: int) -> Vec:
    """Arrow-part difference of the two composite paths of the operator
    coherence diagram at one ordered basis triple of g0.  The basis objects
    x, y, z are the indices i, j, k, at which the maps are called: J is l3,
    P is R1 on arrow parts and R is R2, the arrow part of
    [Px, Py] -> P[Px, y] + P[x, Py]."""
    br, act, J, P, R = G.linf.l2_00, G.linf.l2_01, G.linf.l3, G.rb.r1, G.rb.r2
    x, y, z = i, j, k
    px, py, pz = G.rb.r0(x), G.rb.r0(y), G.rb.r0(z)

    return _path_difference([
        [J(px, py, pz)],
        [act(px, R(y, z)), vneg(act(py, R(x, z)))],
        [R(x, br(py, z)), R(x, br(y, pz)), R(br(x, pz), y), R(br(px, z), y)],
        [P(J(px, z, py))],
        [vneg(P(act(z, R(x, y))))],
    ], [
        [vneg(act(pz, R(x, y)))],
        [R(br(px, y), z), R(br(x, py), z)],
        [P(J(px, y, pz)), P(J(x, py, pz))],
        [vneg(P(act(y, R(x, z)))), P(act(x, R(y, z)))],
    ])


def coherence_checks(G: TwoTermRBLInfinity) -> Checks:
    """Diagram-level operator coherence over every ordered basis triple."""
    L = G.linf
    return ordered_checks("coh", L.dim0, 3, partial(coherence_residual, G), L.dim1,
                          (L.l2_00, L.l3, G.rb.r2))


def jacobiator_coherence_residual(G: TwoTermRBLInfinity,
                                  i: int, j: int, k: int, l: int) -> Vec:
    """Arrow-part difference of the two composite paths of the Jacobiator
    coherence diagram at one ordered basis quadruple of g0.  The basis
    objects w, x, y, z are the indices i, j, k, l, at which the maps are
    called; J is the Jacobiator l3."""
    br, act, J = G.linf.l2_00, G.linf.l2_01, G.linf.l3
    w, x, y, z = i, j, k, l

    return _path_difference([
        [vneg(act(z, J(w, x, y)))],
        [J(br(w, y), x, z), J(w, br(x, y), z)],
        [vneg(act(x, J(w, y, z)))],
        [act(w, J(x, y, z))],
    ], [
        [J(br(w, x), y, z)],
        [vneg(act(y, J(w, x, z)))],
        [J(w, br(x, z), y), J(br(w, z), x, y), J(w, x, br(y, z))],
    ])


def jacobiator_coherence_checks(G: TwoTermRBLInfinity) -> Checks:
    """Diagram-level Jacobiator coherence over every ordered basis
    quadruple."""
    L = G.linf
    return ordered_checks("jcoh", L.dim0, 4, partial(jacobiator_coherence_residual, G),
                          L.dim1, (L.l2_00, L.l3))


def phi3_bracket(F: RBLInfinityHom, i: int, j: int) -> Vec:
    """Arrow part B(x, y) = l2'(R0' phi0 x + l1' phi3 x, phi3 y)
    - l2'(R0' phi0 y, phi3 x) of the diagram bracket [f3(x), f3(y)] of the
    comparison morphisms, read by calls at the basis indices x, y."""
    p0, p3 = F.hom.phi0, F.phi3
    act, r0, l1 = F.target.linf.l2_01, F.target.rb.r0, F.target.linf.complex.l1
    x, y = i, j
    return vsub(act(vadd(r0(p0(x)), l1(p3(x))), p3(y)), act(r0(p0(y)), p3(x)))


def _zero_iff_zero(a: Vec, b: Vec) -> Vec:
    return vzero(len(a)) if is_zero(a) == is_zero(b) else vsub(a, b)


def hom_coherence_checks(F: RBLInfinityHom, chain: Checks) -> Checks:
    """Diagram-level homomorphism coherence over every ordered basis pair.

    The diagram bracket of the two comparison morphisms f3(x), f3(y) has
    arrow part B(x, y) (`phi3_bracket`), which the chain-level condition
    reads as zero by degree; the two residuals differ by exactly that term:

        cohm(x, y) = rbh3(x, y) - B(x, y).

    So `cohm` reads the cached residual of the `rbh3` family of `chain`
    (`rb_hom_checks(F)`) and subtracts B.  The cross-check still asserts
    only zero iff zero pair-by-pair and reports any disagreement under
    `cohm-vs-rbh3`; it reads the same two cached evaluations.
    """
    [(rbh3, *pairs)] = [fam[1:] for fam in chain.families if fam[0] == "rbh3"]
    cohm = cache(lambda i, j: vsub(rbh3(i, j), phi3_bracket(F, i, j)))
    return (family("cohm", cohm, *pairs)
            + family("cohm-vs-rbh3", lambda i, j: _zero_iff_zero(cohm(i, j), rbh3(i, j)),
                     *pairs))


def _read_back(cond: str, m, tuples, count: int) -> Checks:
    """`cond` at each of the tuples that `tuples()` makes: `m` applied to
    those basis vectors minus its stored image there."""
    return family(cond, lambda *idx: vsub(m.apply(*map(vbasis, m.shape[1:], idx)), m(*idx)),
                  tuples, count)


def roundtrip_structure(G: TwoTermRBLInfinity) -> VerificationReport:
    """Read each map of the structure back at basis vectors, one `rt-*` id
    per map; this certifies nothing independent of the maps themselves."""
    L, rb = G.linf, G.rb
    d0, d1 = L.dim0, L.dim1
    return run_checks(
        _read_back("rt-l1", L.complex.l1, *grid(d1))
        + _read_back("rt-r1", rb.r1, *grid(d1))
        + _read_back("rt-r0", rb.r0, *grid(d0))
        + _read_back("rt-l2-obj", L.l2_00, *grid(d0, d0))
        + _read_back("rt-l2-act", L.l2_01, *grid(d0, d1))
        + _read_back("rt-r2", rb.r2, *choose(d0, 2))
        + _read_back("rt-l3", L.l3, *choose(d0, 3)))


def roundtrip_hom(F: RBLInfinityHom) -> VerificationReport:
    """Read each map of the homomorphism back at basis vectors, one `rt-*`
    id per map; this certifies nothing independent of the maps themselves."""
    d0, d1 = F.source.linf.dim0, F.source.linf.dim1
    return run_checks(
        _read_back("rt-phi0", F.hom.phi0, *grid(d0))
        + _read_back("rt-phi3", F.phi3, *grid(d0))
        + _read_back("rt-phi2", F.hom.phi2, *grid(d0, d0))
        + _read_back("rt-phi1", F.hom.phi1, *grid(d1)))
