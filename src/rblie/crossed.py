"""Crossed modules of Lie, operator-equipped Lie, and pre-Lie algebras,
one check builder per flavour, the correspondence with strict two-term
structures, the pre-Lie construction and its Lie composite (the derived
crossed module), and semidirect assembly.  Each check builder is the
constituents' checks `prefixed` by `g0-`/`g1-` or `p0-`/`p1-` plus one
`report.family` per axiom, over a residual of basis indices.
`cli.verify_structure` runs the builder of a document's flavour; each
construction runs the builders of its output.

Action data mirrors `RBRepresentation`: one endomorphism matrix of the top
term per basis vector of the bottom term, extended linearly.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb

from .errors import NotStrict
from .liealg import (LieAlgebra, PreLieAlgebra, RotaBaxterLieAlgebra, act_on,
                     action_hom_residual, action_rb_residual, chain_residual,
                     commutator, hom_residual, lie_checks,
                     operator_product, prelie_checks, rb_checks, row_major,
                     semidirect_data)
from .report import Checks, choose, family, grid, run_checks
from .tensors import BilinearMap, LinearMap, vadd, vneg, vsub
from .twoterm import (TwoTermRBLInfinity, rb_triple_checks, two_term, two_term_checks,
                      with_operators)
from .value import Value


class LieCrossedModule(Value, shapes={"d": "g0.dim g1.dim", "rho": "g0.dim g1.dim g1.dim"}):
    g0: LieAlgebra
    g1: LieAlgebra
    d: LinearMap                  # g1 -> g0
    rho: tuple[LinearMap, ...]    # action of g0 on g1


class RBLieCrossedModule(Value, shapes={"t0": "base.g0.dim base.g0.dim",
                                        "t1": "base.g1.dim base.g1.dim"}):
    base: LieCrossedModule
    t0: LinearMap
    t1: LinearMap


class PreLieCrossedModule(Value, shapes={"delta": "p0.dim p1.dim",
                                         "l_act": "p0.dim p1.dim p1.dim",
                                         "r_act": "p0.dim p1.dim p1.dim"}):
    p0: PreLieAlgebra
    p1: PreLieAlgebra
    delta: LinearMap
    l_act: tuple[LinearMap, ...]
    r_act: tuple[LinearMap, ...]


def lie_crossed_checks(cm: LieCrossedModule) -> Checks:
    n0, n1 = cm.g0.dim, cm.g1.dim
    br0, br1, d, rho = cm.g0.bracket, cm.g1.bracket, cm.d, cm.rho

    def action_der(i, a, b):
        act = rho[i]
        return vsub(act(br1(a, b)), vadd(br1(act(a), b), br1(a, act(b))))

    return (lie_checks(cm.g0).prefixed("g0-") + lie_checks(cm.g1).prefixed("g1-")
            + family("d-hom", partial(hom_residual, d, br1, br0), *choose(n1, 2))
            + family("action-hom", lambda i, j: action_hom_residual(rho, br0(i, j), i, j),
                     *choose(n0, 2))
            + family("action-der", action_der,
                     lambda: ((i, a, b) for i in range(n0) for a, b in combinations(range(n1), 2)),
                     n0 * comb(n1, 2))
            + family("peiffer1", lambda i, a: vsub(d(rho[i](a)), br0(i, d(a))), *grid(n0, n1))
            + family("peiffer2", lambda a, b: vsub(act_on(rho, d(a), b, n1), br1(a, b)),
                     *grid(n1, n1)))


def rb_crossed_checks(cm: RBLieCrossedModule) -> Checks:
    base = cm.base
    return (lie_crossed_checks(base)
            + rb_checks(RotaBaxterLieAlgebra(base.g0, cm.t0)).prefixed("g0-")
            + rb_checks(RotaBaxterLieAlgebra(base.g1, cm.t1)).prefixed("g1-")
            + family("d-rb", partial(chain_residual, cm.t1, cm.t0, base.d, base.d),
                     *grid(base.g1.dim))
            + family("action-rb", partial(action_rb_residual, base.rho, cm.t0, cm.t1),
                     *grid(base.g0.dim)))


def prelie_crossed_checks(pm: PreLieCrossedModule) -> Checks:
    n0, n1 = pm.p0.dim, pm.p1.dim
    m0, m1, delta, l_act, r_act = pm.p0.mult, pm.p1.mult, pm.delta, pm.l_act, pm.r_act

    def l_rep(i, j):
        return action_hom_residual(l_act, vsub(m0(i, j), m0(j, i)), i, j)

    def lr_rep(i, j):
        # l_x r_y - r_y l_x = r_{x*y} - r_y r_x: the mixed term composes the
        # left action outermost, which is what the semidirect product on
        # p0 (+) p1 needs to satisfy the defining identity
        l, r, xy = l_act[i], r_act[j], m0(i, j)
        return row_major([vsub(vsub(l(r(c)), r(l(c))),
                               vsub(act_on(r_act, xy, c, n1), r(r_act[i](c))))
                          for c in range(n1)])

    pairs1, mixed = grid(n1, n1), grid(n0, n1)
    return (prelie_checks(pm.p0).prefixed("p0-") + prelie_checks(pm.p1).prefixed("p1-")
            + family("delta-hom", partial(hom_residual, delta, m1, m0), *pairs1)
            + family("l-rep", l_rep, *choose(n0, 2))
            + family("lr-rep", lr_rep, *grid(n0, n0))
            + family("delta-l", lambda i, a: vsub(delta(l_act[i](a)), m0(i, delta(a))), *mixed)
            + family("delta-r", lambda i, a: vsub(delta(r_act[i](a)), m0(delta(a), i)), *mixed)
            + family("peiffer-l", lambda a, b: vsub(act_on(l_act, delta(a), b, n1), m1(a, b)),
                     *pairs1)
            + family("peiffer-r", lambda a, b: vsub(act_on(r_act, delta(b), a, n1), m1(a, b)),
                     *pairs1))


def strict_to_crossed_data(G: TwoTermRBLInfinity) -> RBLieCrossedModule:
    """The data mapping only; no verification.  Top bracket
    [u,v] = l2(l1(u), v), action x.u = l2(x, u), operators (R0, R1)."""
    L = G.linf
    n0, n1 = L.dim0, L.dim1
    bracket1 = {(a, b): L.l2_01(L.complex.l1(a), b) for a in range(n1) for b in range(n1)}
    g1 = LieAlgebra(n1, BilinearMap.from_map(n1, n1, n1, bracket1, skew=True))
    g0 = LieAlgebra(n0, L.l2_00)
    rho = tuple(L.l2_01.partial(1, i) for i in range(n0))
    return RBLieCrossedModule(LieCrossedModule(g0, g1, L.complex.l1, rho), G.rb.r0, G.rb.r1)


def strict_to_crossed(G: TwoTermRBLInfinity) -> RBLieCrossedModule:
    if not G.is_strict:
        raise NotStrict("structure has a nonzero homotopy component")
    out = strict_to_crossed_data(G)
    run_checks(rb_crossed_checks(out)).require_ok("crossed module from strict structure")
    return out


def crossed_to_strict_data(cm: RBLieCrossedModule) -> TwoTermRBLInfinity:
    base = cm.base
    n0, n1 = base.g0.dim, base.g1.dim
    l2_01 = BilinearMap.from_map(
        n0, n1, n1,
        {(i, a): base.rho[i].column(a) for i in range(n0) for a in range(n1)})
    return with_operators(two_term(n0, n1, base.d, base.g0.bracket, l2_01), cm.t0, cm.t1)


def crossed_to_strict(cm: RBLieCrossedModule) -> TwoTermRBLInfinity:
    out = crossed_to_strict_data(cm)
    run_checks(two_term_checks(out.linf) + rb_triple_checks(out)).require_ok(
        "strict structure from crossed module")
    return out


def crossed_semidirect(cm: RBLieCrossedModule) -> RotaBaxterLieAlgebra:
    """Algebra on g0 (+) g1 with bracket
    [x+u, y+v] = [x,y] + x.v - y.u + [u,v] and block-diagonal operator."""
    base = cm.base
    out = semidirect_data(RotaBaxterLieAlgebra(base.g0, cm.t0),
                          RotaBaxterLieAlgebra(base.g1, cm.t1), base.rho)
    run_checks(lie_checks(out.base) + rb_checks(out)).require_ok(
        "semidirect product of crossed module")
    return out


def rb_crossed_to_prelie_crossed_data(cm: RBLieCrossedModule) -> PreLieCrossedModule:
    """The data mapping only; no verification.  x *0 y = [T0 x, y],
    u *1 v = [T1 u, v], l_x = rho(T0 x), r_x u = -rho(x) T1 u."""
    base = cm.base
    n0, n1 = base.g0.dim, base.g1.dim
    l_act = tuple(LinearMap.from_columns(
        [act_on(base.rho, cm.t0(i), c, n1) for c in range(n1)], n1) for i in range(n0))
    r_act = tuple(LinearMap.from_columns(
        [vneg(base.rho[i](cm.t1(c))) for c in range(n1)], n1) for i in range(n0))
    return PreLieCrossedModule(operator_product(base.g0, cm.t0),
                               operator_product(base.g1, cm.t1), base.d, l_act, r_act)


def rb_crossed_to_prelie_crossed(cm: RBLieCrossedModule) -> PreLieCrossedModule:
    out = rb_crossed_to_prelie_crossed_data(cm)
    run_checks(prelie_crossed_checks(out)).require_ok(
        "pre-Lie crossed module from operator crossed module")
    return out


def prelie_crossed_to_lie_crossed(pm: PreLieCrossedModule) -> LieCrossedModule:
    """Commutator brackets with action l - r."""
    n1 = pm.p1.dim
    rho = tuple(LinearMap.from_columns([vsub(l(c), r(c)) for c in range(n1)], n1)
                for l, r in zip(pm.l_act, pm.r_act))
    out = LieCrossedModule(commutator(pm.p0), commutator(pm.p1), pm.delta, rho)
    run_checks(lie_crossed_checks(out)).require_ok(
        "Lie crossed module from pre-Lie crossed module")
    return out


def derived_crossed(cm: RBLieCrossedModule) -> LieCrossedModule:
    """The Lie crossed module of the pre-Lie crossed module of `cm`: brackets
    [x,y] = [T0 x, y] - [T0 y, x] and action x.u = rho(T0 x) u + rho(x) T1 u.
    Only the output is verified: (T0, T1) maps it back to `cm` exactly when
    `cm`'s operator identities hold, and the `descent-*` homomorphisms of
    the catalog carry that map."""
    return prelie_crossed_to_lie_crossed(rb_crossed_to_prelie_crossed_data(cm))
