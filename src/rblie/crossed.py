"""Crossed modules of Lie, operator-equipped Lie, and pre-Lie algebras,
one check builder per flavour, the correspondence with strict two-term
structures, the pre-Lie construction and its Lie composite (the derived
crossed module), and semidirect assembly.  Each check builder is the
constituents' checks `prefixed` by `g0-`/`g1-` or `p0-`/`p1-` plus one
`report.family` per axiom, over a residual of basis indices.
`cli.verify_structure` runs the builder of a document's flavour; each
construction runs the builders of its output.

An action is one bilinear map x.u = act(x, u) with cells (row; element,
col), as a two-term structure's ``l2_01`` is, so the correspondence
passes it through unchanged.  The read-only views `LieCrossedModule.rho`
and `PreLieCrossedModule.l_act` / `r_act`, one matrix per acting basis
vector, serve the benchmark's mutation sites; nothing here reads them.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb

from .errors import NotStrict
from .liealg import (LieAlgebra, PreLieAlgebra, RotaBaxterLieAlgebra,
                     action_hom_residual, action_rb_residual, chain_residual,
                     commutator, hom_residual, lie_checks,
                     operator_product, prelie_checks, rb_checks, row_major,
                     semidirect_data)
from .report import Checks, choose, family, grid, run_checks
from .tensors import BilinearMap, LinearMap, from_cells, vadd, vneg, vsub
from .twoterm import (TwoTermRBLInfinity, rb_triple_checks, two_term, two_term_checks,
                      with_operators)
from .value import Value


def _matrices(act: BilinearMap) -> tuple[LinearMap, ...]:
    """The matrix u -> act(e_x, u) of each acting basis vector x."""
    return tuple(act.partial(1, x) for x in range(act.dim_a))


class LieCrossedModule(Value, shapes={"d": "g0.dim g1.dim", "act": "g1.dim g0.dim g1.dim"}):
    g0: LieAlgebra
    g1: LieAlgebra
    d: LinearMap      # g1 -> g0
    act: BilinearMap  # action of g0 on g1

    rho = property(lambda self: _matrices(self.act))  # read-only view, see above


class RBLieCrossedModule(Value, shapes={"t0": "base.g0.dim base.g0.dim",
                                        "t1": "base.g1.dim base.g1.dim"}):
    base: LieCrossedModule
    t0: LinearMap
    t1: LinearMap


class PreLieCrossedModule(Value, shapes={"delta": "p0.dim p1.dim",
                                         "left": "p1.dim p0.dim p1.dim",
                                         "right": "p1.dim p0.dim p1.dim"}):
    p0: PreLieAlgebra
    p1: PreLieAlgebra
    delta: LinearMap
    left: BilinearMap   # l_x u = left(x, u)
    right: BilinearMap  # r_x u = right(x, u)

    l_act = property(lambda self: _matrices(self.left))  # read-only views, see above
    r_act = property(lambda self: _matrices(self.right))


def lie_crossed_checks(cm: LieCrossedModule) -> Checks:
    n0, n1 = cm.g0.dim, cm.g1.dim
    br0, br1, d, act = cm.g0.bracket, cm.g1.bracket, cm.d, cm.act

    def action_der(i, a, b):
        return vsub(act(i, br1(a, b)), vadd(br1(act(i, a), b), br1(a, act(i, b))))

    return (lie_checks(cm.g0).prefixed("g0-") + lie_checks(cm.g1).prefixed("g1-")
            + family("d-hom", partial(hom_residual, d, br1, br0), *choose(n1, 2))
            + family("action-hom", lambda i, j: action_hom_residual(act, br0(i, j), i, j),
                     *choose(n0, 2))
            + family("action-der", action_der,
                     lambda: ((i, a, b) for i in range(n0) for a, b in combinations(range(n1), 2)),
                     n0 * comb(n1, 2))
            + family("peiffer1", lambda i, a: vsub(d(act(i, a)), br0(i, d(a))), *grid(n0, n1))
            + family("peiffer2", lambda a, b: vsub(act(d(a), b), br1(a, b)), *grid(n1, n1)))


def rb_crossed_checks(cm: RBLieCrossedModule) -> Checks:
    base = cm.base
    return (lie_crossed_checks(base)
            + rb_checks(RotaBaxterLieAlgebra(base.g0, cm.t0)).prefixed("g0-")
            + rb_checks(RotaBaxterLieAlgebra(base.g1, cm.t1)).prefixed("g1-")
            + family("d-rb", partial(chain_residual, cm.t1, cm.t0, base.d, base.d),
                     *grid(base.g1.dim))
            + family("action-rb", partial(action_rb_residual, base.act, cm.t0, cm.t1),
                     *grid(base.g0.dim)))


def prelie_crossed_checks(pm: PreLieCrossedModule) -> Checks:
    n0, n1 = pm.p0.dim, pm.p1.dim
    m0, m1, delta, left, right = pm.p0.mult, pm.p1.mult, pm.delta, pm.left, pm.right

    def l_rep(i, j):
        return action_hom_residual(left, vsub(m0(i, j), m0(j, i)), i, j)

    def lr_rep(i, j):
        # l_x r_y - r_y l_x = r_{x*y} - r_y r_x: the mixed term composes the
        # left action outermost, which is what the semidirect product on
        # p0 (+) p1 needs to satisfy the defining identity
        xy = m0(i, j)
        return row_major([vsub(vsub(left(i, right(j, c)), right(j, left(i, c))),
                               vsub(right(xy, c), right(j, right(i, c))))
                          for c in range(n1)])

    pairs1, mixed = grid(n1, n1), grid(n0, n1)
    return (prelie_checks(pm.p0).prefixed("p0-") + prelie_checks(pm.p1).prefixed("p1-")
            + family("delta-hom", partial(hom_residual, delta, m1, m0), *pairs1)
            + family("l-rep", l_rep, *choose(n0, 2))
            + family("lr-rep", lr_rep, *grid(n0, n0))
            + family("delta-l", lambda i, a: vsub(delta(left(i, a)), m0(i, delta(a))), *mixed)
            + family("delta-r", lambda i, a: vsub(delta(right(i, a)), m0(delta(a), i)), *mixed)
            + family("peiffer-l", lambda a, b: vsub(left(delta(a), b), m1(a, b)), *pairs1)
            + family("peiffer-r", lambda a, b: vsub(right(delta(b), a), m1(a, b)), *pairs1))


def strict_to_crossed_data(G: TwoTermRBLInfinity) -> RBLieCrossedModule:
    """The data mapping only; no verification.  Top bracket
    [u,v] = l2(l1(u), v), action x.u = l2(x, u), operators (R0, R1)."""
    L = G.linf
    n0, n1 = L.dim0, L.dim1
    bracket1 = {(a, b): L.l2_01(L.l1(a), b) for a in range(n1) for b in range(n1)}
    g1 = LieAlgebra(n1, BilinearMap.from_map(n1, n1, n1, bracket1, skew=True))
    g0 = LieAlgebra(n0, L.l2_00)
    return RBLieCrossedModule(LieCrossedModule(g0, g1, L.l1, L.l2_01), G.r0, G.r1)


def strict_to_crossed(G: TwoTermRBLInfinity) -> RBLieCrossedModule:
    if not G.is_strict:
        raise NotStrict("structure has a nonzero homotopy component")
    out = strict_to_crossed_data(G)
    run_checks(rb_crossed_checks(out)).require_ok("crossed module from strict structure")
    return out


def crossed_to_strict_data(cm: RBLieCrossedModule) -> TwoTermRBLInfinity:
    """The data mapping only; no verification.  l1 = d, l2 = the bracket
    of g0 and the action, operators (T0, T1)."""
    base = cm.base
    return with_operators(two_term(base.g0.dim, base.g1.dim, base.d, base.g0.bracket, base.act),
                          cm.t0, cm.t1)


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
                          RotaBaxterLieAlgebra(base.g1, cm.t1), base.act)
    run_checks(lie_checks(out.base) + rb_checks(out)).require_ok(
        "semidirect product of crossed module")
    return out


def rb_crossed_to_prelie_crossed_data(cm: RBLieCrossedModule) -> PreLieCrossedModule:
    """The data mapping only; no verification.  x *0 y = [T0 x, y],
    u *1 v = [T1 u, v], l_x u = T0 x . u, r_x u = -x . T1 u."""
    base, t0, t1 = cm.base, cm.t0, cm.t1
    act, n0, n1 = base.act, base.g0.dim, base.g1.dim
    pairs = [(i, c) for i in range(n0) for c in range(n1)]
    left = BilinearMap.from_map(n0, n1, n1, {(i, c): act(t0(i), c) for i, c in pairs})
    right = BilinearMap.from_map(n0, n1, n1, {(i, c): vneg(act(i, t1(c))) for i, c in pairs})
    return PreLieCrossedModule(operator_product(base.g0, t0),
                               operator_product(base.g1, t1), base.d, left, right)


def rb_crossed_to_prelie_crossed(cm: RBLieCrossedModule) -> PreLieCrossedModule:
    out = rb_crossed_to_prelie_crossed_data(cm)
    run_checks(prelie_crossed_checks(out)).require_ok(
        "pre-Lie crossed module from operator crossed module")
    return out


def prelie_crossed_to_lie_crossed(pm: PreLieCrossedModule) -> LieCrossedModule:
    """Commutator brackets with action l - r."""
    cells = pm.left.cells()
    for key, a in pm.right.cells().items():
        cells[key] = cells.get(key, 0) - a
    out = LieCrossedModule(commutator(pm.p0), commutator(pm.p1), pm.delta,
                           from_cells(pm.left.shape, cells))
    run_checks(lie_crossed_checks(out)).require_ok(
        "Lie crossed module from pre-Lie crossed module")
    return out


def derived_crossed(cm: RBLieCrossedModule) -> LieCrossedModule:
    """The Lie crossed module of the pre-Lie crossed module of `cm`: brackets
    [x,y] = [T0 x, y] - [T0 y, x] and action x.u = T0 x . u + x . T1 u.
    Only the output is verified: (T0, T1) maps it back to `cm` exactly when
    `cm`'s operator identities hold, and the `descent-*` homomorphisms of
    the catalog carry that map."""
    return prelie_crossed_to_lie_crossed(rb_crossed_to_prelie_crossed_data(cm))
