"""Crossed modules of Lie, operator-equipped Lie, and pre-Lie algebras,
one check builder per flavour, the correspondence with strict two-term
structures, the pre-Lie construction and its Lie composite (the derived
crossed module), and semidirect assembly.  `cli.verify_structure` runs
the builder of a document's flavour; each construction runs the builders
of its output.

Action data mirrors `RBRepresentation`: one endomorphism matrix of the top
term per basis vector of the bottom term, extended linearly, with shapes
checked by the same `check_action_shapes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotStrict, ShapeMismatch
from .liealg import (LieAlgebra, PreLieAlgebra, RotaBaxterLieAlgebra, act_on,
                     action_hom_residual, action_rb_residual, chain_residual,
                     check_action_shapes, commutator, hom_residual, lie_checks,
                     operator_product, prelie_checks, rb_checks, row_major,
                     semidirect_data)
from .report import Check, prefix_checks, run_checks
from .tensors import BilinearMap, LinearMap, TrilinearMap, vadd, vneg, vsub
from .twoterm import (RBTriple, TwoTermComplex, TwoTermLInfinity,
                      TwoTermRBLInfinity, rb_triple_checks, two_term_checks)


@dataclass(frozen=True)
class LieCrossedModule:
    g0: LieAlgebra
    g1: LieAlgebra
    d: LinearMap                  # g1 -> g0
    rho: tuple[LinearMap, ...]    # action of g0 on g1

    def __post_init__(self):
        if (self.d.rows, self.d.cols) != (self.g0.dim, self.g1.dim):
            raise ShapeMismatch("boundary map must be a dim(g0) x dim(g1) matrix")
        check_action_shapes(self.g0.dim, self.g1.dim, self.rho, "action")


@dataclass(frozen=True)
class RBLieCrossedModule:
    base: LieCrossedModule
    t0: LinearMap
    t1: LinearMap

    def __post_init__(self):
        n0, n1 = self.base.g0.dim, self.base.g1.dim
        if (self.t0.rows, self.t0.cols) != (n0, n0):
            raise ShapeMismatch("bottom operator must be square on g0")
        if (self.t1.rows, self.t1.cols) != (n1, n1):
            raise ShapeMismatch("top operator must be square on g1")


@dataclass(frozen=True)
class PreLieCrossedModule:
    p0: PreLieAlgebra
    p1: PreLieAlgebra
    delta: LinearMap
    l_act: tuple[LinearMap, ...]
    r_act: tuple[LinearMap, ...]

    def __post_init__(self):
        if (self.delta.rows, self.delta.cols) != (self.p0.dim, self.p1.dim):
            raise ShapeMismatch("boundary map must be a dim(p0) x dim(p1) matrix")
        check_action_shapes(self.p0.dim, self.p1.dim, self.l_act, "left action")
        check_action_shapes(self.p0.dim, self.p1.dim, self.r_act, "right action")


def lie_crossed_checks(cm: LieCrossedModule) -> list[Check]:
    n0, n1 = cm.g0.dim, cm.g1.dim
    br0, br1, d = cm.g0.bracket, cm.g1.bracket, cm.d

    def action_hom(i, j):
        return lambda: action_hom_residual(cm.rho, br0(i, j), i, j)

    def action_der(i, a, b):
        act = cm.rho[i]
        return lambda: vsub(act(br1(a, b)), vadd(br1(act(a), b), br1(a, act(b))))

    def peiffer1(i, a):
        return lambda: vsub(d(cm.rho[i](a)), br0(i, d(a)))

    def peiffer2(a, b):
        return lambda: vsub(act_on(cm.rho, d(a), b, n1), br1(a, b))

    checks = prefix_checks("g0-", lie_checks(cm.g0))
    checks += prefix_checks("g1-", lie_checks(cm.g1))
    checks += [("d-hom", (a, b),
                lambda a=a, b=b: hom_residual(cm.d, cm.g1.bracket, cm.g0.bracket, a, b))
               for a, b in combinations(range(n1), 2)]
    checks += [("action-hom", (i, j), action_hom(i, j))
               for i, j in combinations(range(n0), 2)]
    checks += [("action-der", (i, a, b), action_der(i, a, b))
               for i in range(n0) for a, b in combinations(range(n1), 2)]
    checks += [("peiffer1", (i, a), peiffer1(i, a))
               for i in range(n0) for a in range(n1)]
    checks += [("peiffer2", (a, b), peiffer2(a, b))
               for a in range(n1) for b in range(n1)]
    return checks


def rb_crossed_checks(cm: RBLieCrossedModule) -> list[Check]:
    base = cm.base
    n0, n1 = base.g0.dim, base.g1.dim

    def action_rb(i):
        return lambda: action_rb_residual(base.rho, cm.t0, cm.t1, i)

    checks = lie_crossed_checks(base)
    checks += prefix_checks("g0-", rb_checks(RotaBaxterLieAlgebra(base.g0, cm.t0)))
    checks += prefix_checks("g1-", rb_checks(RotaBaxterLieAlgebra(base.g1, cm.t1)))
    checks += [("d-rb", (a,), lambda a=a: chain_residual(cm.t1, cm.t0, base.d, base.d, a))
               for a in range(n1)]
    checks += [("action-rb", (i,), action_rb(i)) for i in range(n0)]
    return checks


def prelie_crossed_checks(pm: PreLieCrossedModule) -> list[Check]:
    n0, n1 = pm.p0.dim, pm.p1.dim
    m0, m1, delta = pm.p0.mult, pm.p1.mult, pm.delta

    def commutator0(i, j):
        return vsub(m0(i, j), m0(j, i))

    def l_rep(i, j):
        return lambda: action_hom_residual(pm.l_act, commutator0(i, j), i, j)

    def lr_rep(i, j):
        # l_x r_y - r_y l_x = r_{x*y} - r_y r_x: the mixed term composes the
        # left action outermost, which is what the semidirect product on
        # p0 (+) p1 needs to satisfy the defining identity
        l, r = pm.l_act[i], pm.r_act[j]

        def go():
            xy = m0(i, j)
            return row_major([vsub(vsub(l(r(c)), r(l(c))),
                                   vsub(act_on(pm.r_act, xy, c, n1), r(pm.r_act[i](c))))
                              for c in range(n1)])
        return go

    def delta_l(i, a):
        return lambda: vsub(delta(pm.l_act[i](a)), m0(i, delta(a)))

    def delta_r(i, a):
        return lambda: vsub(delta(pm.r_act[i](a)), m0(delta(a), i))

    def peiffer_l(a, b):
        return lambda: vsub(act_on(pm.l_act, delta(a), b, n1), m1(a, b))

    def peiffer_r(a, b):
        return lambda: vsub(act_on(pm.r_act, delta(b), a, n1), m1(a, b))

    checks = prefix_checks("p0-", prelie_checks(pm.p0))
    checks += prefix_checks("p1-", prelie_checks(pm.p1))
    checks += [("delta-hom", (a, b),
                lambda a=a, b=b: hom_residual(pm.delta, pm.p1.mult, pm.p0.mult, a, b))
               for a in range(n1) for b in range(n1)]
    checks += [("l-rep", (i, j), l_rep(i, j)) for i, j in combinations(range(n0), 2)]
    checks += [("lr-rep", (i, j), lr_rep(i, j))
               for i in range(n0) for j in range(n0)]
    checks += [("delta-l", (i, a), delta_l(i, a))
               for i in range(n0) for a in range(n1)]
    checks += [("delta-r", (i, a), delta_r(i, a))
               for i in range(n0) for a in range(n1)]
    checks += [("peiffer-l", (a, b), peiffer_l(a, b))
               for a in range(n1) for b in range(n1)]
    checks += [("peiffer-r", (a, b), peiffer_r(a, b))
               for a in range(n1) for b in range(n1)]
    return checks


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
    linf = TwoTermLInfinity(TwoTermComplex(n0, n1, base.d),
                            base.g0.bracket, l2_01,
                            TrilinearMap.zero(n0, n1, alt=True))
    r2 = BilinearMap.zero(n0, n0, n1, skew=True)
    return TwoTermRBLInfinity(linf, RBTriple(cm.t0, cm.t1, r2))


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
    (T0, T1) is certified a crossed-module homomorphism back to `cm`: on the
    brackets (t0-hom, t1-hom), the boundary (square) and the actions
    (action-compat)."""
    out = prelie_crossed_to_lie_crossed(rb_crossed_to_prelie_crossed_data(cm))
    base = cm.base
    n0, n1 = base.g0.dim, base.g1.dim

    def t0_hom(i, j):
        return lambda: hom_residual(cm.t0, out.g0.bracket, base.g0.bracket, i, j)

    def t1_hom(a, b):
        return lambda: hom_residual(cm.t1, out.g1.bracket, base.g1.bracket, a, b)

    def action_compat(i, a):
        return lambda: vsub(cm.t1(out.rho[i](a)), act_on(base.rho, cm.t0(i), cm.t1(a), n1))

    checks: list[Check] = [("t0-hom", (i, j), t0_hom(i, j))
                           for i, j in combinations(range(n0), 2)]
    checks += [("t1-hom", (a, b), t1_hom(a, b)) for a, b in combinations(range(n1), 2)]
    checks += [("square", (a,), lambda a=a: chain_residual(cm.t1, cm.t0, base.d, base.d, a))
               for a in range(n1)]
    checks += [("action-compat", (i, a), action_compat(i, a))
               for i in range(n0) for a in range(n1)]
    run_checks(checks).require_ok("operators from the derived crossed module")
    return out
