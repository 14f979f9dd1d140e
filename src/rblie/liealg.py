"""Classical layer: Lie algebras, Rota-Baxter operators, pre-Lie algebras,
representations, duals and semidirect products.

Each `*_checks` builder returns its identities for `report.run_checks` as
a sum of `report.family` values over residuals of basis indices (the
module-level `*_residual` functions bound with `partial`, or a local
function); constructions run the builders they certify on their outputs
and raise `InternalInvariantBroken` on failure.
All types are immutable values; every function here is pure.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import comb

from .errors import ShapeMismatch
from .report import Checks, choose, family, grid, run_checks
from .tensors import (BilinearMap, LinearMap, Vec, from_cells, vadd, vscale,
                      vsub, vzero)
from .value import Value


class LieAlgebra(Value, uncompared=("labels",), shapes={"bracket": "dim dim dim"}):
    dim: int
    bracket: BilinearMap  # skew-flagged, dim x dim -> dim
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.dim:
            raise ShapeMismatch("label count does not match dimension")

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(dim, BilinearMap.zero(dim, dim, dim, skew=True))

    @staticmethod
    def from_brackets(dim: int, values: dict[tuple[int, int], Vec],
                      labels: tuple[str, ...] | None = None) -> "LieAlgebra":
        return LieAlgebra(dim, BilinearMap.from_map(dim, dim, dim, values, skew=True), labels)

    def bracket_vec(self, u: Vec, v: Vec) -> Vec:
        return self.bracket.apply(u, v)

    def ad(self, i: int) -> LinearMap:
        """Matrix of ad(e_i) = [e_i, -]."""
        return self.bracket.partial(1, i)


class RotaBaxterLieAlgebra(Value, shapes={"r": "base.dim base.dim"}):
    base: LieAlgebra
    r: LinearMap

    @property
    def dim(self) -> int:
        return self.base.dim


class PreLieAlgebra(Value, shapes={"mult": "dim dim dim"}):
    dim: int
    mult: BilinearMap  # not skew


class RBRepresentation(Value, shapes={"rho": "algebra.dim dim_v dim_v",
                                      "cal_r": "dim_v dim_v"}):
    algebra: RotaBaxterLieAlgebra
    dim_v: int
    rho: tuple[LinearMap, ...]  # one matrix per basis vector of g
    cal_r: LinearMap            # operator on V


def rb_residual(bracket: BilinearMap, r: LinearMap, i: int, j: int) -> Vec:
    """[R e_i, R e_j] - R([R e_i, e_j] + [e_i, R e_j]): the weight-zero
    Rota-Baxter identity at one basis pair."""
    ri, rj = r(i), r(j)
    return vsub(bracket(ri, rj), r(vadd(bracket(ri, j), bracket(i, rj))))


def hom_residual(t: LinearMap, src: BilinearMap, tgt: BilinearMap, i: int, j: int) -> Vec:
    """t(m(e_i, e_j)) - m'(t e_i, t e_j): the linear map t takes the product
    m to the product m' at one basis pair."""
    return vsub(t(src(i, j)), tgt(t(i), t(j)))


def chain_residual(top: LinearMap, bottom: LinearMap, d: LinearMap, d_tgt: LinearMap,
                   a: int) -> Vec:
    """d'(top e_a) - bottom(d e_a): the pair (bottom, top) commutes with the
    differentials d and d' = `d_tgt` at one basis vector of the top term."""
    return vsub(d_tgt(top(a)), bottom(d(a)))


def act_on(rho: tuple[LinearMap, ...], x, u, dim: int) -> Vec:
    """rho(x) u on a module of dimension `dim`, with x and u each a basis
    index or a vector: rho[x](u) for an index x, else the sum of
    c rho[k](u) over the nonzero coordinates c = x[k]."""
    if type(x) is int:
        return rho[x](u)
    return vadd(vzero(dim), *(vscale(c, rho[k](u)) for k, c in enumerate(x) if c))


def row_major(cols: list[Vec]) -> Vec:
    """Row-major coordinates of the matrix with columns `cols`."""
    return tuple(a for row in zip(*cols) for a in row)


def action_hom_residual(rho: tuple[LinearMap, ...], xy: Vec, i: int, j: int) -> Vec:
    """rho(xy) - [rho(e_i), rho(e_j)], flattened, where xy is the bracket of
    e_i and e_j: the action is a bracket homomorphism."""
    n, a, b = rho[i].rows, rho[i], rho[j]
    return row_major([vsub(act_on(rho, xy, c, n), vsub(a(b(c)), b(a(c))))
                      for c in range(n)])


def action_rb_residual(rho: tuple[LinearMap, ...], r: LinearMap, k: LinearMap,
                       i: int) -> Vec:
    """rho(R x) K - K rho(R x) - K rho(x) K at x = e_i, flattened: the
    operator K on the module is compatible with R."""
    n, rx = k.rows, r(i)
    return row_major([vsub(act_on(rho, rx, k(c), n),
                           k(vadd(act_on(rho, rx, c, n), rho[i](k(c)))))
                      for c in range(n)])


def skew_checks(b: BilinearMap, condition: str = "skew") -> Checks:
    return family(condition, lambda i, j: vadd(b(i, j), b(j, i)),
                  *choose(b.dim_a, 2, repeat=True))


def lie_checks(alg: LieAlgebra) -> Checks:
    """Skew-symmetry on basis pairs, Jacobi on basis triple classes."""
    br = alg.bracket
    return skew_checks(br) + family(
        "jacobi", lambda x, y, z: vadd(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y))),
        *choose(alg.dim, 3))


def rb_checks(rba: RotaBaxterLieAlgebra) -> Checks:
    """The weight-zero operator identity on basis pair classes; the base's
    own identities are `lie_checks(rba.base)`."""
    return family("rota-baxter", partial(rb_residual, rba.base.bracket, rba.r),
                  *choose(rba.dim, 2))


def prelie_checks(p: PreLieAlgebra) -> Checks:
    """Associator symmetry in the first two arguments, exactly."""
    m, n = p.mult, p.dim

    def assoc(x, y, z):
        return vsub(m(m(x, y), z), m(x, m(y, z)))

    return family("pre-lie", lambda i, j, k: vsub(assoc(i, j, k), assoc(j, i, k)),
                  lambda: ((i, j, k) for i, j in combinations(range(n), 2) for k in range(n)),
                  comb(n, 2) * n)


def representation_checks(rep: RBRepresentation) -> Checks:
    """Lie-action property plus the module-operator compatibility identity;
    the algebra's own identities are not included."""
    alg, rho = rep.algebra, rep.rho
    return (family("rep-hom", lambda i, j: action_hom_residual(rho, alg.base.bracket(i, j), i, j),
                   *choose(alg.dim, 2))
            + family("rep-rb", partial(action_rb_residual, rho, alg.r, rep.cal_r),
                     *grid(alg.dim)))


def operator_product(alg: LieAlgebra, r: LinearMap) -> PreLieAlgebra:
    """x * y = [R(x), y], unverified."""
    n = alg.dim
    return PreLieAlgebra(n, BilinearMap.from_map(
        n, n, n, {(i, j): alg.bracket(r(i), j) for i in range(n) for j in range(n)}))


def commutator(p: PreLieAlgebra) -> LieAlgebra:
    """[x, y] = x*y - y*x, unverified."""
    n = p.dim
    return LieAlgebra(n, BilinearMap.from_map(
        n, n, n, {(i, j): vsub(p.mult(i, j), p.mult(j, i))
                  for i in range(n) for j in range(n)}, skew=True))


def prelie_from_rb(rba: RotaBaxterLieAlgebra) -> PreLieAlgebra:
    """x * y = [R(x), y]; the result is re-verified as pre-Lie."""
    out = operator_product(rba.base, rba.r)
    run_checks(prelie_checks(out)).require_ok("pre-Lie product from operator")
    return out


def subadjacent_lie(p: PreLieAlgebra) -> LieAlgebra:
    """Commutator bracket [x,y] = x*y - y*x of a pre-Lie product."""
    out = commutator(p)
    run_checks(lie_checks(out)).require_ok("sub-adjacent commutator bracket")
    return out


def derived_bracket(rba: RotaBaxterLieAlgebra) -> LieAlgebra:
    """[x,y] = [R(x),y] + [x,R(y)]; only the output is verified (R maps it
    to the original bracket exactly when `rba`'s `rota-baxter` holds)."""
    return subadjacent_lie(prelie_from_rb(rba))


def adjoint_representation(rba: RotaBaxterLieAlgebra) -> RBRepresentation:
    """(g; ad, R) with the algebra acting on itself."""
    rho = tuple(rba.base.ad(i) for i in range(rba.dim))
    out = RBRepresentation(rba, rba.dim, rho, rba.r)
    run_checks(representation_checks(out)).require_ok("adjoint representation")
    return out


def dual_representation(rep: RBRepresentation) -> RBRepresentation:
    """(V*; -rho^T, -cal^T); applying it twice returns the original data."""
    def neg_transpose(m: LinearMap) -> LinearMap:
        return from_cells((m.cols, m.rows), {(c, r): -a for (r, c), a in m.cells().items()})

    out = RBRepresentation(rep.algebra, rep.dim_v, tuple(map(neg_transpose, rep.rho)),
                           neg_transpose(rep.cal_r))
    run_checks(representation_checks(out)).require_ok("dual representation")
    return out


def coadjoint_representation(rba: RotaBaxterLieAlgebra) -> RBRepresentation:
    return dual_representation(adjoint_representation(rba))


def semidirect_data(g: RotaBaxterLieAlgebra, h: RotaBaxterLieAlgebra,
                    rho: tuple[LinearMap, ...]) -> RotaBaxterLieAlgebra:
    """The data mapping only; no verification.  Algebra on g (+) h with
    [x+u, y+v] = [x,y] + x.v - y.u + [u,v] (x.v = rho(x) v) and the
    block-diagonal operator."""
    n, dim = g.dim, g.dim + h.dim
    bracket = g.base.bracket.cells()
    bracket.update({(n + k, n + a, n + b): q for (k, a, b), q in h.base.bracket.cells().items()})
    for i, act in enumerate(rho):
        for (a, b), q in act.cells().items():  # coordinate n + a of [e_i, e_{n+b}]
            bracket[n + a, i, n + b], bracket[n + a, n + b, i] = q, -q
    r = g.r.cells()
    r.update({(n + a, n + b): q for (a, b), q in h.r.cells().items()})
    return RotaBaxterLieAlgebra(LieAlgebra(dim, from_cells((dim,) * 3, bracket, True)),
                                from_cells((dim, dim), r))


def semidirect_product(rep: RBRepresentation) -> RotaBaxterLieAlgebra:
    """Algebra on g (+) V with [x+u, y+v] = [x,y] + x.v - y.u and the
    block-diagonal operator; the projection onto g is a homomorphism of the
    operator algebras by construction (`semidirect_data`)."""
    module = RotaBaxterLieAlgebra(LieAlgebra.abelian(rep.dim_v), rep.cal_r)
    out = semidirect_data(rep.algebra, module, rep.rho)
    run_checks(lie_checks(out.base) + rb_checks(out)).require_ok("semidirect product")
    return out
