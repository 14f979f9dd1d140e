"""Classical layer: Lie algebras, Rota-Baxter operators, pre-Lie algebras,
representations, duals and semidirect products.

Each `*_checks` builder returns one family of identities for
`report.run_checks`; constructions run the families they certify on their
outputs and raise `InternalInvariantBroken` on failure.
All types are immutable values; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InternalInvariantBroken, ShapeMismatch
from .report import Check, run_checks
from .tensors import (BilinearMap, LinearMap, Vec, from_cells, vadd, vscale,
                      vsub, vzero)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    bracket: BilinearMap  # skew-flagged, dim x dim -> dim
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        b = self.bracket
        if (b.dim_a, b.dim_b, b.dim_out) != (self.dim, self.dim, self.dim):
            raise ShapeMismatch("bracket tensor does not match algebra dimension")
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


@dataclass(frozen=True)
class RotaBaxterLieAlgebra:
    base: LieAlgebra
    r: LinearMap

    def __post_init__(self):
        if (self.r.rows, self.r.cols) != (self.base.dim, self.base.dim):
            raise ShapeMismatch("operator matrix does not match algebra dimension")

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass(frozen=True)
class PreLieAlgebra:
    dim: int
    mult: BilinearMap  # not skew

    def __post_init__(self):
        m = self.mult
        if (m.dim_a, m.dim_b, m.dim_out) != (self.dim, self.dim, self.dim):
            raise ShapeMismatch("multiplication tensor does not match dimension")


@dataclass(frozen=True)
class RBRepresentation:
    algebra: RotaBaxterLieAlgebra
    dim_v: int
    rho: tuple[LinearMap, ...]  # one matrix per basis vector of g
    cal_r: LinearMap            # operator on V

    def __post_init__(self):
        check_action_shapes(self.algebra.dim, self.dim_v, self.rho, "action")
        if (self.cal_r.rows, self.cal_r.cols) != (self.dim_v, self.dim_v):
            raise ShapeMismatch("module operator does not match module dimension")


def check_action_shapes(dim: int, dim_v: int, rho: tuple[LinearMap, ...], what: str):
    """`rho` holds one dim_v x dim_v matrix per basis vector of an algebra
    of dimension `dim`."""
    if len(rho) != dim:
        raise ShapeMismatch(f"{what} needs one matrix per basis vector of the acting algebra")
    for m in rho:
        if (m.rows, m.cols) != (dim_v, dim_v):
            raise ShapeMismatch(f"{what} matrices must be square on the module")


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


def skew_checks(b: BilinearMap, condition: str = "skew") -> list[Check]:
    def residual(i, j):
        return lambda: vadd(b(i, j), b(j, i))
    return [(condition, (i, j), residual(i, j))
            for i in range(b.dim_a) for j in range(i, b.dim_b)]


def lie_checks(alg: LieAlgebra) -> list[Check]:
    """Skew-symmetry on basis pairs, Jacobi on basis triple classes."""
    n, br = alg.dim, alg.bracket

    def jacobi(x, y, z):
        return lambda: vadd(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))

    checks = skew_checks(alg.bracket)
    checks += [("jacobi", (i, j, k), jacobi(i, j, k))
               for i, j, k in combinations(range(n), 3)]
    return checks


def rb_checks(rba: RotaBaxterLieAlgebra) -> list[Check]:
    """The weight-zero operator identity on basis pair classes; the base's
    own identities are `lie_checks(rba.base)`."""
    br, r = rba.base.bracket, rba.r
    return [("rota-baxter", (i, j), lambda i=i, j=j: rb_residual(br, r, i, j))
            for i, j in combinations(range(rba.dim), 2)]


def prelie_checks(p: PreLieAlgebra) -> list[Check]:
    """Associator symmetry in the first two arguments, exactly."""
    m, n = p.mult, p.dim

    def assoc(x, y, z):
        return vsub(m(m(x, y), z), m(x, m(y, z)))

    def residual(i, j, k):
        return lambda: vsub(assoc(i, j, k), assoc(j, i, k))

    return [("pre-lie", (i, j, k), residual(i, j, k))
            for i, j in combinations(range(n), 2) for k in range(n)]


def representation_checks(rep: RBRepresentation) -> list[Check]:
    """Lie-action property plus the module-operator compatibility identity;
    the algebra's own identities are not included."""
    alg = rep.algebra
    n = alg.dim

    def hom_residual(i, j):
        return lambda: action_hom_residual(rep.rho, alg.base.bracket(i, j), i, j)

    def rb_residual(i):
        return lambda: action_rb_residual(rep.rho, alg.r, rep.cal_r, i)

    checks: list[Check] = [("rep-hom", (i, j), hom_residual(i, j))
                           for i, j in combinations(range(n), 2)]
    checks += [("rep-rb", (i,), rb_residual(i)) for i in range(n)]
    return checks


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
    """[x,y] = [R(x),y] + [x,R(y)]; R is certified a homomorphism from the
    derived bracket back to the original one."""
    out = subadjacent_lie(prelie_from_rb(rba))
    for i, j in combinations(range(rba.dim), 2):
        if any(hom_residual(rba.r, out.bracket, rba.base.bracket, i, j)):
            raise InternalInvariantBroken(
                f"operator is not a homomorphism off the derived bracket at ({i},{j})")
    return out


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
    m = rep.dim_v
    module = RotaBaxterLieAlgebra(LieAlgebra(m, BilinearMap.zero(m, m, m, skew=True)), rep.cal_r)
    out = semidirect_data(rep.algebra, module, rep.rho)
    run_checks(lie_checks(out.base) + rb_checks(out)).require_ok("semidirect product")
    return out
