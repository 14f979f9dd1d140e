"""Two-term homotopy layer: chain complexes g1 -> g0 carrying a graded
bracket l2, a homotopy l3, Rota-Baxter triples (R0, R1, R2), and both kinds
of homomorphisms.

Degree bookkeeping: l2 is stored as two tensors (l2_00 on g0 x g0 -> g0 and
l2_01 on g0 x g1 -> g1); the bracket of two degree-one elements vanishes
because no degree-two component exists.  The skew extension across degrees
is l2(u, x) = -l2(x, u) for x in g0, u in g1.

Each check builder is a sum of `report.family` values, one per condition,
over residual functions of basis indices.  Condition ids, by check builder
(each builder leaves out the families it builds on;
`cli.verify_structure` runs every family of a document):
  skew-l2, alt-l3, a, b, c, d     two_term_checks (structures)
  chain, skew-r2, rb1, rb2, rb3   rb_triple_checks (operator triples)
  skew-phi2, chain, h1, h2, h3    hom_checks (homomorphisms)
  rbh1, rbh2, rbh3                rb_hom_checks (operator homomorphisms)
Condition `a` has two displayed equations; the first index of its violation
tuple selects the equation (0: differential compatibility on g0 x g1,
1: unambiguity of the induced degree-one bracket).

Orbit evaluation: `rb3`, `h3` and the diagram checks `coh` and `jcoh`
(`lie2`) are checked at every ordered tuple of g0 basis indices, and each
is alternating in them whenever the maps it needs are skew or alternating:
l3 and R2 for `rb3` (its R2 terms sum every ordering of their arguments
with its sign), l2_00, l3 and R2 for `coh`, l2_00 and l3 for `jcoh`, and
the source's l2_00 and l3, the target's l3 and phi2 for `h3`.  Then
`ordered_checks` evaluates the residual once per sorted tuple of distinct
indices, memoized as C(n, arity) values, one per sorted tuple (so the order
the checks run in does not matter); every ordering reads `tensors.parity`
of its indices times that value, and the tuples with a repeated index
(parity 0) are a second family, the constant zero.  Whether the maps are
alternating is read from their stores (`is_alternating`), never from
their flags or from the flag checks' results.  When one is not, its
flag check fires and every ordered tuple is evaluated literally, so a
store that breaks its flag reports the residuals of the maps as stored.

Constructors: `two_term(dim0, dim1, l1, l2_00, l2_01, l3)`,
`with_operators(linf, r0, r1, r2)` and `rb_hom(source, target, phi0, phi1,
phi2, phi3)` assemble a structure, its operator triple and an operator
homomorphism from their maps.  Their parameter names are the document keys,
so `serialize.KINDS` builds the `2term`, `rb-2term` and `rb-hom` kinds with
them.  A map not given is the zero map, skew or alternating where its
document field is, as a tensor key left out of a document loads.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations, combinations_with_replacement, compress, permutations, product
from math import comb, perm

from .errors import (InternalInvariantBroken, NotChainMap, ShapeMismatch,
                     SourceTargetMismatch)
from .report import Checks, VerificationReport, choose, family, grid, run_checks
from .tensors import (BilinearMap, LinearMap, TrilinearMap, Vec, parity, solve_exact, vadd,
                      vneg, vscale, vsub, vzero)
from .liealg import chain_residual, hom_residual, rb_residual, skew_checks
from .value import Value


class TwoTermComplex(Value, shapes={"l1": "dim0 dim1"}):
    dim0: int
    dim1: int
    l1: LinearMap  # g1 -> g0


class TwoTermLInfinity(Value, shapes={"l2_00": "dim0 dim0 dim0", "l2_01": "dim1 dim0 dim1",
                                      "l3": "dim1 dim0 dim0 dim0"}):
    complex: TwoTermComplex
    l2_00: BilinearMap   # g0 x g0 -> g0, skew
    l2_01: BilinearMap   # g0 x g1 -> g1
    l3: TrilinearMap     # alt, three copies of g0 -> g1

    @property
    def dim0(self) -> int:
        return self.complex.dim0

    @property
    def dim1(self) -> int:
        return self.complex.dim1


class RBTriple(Value):
    r0: LinearMap          # g0 -> g0
    r1: LinearMap          # g1 -> g1
    r2: BilinearMap        # g0 x g0 -> g1, skew


class TwoTermRBLInfinity(Value, shapes={"rb.r0": "linf.dim0 linf.dim0",
                                        "rb.r1": "linf.dim1 linf.dim1",
                                        "rb.r2": "linf.dim1 linf.dim0 linf.dim0"}):
    linf: TwoTermLInfinity
    rb: RBTriple

    @property
    def is_strict(self) -> bool:
        return self.linf.l3.is_zero() and self.rb.r2.is_zero()


def two_term(dim0: int, dim1: int, l1: LinearMap | None = None, l2_00: BilinearMap | None = None,
             l2_01: BilinearMap | None = None, l3: TrilinearMap | None = None) -> TwoTermLInfinity:
    return TwoTermLInfinity(
        TwoTermComplex(dim0, dim1, LinearMap.zero(dim0, dim1) if l1 is None else l1),
        BilinearMap.zero(dim0, dim0, dim0, skew=True) if l2_00 is None else l2_00,
        BilinearMap.zero(dim0, dim1, dim1) if l2_01 is None else l2_01,
        TrilinearMap.zero(dim0, dim1, alt=True) if l3 is None else l3)


def with_operators(linf: TwoTermLInfinity, r0: LinearMap | None = None,
                   r1: LinearMap | None = None,
                   r2: BilinearMap | None = None) -> TwoTermRBLInfinity:
    d0, d1 = linf.dim0, linf.dim1
    return TwoTermRBLInfinity(linf, RBTriple(
        LinearMap.zero(d0, d0) if r0 is None else r0,
        LinearMap.zero(d1, d1) if r1 is None else r1,
        BilinearMap.zero(d0, d0, d1, skew=True) if r2 is None else r2))


def ordered_checks(cond: str, n: int, arity: int, residual, dim_out: int, maps) -> Checks:
    """`cond` at every ordered `arity`-tuple of basis indices below `n`, with
    residual `residual(*idx)` of length `dim_out`.  When every map of `maps`
    is alternating, it is evaluated once per sorted tuple of distinct
    indices, which every ordering reads times its `parity`, and a tuple with
    a repeated index (parity 0) is zero."""
    if not all(m.is_alternating for m in maps):
        return family(cond, residual, *grid(*(n,) * arity))
    at_sorted = cache(residual)  # one value per sorted tuple, C(n, arity) at most

    def read(*idx):
        value = at_sorted(*sorted(idx))
        return value if parity(idx) > 0 else vneg(value)

    distinct, tuples = perm(n, arity), partial(product, range(n), repeat=arity)
    return (family(cond, read, lambda: permutations(range(n), arity), distinct)
            + family(cond, vzero(dim_out), lambda: compress(  # a repeated index, tested in C
                tuples(), map(arity.__ne__, map(len, map(set, tuples())))), n ** arity - distinct))


def alt_checks(t: TrilinearMap) -> Checks:
    """value(i,j,k) must equal parity * value(sorted(i,j,k)); repeats force 0."""
    def residual(*idx):
        sign = parity(idx)
        return vsub(t(*idx), vscale(sign, t(*sorted(idx)))) if sign else t(*idx)

    return family("alt-l3", residual, lambda: (idx for idx in product(range(t.dim), repeat=3)
                                               if not idx[0] < idx[1] < idx[2]),
                  t.dim ** 3 - comb(t.dim, 3))


def two_term_checks(L: TwoTermLInfinity) -> Checks:
    """Flag consistency plus the four defining conditions of the bracket,
    the homotopy, and their compatibilities."""
    d0, d1 = L.dim0, L.dim1
    l1, br, act, l3 = L.complex.l1, L.l2_00, L.l2_01, L.l3

    def b_res(i, j, k):
        return vsub(l1(l3(i, j, k)), vadd(br(i, br(j, k)), br(k, br(i, j)), br(j, br(k, i))))

    def c_res(i, j, a):
        return vsub(l3(i, j, l1(a)), vadd(act(i, act(j, a)), vneg(act(br(i, j), a)),
                                          vneg(act(j, act(i, a)))))

    return (skew_checks(L.l2_00, "skew-l2") + alt_checks(L.l3)
            + family("a", lambda _, i, a: vsub(l1(act(i, a)), br(i, l1(a))), *grid(1, d0, d1))
            + family("a", lambda _, a, b: vadd(act(l1(a), b), act(l1(b), a)),
                     lambda: ((1, a, b) for a, b in combinations_with_replacement(range(d1), 2)),
                     comb(d1 + 1, 2))
            + family("b", b_res, *choose(d0, 3))
            + family("c", c_res, lambda: ((i, j, a) for i, j in combinations(range(d0), 2)
                                          for a in range(d1)), comb(d0, 2) * d1)
            + family("d", partial(quadruple_identity_residual, L), *choose(d0, 4)))


def quadruple_identity_residual(L: TwoTermLInfinity,
                                i: int, j: int, k: int, l: int) -> Vec:
    """The four-argument homotopy-Jacobi identity at one ordered basis
    quadruple (signs follow the standard unshuffle convention)."""
    br, act, l3 = L.l2_00, L.l2_01, L.l3
    xs = (i, j, k, l)
    terms = []
    for p in range(4):
        rest = [xs[q] for q in range(4) if q != p]
        term = act(xs[p], l3(*rest))
        terms.append(term if p % 2 == 0 else vneg(term))
    for p, q in combinations(range(4), 2):
        rest = [xs[t] for t in range(4) if t not in (p, q)]
        term = l3(br(xs[p], xs[q]), *rest)
        terms.append(term if (p + q) % 2 == 0 else vneg(term))
    return vadd(*terms)


def rb3_residual(G: TwoTermRBLInfinity, i: int, j: int, k: int) -> Vec:
    """Cyclic homotopy Rota-Baxter condition at one ordered basis triple.

    The three grouped summands

        l2(R0 x1, R2(x2, x3)) + R2(x3, l2(R0 x1, x2) - l2(R0 x2, x1))
            - R1(l2(x1, R2(x2, x3)) + l3(R0 x2, R0 x3, x1))

    cycle jointly over (x1,x2,x3); the trailing homotopy term sits outside
    the cycle.
    """
    L, rb = G.linf, G.rb
    br, act, l3, r0, r1, r2 = L.l2_00, L.l2_01, L.l3, rb.r0, rb.r1, rb.r2

    def grouped(x1, x2, x3):
        t2 = r2(x3, vsub(br(r0(x1), x2), br(r0(x2), x1)))
        inner = vadd(act(x1, r2(x2, x3)), l3(r0(x2), r0(x3), x1))
        return vsub(vadd(act(r0(x1), r2(x2, x3)), t2), r1(inner))

    total = vadd(grouped(i, j, k), grouped(j, k, i), grouped(k, i, j))
    return vadd(total, l3(r0(i), r0(j), r0(k)))


def rb2_residual(G: TwoTermRBLInfinity, a: int, i: int) -> Vec:
    """Degree-one operator condition at one basis pair (g1, g0)."""
    L, rb = G.linf, G.rb
    act, r1, r2 = L.l2_01, rb.r1, rb.r2
    u, x, r0x, r1u = a, i, rb.r0(i), r1(a)
    lhs = vadd(r1(vadd(vneg(act(x, r1u)), vneg(act(r0x, u)))), act(r0x, r1u))
    return vsub(lhs, r2(L.complex.l1(a), x))


def rb_triple_checks(G: TwoTermRBLInfinity) -> Checks:
    """Chain-map property and the three operator conditions; the underlying
    two-term structure's own conditions are `two_term_checks(G.linf)`."""
    L, rb = G.linf, G.rb
    d0, d1 = L.dim0, L.dim1
    l1 = L.complex.l1

    def rb1(i, j):  # the operator defect, -rb_residual, must equal l1 R2(e_i, e_j)
        return vneg(vadd(rb_residual(L.l2_00, rb.r0, i, j), l1(rb.r2(i, j))))

    return (family("chain", partial(chain_residual, rb.r1, rb.r0, l1, l1), *grid(d1))
            + skew_checks(rb.r2, "skew-r2")
            + family("rb1", rb1, *choose(d0, 2))
            + family("rb2", partial(rb2_residual, G), *grid(d1, d0))
            + ordered_checks("rb3", d0, 3, partial(rb3_residual, G), d1, (L.l3, rb.r2)))


class CompletionFailure(Value):
    stage: str  # "condition-1" when the defect misses the image of l1
    pair: tuple[int, int] | None
    report: VerificationReport | None


def complete_rb_triple(L: TwoTermLInfinity, r0: LinearMap,
                       r1: LinearMap) -> RBTriple | CompletionFailure:
    """Solve the first operator condition for R2, then verify the rest.

    The linear system per basis pair may be underdetermined; free
    coordinates (lexicographic pivot order) are pinned to zero so the
    completion is deterministic.  All pairs share one elimination of l1,
    cached on the map by `solve_exact`.
    """
    d0, d1 = L.dim0, L.dim1
    for a in range(d1):
        if any(chain_residual(r1, r0, L.complex.l1, L.complex.l1, a)):
            raise NotChainMap(f"(R0, R1) do not commute with the differential at column {a}")
    values: dict[tuple[int, int], Vec] = {}
    for i, j in combinations(range(d0), 2):
        sol = solve_exact(L.complex.l1, vneg(rb_residual(L.l2_00, r0, i, j)))
        if sol is None:
            return CompletionFailure("condition-1", (i, j), None)
        values[(i, j)] = sol
    candidate = with_operators(L, r0, r1, BilinearMap.from_map(d0, d0, d1, values, skew=True))
    report = run_checks(rb_triple_checks(candidate))
    if not report.ok:
        return CompletionFailure("conditions-2-3", None, report)
    return candidate.rb


class LInfinityHom(Value, shapes={"phi0": "target.dim0 source.dim0",
                                  "phi1": "target.dim1 source.dim1",
                                  "phi2": "target.dim1 source.dim0 source.dim0"}):
    source: TwoTermLInfinity
    target: TwoTermLInfinity
    phi0: LinearMap   # g0 -> g0'
    phi1: LinearMap   # g1 -> g1'
    phi2: BilinearMap  # g0 x g0 -> g1', skew


class RBLInfinityHom(Value, shapes={"phi3": "target.linf.dim1 source.linf.dim0"}):
    source: TwoTermRBLInfinity
    target: TwoTermRBLInfinity
    hom: LInfinityHom  # between the underlying two-term structures
    phi3: LinearMap    # g0 -> g1'

    def __post_init__(self):
        if self.hom.source != self.source.linf or self.hom.target != self.target.linf:
            raise ShapeMismatch("homomorphism endpoints disagree with the given structures")


def rb_hom(source: TwoTermRBLInfinity, target: TwoTermRBLInfinity,
           phi0: LinearMap | None = None, phi1: LinearMap | None = None,
           phi2: BilinearMap | None = None, phi3: LinearMap | None = None) -> RBLInfinityHom:
    s, t = source.linf, target.linf
    return RBLInfinityHom(source, target, LInfinityHom(
        s, t,
        LinearMap.zero(t.dim0, s.dim0) if phi0 is None else phi0,
        LinearMap.zero(t.dim1, s.dim1) if phi1 is None else phi1,
        BilinearMap.zero(s.dim0, s.dim0, t.dim1, skew=True) if phi2 is None else phi2),
        LinearMap.zero(t.dim1, s.dim0) if phi3 is None else phi3)


def hom_checks(f: LInfinityHom) -> Checks:
    """Chain-map property and the three homomorphism conditions; the
    endpoints' own conditions are not included."""
    src, tgt = f.source, f.target
    d0, d1 = src.dim0, src.dim1
    p0, p1, p2, br, act = f.phi0, f.phi1, f.phi2, src.l2_00, tgt.l2_01

    def h1(i, j):
        return vsub(tgt.complex.l1(p2(i, j)), hom_residual(p0, br, tgt.l2_00, i, j))

    def h2(i, a):
        return vsub(p2(i, src.complex.l1(a)), vsub(p1(src.l2_01(i, a)), act(p0(i), p1(a))))

    return (skew_checks(p2, "skew-phi2")
            + family("chain", partial(chain_residual, p1, p0, src.complex.l1, tgt.complex.l1),
                     *grid(d1))
            + family("h1", h1, *choose(d0, 2))
            + family("h2", h2, *grid(d0, d1))
            + ordered_checks("h3", d0, 3, partial(h3_residual, f), tgt.dim1,
                             (br, src.l3, tgt.l3, p2)))


def h3_residual(f: LInfinityHom, x: int, y: int, z: int) -> Vec:
    """Third homomorphism condition at one ordered basis triple."""
    src, tgt = f.source, f.target
    p0, p1, p2, br, act = f.phi0, f.phi1, f.phi2, src.l2_00, tgt.l2_01
    lhs = vadd(vneg(act(p0(z), p2(x, y))), p2(br(x, y), z), p1(src.l3(x, y, z)))
    rhs = vadd(tgt.l3(p0(x), p0(y), p0(z)),
               act(p0(x), p2(y, z)),
               vneg(act(p0(y), p2(x, z))),
               p2(x, br(y, z)),
               p2(br(x, z), y))
    return vsub(lhs, rhs)


def rbh3_residual(f: RBLInfinityHom, i: int, j: int) -> Vec:
    """Operator-compatibility condition of a homomorphism at one ordered
    basis pair.  The bracket of two phi3 values vanishes by degree; the
    two-argument phi3 terms are read as phi3 applied to the bracket."""
    src, act = f.source.linf, f.target.linf.l2_01
    p0, p1, p2, p3 = f.hom.phi0, f.hom.phi1, f.hom.phi2, f.phi3
    br, r0, r2, r1p = src.l2_00, f.source.rb.r0, f.source.rb.r2, f.target.rb.r1
    x, y = i, j
    lhs = vadd(f.target.rb.r2(p0(x), p0(y)),
               r1p(vneg(act(p0(y), p3(x)))),
               r1p(act(p0(x), p3(y))),
               r1p(p2(r0(x), y)),
               r1p(p2(x, r0(y))),
               p3(br(r0(x), y)),
               p3(br(x, r0(y))))
    rhs = vadd(p2(r0(x), r0(y)), p1(r2(x, y)))
    return vsub(lhs, rhs)


def rb_hom_checks(f: RBLInfinityHom) -> Checks:
    """The three operator compatibilities; the underlying homomorphism
    conditions are `hom_checks(f.hom)`."""
    src, tgt = f.source, f.target
    d0, d1 = src.linf.dim0, src.linf.dim1
    p0, p1, p3 = f.hom.phi0, f.hom.phi1, f.phi3

    def rbh1(i):
        return vsub(tgt.linf.complex.l1(p3(i)), vadd(vneg(tgt.rb.r0(p0(i))), p0(src.rb.r0(i))))

    def rbh2(a):
        return vsub(p3(src.linf.complex.l1(a)), vsub(p1(src.rb.r1(a)), tgt.rb.r1(p1(a))))

    return (family("rbh1", rbh1, *grid(d0))
            + family("rbh2", rbh2, *grid(d1))
            # cached: `cohm` and `cohm-vs-rbh3` read it too
            + family("rbh3", cache(partial(rbh3_residual, f)), *grid(d0, d0)))


def identity_rb_hom(G: TwoTermRBLInfinity) -> RBLInfinityHom:
    return rb_hom(G, G, LinearMap.identity(G.linf.dim0), LinearMap.identity(G.linf.dim1))


def compose_rb_homs(g: RBLInfinityHom, f: RBLInfinityHom) -> RBLInfinityHom:
    """g after f; structural endpoint equality is required.

    Output data: (g o f)_2(x, y) = g1(f2(x, y)) + g2(f0 x, f0 y) and
    (g o f)_3(x) = g1(f3(x)) + g3(f0 x).  The output is verified on
    `hom_checks` and `rb_hom_checks`; only when it fails are the inputs
    verified, in order, and it raises when both of them pass.
    """
    if f.target != g.source:
        raise SourceTargetMismatch("cannot compose: intermediate structures differ")
    d0, d1 = f.source.linf.dim0, g.target.linf.dim1
    phi0 = g.hom.phi0.compose(f.hom.phi0)
    phi1 = g.hom.phi1.compose(f.hom.phi1)
    f0, g1 = f.hom.phi0, g.hom.phi1
    values = {(i, j): vadd(g1(f.hom.phi2(i, j)), g.hom.phi2(f0(i), f0(j)))
              for i in range(d0) for j in range(d0)}
    phi2 = BilinearMap.from_map(d0, d0, d1, values, skew=True)
    phi3_cols = [vadd(g1(f.phi3(i)), g.phi3(f0(i))) for i in range(d0)]
    phi3 = LinearMap.from_columns(phi3_cols, rows=d1)
    out = rb_hom(f.source, g.target, phi0, phi1, phi2, phi3)
    oks = (run_checks(hom_checks(h.hom) + rb_hom_checks(h)).ok for h in (out, f, g))
    if not next(oks) and all(oks):
        raise InternalInvariantBroken("composite of verified homomorphisms failed verification")
    return out
