"""Two-term homotopy layer: chain complexes g1 -> g0 carrying a graded
bracket l2, a homotopy l3, Rota-Baxter triples (R0, R1, R2), and both kinds
of homomorphisms.

Degree bookkeeping: l2 is stored as two tensors (l2_00 on g0 x g0 -> g0 and
l2_01 on g0 x g1 -> g1); the bracket of two degree-one elements vanishes
because no degree-two component exists.  The skew extension across degrees
is l2(u, x) = -l2(x, u) for x in g0, u in g1.

Condition ids, by check builder (each builder leaves out the families it
builds on; `cli.verify_structure` runs every family of a document):
  skew-l2, alt-l3, a, b, c, d     two_term_checks (structures)
  chain, skew-r2, rb1, rb2, rb3   rb_triple_checks (operator triples)
  skew-phi2, chain, h1, h2, h3    hom_checks (homomorphisms)
  rbh1, rbh2, rbh3                rb_hom_checks (operator homomorphisms)
Condition `a` has two displayed equations; the first index of its violation
tuple selects the equation (0: differential compatibility on g0 x g1,
1: unambiguity of the induced degree-one bracket).

Term caches: a composite term that `d`, `jcoh`, `rb3`, `coh` or `h3` reads
at several ordered tuples is cached on its structure, as partial maps are
on a tensor: `functools.cache` over a closure of the tensors, not of the
structure (so no reference cycle), keyed by the literal argument order and
slot, never by a sorted key, so a store that breaks its flag gives the
residuals of evaluating each term.  A zero term is stored as the one zero
tuple of its length (`_shared`), not as a tuple of its own per key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, product

from .errors import (InternalInvariantBroken, NotChainMap, ShapeMismatch,
                     SourceTargetMismatch)
from .report import Check, VerificationReport, run_checks
from .tensors import (BilinearMap, LinearMap, TrilinearMap, Vec,
                      perm_sign, solve_exact, vadd, vneg, vsub, vzero)
from .liealg import chain_residual, rb_residual, skew_checks

_zero = cache(vzero)  # length -> the one zero vector the term caches share


def _shared(v: Vec) -> Vec:
    """`v`, or the one zero tuple of its length when `v` is zero."""
    return v if any(v) else _zero(len(v))


@dataclass(frozen=True)
class TwoTermComplex:
    dim0: int
    dim1: int
    l1: LinearMap  # g1 -> g0

    def __post_init__(self):
        if (self.l1.rows, self.l1.cols) != (self.dim0, self.dim1):
            raise ShapeMismatch("differential must be a dim0 x dim1 matrix")


@dataclass(frozen=True)
class TwoTermLInfinity:
    complex: TwoTermComplex
    l2_00: BilinearMap   # g0 x g0 -> g0, skew
    l2_01: BilinearMap   # g0 x g1 -> g1
    l3: TrilinearMap     # alt, three copies of g0 -> g1

    def __post_init__(self):
        d0, d1 = self.complex.dim0, self.complex.dim1
        if (self.l2_00.dim_a, self.l2_00.dim_b, self.l2_00.dim_out) != (d0, d0, d0):
            raise ShapeMismatch("l2_00 must map g0 x g0 -> g0")
        if (self.l2_01.dim_a, self.l2_01.dim_b, self.l2_01.dim_out) != (d0, d1, d1):
            raise ShapeMismatch("l2_01 must map g0 x g1 -> g1")
        if (self.l3.dim, self.l3.dim_out) != (d0, d1):
            raise ShapeMismatch("l3 must map three copies of g0 into g1")

    @property
    def dim0(self) -> int:
        return self.complex.dim0

    @property
    def dim1(self) -> int:
        return self.complex.dim1

    @cached_property
    def act_l3(self):  # p, q, r, s -> l2(e_p, l3(e_q, e_r, e_s))
        act, l3 = self.l2_01, self.l3
        return cache(lambda p, q, r, s: _shared(act(p, l3(q, r, s))))

    @cached_property
    def l3_br(self):  # slot, p, q, r, s -> l3 of l2(e_p, e_q) in `slot`, then e_r, e_s
        br, l3 = self.l2_00, self.l3
        return cache(lambda slot, p, q, r, s: _shared(
            l3(*(r, s)[:slot], br(p, q), *(r, s)[slot:])))


@dataclass(frozen=True)
class RBTriple:
    r0: LinearMap          # g0 -> g0
    r1: LinearMap          # g1 -> g1
    r2: BilinearMap        # g0 x g0 -> g1, skew


@dataclass(frozen=True)
class TwoTermRBLInfinity:
    linf: TwoTermLInfinity
    rb: RBTriple

    def __post_init__(self):
        d0, d1 = self.linf.dim0, self.linf.dim1
        if (self.rb.r0.rows, self.rb.r0.cols) != (d0, d0):
            raise ShapeMismatch("R0 must be square on g0")
        if (self.rb.r1.rows, self.rb.r1.cols) != (d1, d1):
            raise ShapeMismatch("R1 must be square on g1")
        if (self.rb.r2.dim_a, self.rb.r2.dim_b, self.rb.r2.dim_out) != (d0, d0, d1):
            raise ShapeMismatch("R2 must map g0 x g0 -> g1")

    @property
    def is_strict(self) -> bool:
        return self.linf.l3.is_zero() and self.rb.r2.is_zero()

    @cached_property
    def act_r0_r2(self):  # a, b, c -> l2(R0 e_a, R2(e_b, e_c))
        act, r0, r2 = self.linf.l2_01, self.rb.r0, self.rb.r2
        return cache(lambda a, b, c: _shared(act(r0(a), r2(b, c))))

    @cached_property
    def r1_act_r2(self):  # a, b, c -> R1 l2(e_a, R2(e_b, e_c))
        act, r1, r2 = self.linf.l2_01, self.rb.r1, self.rb.r2
        return cache(lambda a, b, c: _shared(r1(act(a, r2(b, c)))))

    @cached_property
    def l3_r0(self):  # a, b, c -> l3(R0 e_a, R0 e_b, R0 e_c)
        l3, r0 = self.linf.l3, self.rb.r0
        return cache(lambda a, b, c: _shared(l3(r0(a), r0(b), r0(c))))

    @cached_property
    def grouped(self):  # the cyclic summand of `rb3_residual` at (x1, x2, x3):
        # l2(R0 x1, R2(x2, x3)) + R2(x3, l2(R0 x1, x2) - l2(R0 x2, x1))
        #     - R1(l2(x1, R2(x2, x3)) + l3(R0 x2, R0 x3, x1))
        br, l3, r0, r1, r2 = self.linf.l2_00, self.linf.l3, self.rb.r0, self.rb.r1, self.rb.r2
        act_r0_r2, r1_act_r2 = self.act_r0_r2, self.r1_act_r2

        def term(x1, x2, x3):
            t2 = r2(x3, vsub(br(r0(x1), x2), br(r0(x2), x1)))
            inner = vadd(r1_act_r2(x1, x2, x3), r1(l3(r0(x2), r0(x3), x1)))
            return _shared(vsub(vadd(act_r0_r2(x1, x2, x3), t2), inner))
        return cache(term)


def alt_checks(t: TrilinearMap, condition: str = "alt-l3") -> list[Check]:
    """value(i,j,k) must equal sign * value(sorted(i,j,k)); repeats force 0."""
    checks: list[Check] = []
    n = t.dim

    def residual(i, j, k):
        def go():
            if len({i, j, k}) < 3:
                return t(i, j, k)
            order = tuple(sorted((i, j, k)))
            pos = {v: p for p, v in enumerate(order)}
            sign = perm_sign((pos[i], pos[j], pos[k]))
            expect = tuple(sign * c for c in t(*order))
            return vsub(t(i, j, k), expect)
        return go

    for i, j, k in product(range(n), repeat=3):
        if i < j < k:
            continue
        checks.append((condition, (i, j, k), residual(i, j, k)))
    return checks


def two_term_checks(L: TwoTermLInfinity) -> list[Check]:
    """Flag consistency plus the four defining conditions of the bracket,
    the homotopy, and their compatibilities."""
    d0, d1 = L.dim0, L.dim1
    l1, br, act, l3 = L.complex.l1, L.l2_00, L.l2_01, L.l3

    def a_first(i, a):
        return lambda: vsub(l1(act(i, a)), br(i, l1(a)))

    def a_second(a, b):
        return lambda: vadd(act(l1(a), b), act(l1(b), a))

    def b_res(i, j, k):
        return lambda: vsub(l1(l3(i, j, k)),
                            vadd(br(i, br(j, k)), br(k, br(i, j)), br(j, br(k, i))))

    def c_res(i, j, a):
        return lambda: vsub(l3(i, j, l1(a)),
                            vadd(act(i, act(j, a)), vneg(act(br(i, j), a)),
                                 vneg(act(j, act(i, a)))))

    def d_res(i, j, k, l):
        return lambda: quadruple_identity_residual(L, i, j, k, l)

    checks = skew_checks(L.l2_00, "skew-l2") + alt_checks(L.l3)
    checks += [("a", (0, i, a), a_first(i, a)) for i in range(d0) for a in range(d1)]
    checks += [("a", (1, a, b), a_second(a, b))
               for a in range(d1) for b in range(a, d1)]
    checks += [("b", (i, j, k), b_res(i, j, k))
               for i, j, k in combinations(range(d0), 3)]
    checks += [("c", (i, j, a), c_res(i, j, a))
               for i, j in combinations(range(d0), 2) for a in range(d1)]
    checks += [("d", idx, d_res(*idx)) for idx in combinations(range(d0), 4)]
    return checks


def quadruple_identity_residual(L: TwoTermLInfinity,
                                i: int, j: int, k: int, l: int) -> Vec:
    """The four-argument homotopy-Jacobi identity at one ordered basis
    quadruple (signs follow the standard unshuffle convention)."""
    xs = (i, j, k, l)
    terms = []
    for p in range(4):
        rest = [xs[q] for q in range(4) if q != p]
        term = L.act_l3(xs[p], *rest)
        terms.append(term if p % 2 == 0 else vneg(term))
    for p, q in combinations(range(4), 2):
        rest = [xs[t] for t in range(4) if t not in (p, q)]
        term = L.l3_br(0, xs[p], xs[q], *rest)
        terms.append(term if (p + q) % 2 == 0 else vneg(term))
    return vadd(*terms)


def rb3_residual(G: TwoTermRBLInfinity, i: int, j: int, k: int) -> Vec:
    """Cyclic homotopy Rota-Baxter condition at one ordered basis triple.

    The three grouped summands (`TwoTermRBLInfinity.grouped`) cycle jointly
    over (x1,x2,x3); the trailing homotopy term sits outside the cycle.
    """
    total = vadd(G.grouped(i, j, k), G.grouped(j, k, i), G.grouped(k, i, j))
    return vadd(total, G.l3_r0(i, j, k))


def rb2_residual(G: TwoTermRBLInfinity, a: int, i: int) -> Vec:
    """Degree-one operator condition at one basis pair (g1, g0)."""
    L, rb = G.linf, G.rb
    act, r1, r2 = L.l2_01, rb.r1, rb.r2
    u, x, r0x, r1u = a, i, rb.r0(i), r1(a)
    lhs = vadd(r1(vadd(vneg(act(x, r1u)), vneg(act(r0x, u)))), act(r0x, r1u))
    return vsub(lhs, r2(L.complex.l1(a), x))


def rb_triple_checks(G: TwoTermRBLInfinity) -> list[Check]:
    """Chain-map property and the three operator conditions; the underlying
    two-term structure's own conditions are `two_term_checks(G.linf)`."""
    L, rb = G.linf, G.rb
    d0, d1 = L.dim0, L.dim1
    l1 = L.complex.l1

    def chain(a):
        return lambda: chain_residual(rb.r1, rb.r0, l1, l1, a)

    def rb1(i, j):  # the operator defect, -rb_residual, must equal l1 R2(e_i, e_j)
        return lambda: vneg(vadd(rb_residual(L.l2_00, rb.r0, i, j), l1(rb.r2(i, j))))

    checks: list[Check] = [("chain", (a,), chain(a)) for a in range(d1)]
    checks += skew_checks(rb.r2, "skew-r2")
    checks += [("rb1", (i, j), rb1(i, j)) for i, j in combinations(range(d0), 2)]
    checks += [("rb2", (a, i), (lambda t: (lambda: rb2_residual(G, *t)))((a, i)))
               for a in range(d1) for i in range(d0)]
    checks += [("rb3", idx, (lambda t=idx: rb3_residual(G, *t)))
               for idx in product(range(d0), repeat=3)]
    return checks


@dataclass(frozen=True)
class CompletionFailure:
    stage: str  # "condition-1" when the defect misses the image of l1
    pair: tuple[int, int] | None
    report: VerificationReport | None


def complete_rb_triple(L: TwoTermLInfinity, r0: LinearMap,
                       r1: LinearMap) -> RBTriple | CompletionFailure:
    """Solve the first operator condition for R2, then verify the rest.

    The linear system per basis pair may be underdetermined; free
    coordinates (lexicographic pivot order) are pinned to zero so the
    completion is deterministic.
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
    r2 = BilinearMap.from_map(d0, d0, d1, values, skew=True)
    candidate = TwoTermRBLInfinity(L, RBTriple(r0, r1, r2))
    report = run_checks(rb_triple_checks(candidate))
    if not report.ok:
        return CompletionFailure("conditions-2-3", None, report)
    return candidate.rb


@dataclass(frozen=True)
class LInfinityHom:
    source: TwoTermLInfinity
    target: TwoTermLInfinity
    phi0: LinearMap   # g0 -> g0'
    phi1: LinearMap   # g1 -> g1'
    phi2: BilinearMap  # g0 x g0 -> g1', skew

    def __post_init__(self):
        s, t = self.source, self.target
        if (self.phi0.rows, self.phi0.cols) != (t.dim0, s.dim0):
            raise ShapeMismatch("phi0 must map source g0 to target g0")
        if (self.phi1.rows, self.phi1.cols) != (t.dim1, s.dim1):
            raise ShapeMismatch("phi1 must map source g1 to target g1")
        if (self.phi2.dim_a, self.phi2.dim_b, self.phi2.dim_out) != (s.dim0, s.dim0, t.dim1):
            raise ShapeMismatch("phi2 must map source g0 pairs to target g1")

    @cached_property
    def act_phi2(self):  # a, b, c -> l2'(phi0 e_a, phi2(e_b, e_c))
        act, p0, p2 = self.target.l2_01, self.phi0, self.phi2
        return cache(lambda a, b, c: _shared(act(p0(a), p2(b, c))))


@dataclass(frozen=True)
class RBLInfinityHom:
    source: TwoTermRBLInfinity
    target: TwoTermRBLInfinity
    hom: LInfinityHom  # between the underlying two-term structures
    phi3: LinearMap    # g0 -> g1'

    def __post_init__(self):
        if self.hom.source != self.source.linf or self.hom.target != self.target.linf:
            raise ShapeMismatch("homomorphism endpoints disagree with the given structures")
        s, t = self.hom.source, self.hom.target
        if (self.phi3.rows, self.phi3.cols) != (t.dim1, s.dim0):
            raise ShapeMismatch("phi3 must map source g0 to target g1")


def hom_checks(f: LInfinityHom) -> list[Check]:
    """Chain-map property and the three homomorphism conditions; the
    endpoints' own conditions are not included."""
    src, tgt = f.source, f.target
    d0, d1 = src.dim0, src.dim1
    p0, p1, p2, br, act, act_phi2 = f.phi0, f.phi1, f.phi2, src.l2_00, tgt.l2_01, f.act_phi2

    def chain(a):
        return lambda: chain_residual(f.phi1, f.phi0, src.complex.l1, tgt.complex.l1, a)

    def h1(i, j):
        return lambda: vsub(tgt.complex.l1(p2(i, j)),
                            vsub(p0(br(i, j)), tgt.l2_00(p0(i), p0(j))))

    def h2(i, a):
        return lambda: vsub(p2(i, src.complex.l1(a)),
                            vsub(p1(src.l2_01(i, a)), act(p0(i), p1(a))))

    def h3(x, y, z):
        def go():
            lhs = vadd(vneg(act_phi2(z, x, y)), p2(br(x, y), z), p1(src.l3(x, y, z)))
            rhs = vadd(tgt.l3(p0(x), p0(y), p0(z)),
                       act_phi2(x, y, z),
                       vneg(act_phi2(y, x, z)),
                       p2(x, br(y, z)),
                       p2(br(x, z), y))
            return vsub(lhs, rhs)
        return go

    checks = skew_checks(f.phi2, "skew-phi2")
    checks += [("chain", (a,), chain(a)) for a in range(d1)]
    checks += [("h1", (i, j), h1(i, j)) for i, j in combinations(range(d0), 2)]
    checks += [("h2", (i, a), h2(i, a)) for i in range(d0) for a in range(d1)]
    checks += [("h3", idx, h3(*idx)) for idx in product(range(d0), repeat=3)]
    return checks


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


def rb_hom_checks(f: RBLInfinityHom) -> list[Check]:
    """The three operator compatibilities; the underlying homomorphism
    conditions are `hom_checks(f.hom)`."""
    src, tgt = f.source, f.target
    d0, d1 = src.linf.dim0, src.linf.dim1
    p0, p1, p3 = f.hom.phi0, f.hom.phi1, f.phi3

    def rbh1(i):
        return lambda: vsub(tgt.linf.complex.l1(p3(i)),
                            vadd(vneg(tgt.rb.r0(p0(i))), p0(src.rb.r0(i))))

    def rbh2(a):
        return lambda: vsub(p3(src.linf.complex.l1(a)),
                            vsub(p1(src.rb.r1(a)), tgt.rb.r1(p1(a))))

    def rbh3(idx):  # cached: `cohm` and `cohm-vs-rbh3` read it too
        return cache(lambda: rbh3_residual(f, *idx))

    checks: list[Check] = [("rbh1", (i,), rbh1(i)) for i in range(d0)]
    checks += [("rbh2", (a,), rbh2(a)) for a in range(d1)]
    checks += [("rbh3", idx, rbh3(idx)) for idx in product(range(d0), repeat=2)]
    return checks


def identity_rb_hom(G: TwoTermRBLInfinity) -> RBLInfinityHom:
    d0, d1 = G.linf.dim0, G.linf.dim1
    return RBLInfinityHom(
        G, G,
        LInfinityHom(G.linf, G.linf, LinearMap.identity(d0), LinearMap.identity(d1),
                     BilinearMap.zero(d0, d0, d1, skew=True)),
        LinearMap.zero(d1, d0))


def compose_rb_homs(g: RBLInfinityHom, f: RBLInfinityHom) -> RBLInfinityHom:
    """g after f; structural endpoint equality is required.

    Output data: (g o f)_2(x, y) = g1(f2(x, y)) + g2(f0 x, f0 y) and
    (g o f)_3(x) = g1(f3(x)) + g3(f0 x).  The output is verified on
    `hom_checks` and `rb_hom_checks`; only when it fails are the inputs
    verified, in order, and it raises when both of them pass.
    """
    if f.target != g.source:
        raise SourceTargetMismatch("cannot compose: intermediate structures differ")
    src, tgt = f.source.linf, g.target.linf
    d0 = src.dim0
    phi0 = g.hom.phi0.compose(f.hom.phi0)
    phi1 = g.hom.phi1.compose(f.hom.phi1)
    f0, g1 = f.hom.phi0, g.hom.phi1
    values = {(i, j): vadd(g1(f.hom.phi2(i, j)), g.hom.phi2(f0(i), f0(j)))
              for i in range(d0) for j in range(d0)}
    phi2 = BilinearMap.from_map(d0, d0, tgt.dim1, values, skew=True)
    phi3_cols = [vadd(g1(f.phi3(i)), g.phi3(f0(i))) for i in range(d0)]
    phi3 = LinearMap.from_columns(phi3_cols, rows=tgt.dim1)
    out = RBLInfinityHom(f.source, g.target,
                         LInfinityHom(src, tgt, phi0, phi1, phi2), phi3)
    oks = (run_checks(hom_checks(h.hom) + rb_hom_checks(h)).ok for h in (out, f, g))
    if not next(oks) and all(oks):
        raise InternalInvariantBroken("composite of verified homomorphisms failed verification")
    return out
