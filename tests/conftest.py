"""Shared corpus: catalog structures, the frozen operator list, and the
condition-exact mutant suite used by the unit and acceptance tests."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from rblie import catalog
from rblie.catalog import aff1, sl2, solvable4, sl2_rb_triangular, aff1_rb_neg
from rblie.crossed import LieCrossedModule
from rblie.errors import ShapeMismatch
from rblie.liealg import LieAlgebra
from rblie.lie2 import Morphism2V
from rblie.search import mutate
from rblie.serialize import (DIM, FORMAT_VERSION, KIND_OF_CLASS, LABELS, OPERATORS,
                             RATIONALS, TENSOR, get_at)
from rblie.tensors import (BilinearMap, LinearMap, TrilinearMap, Vec, frac, from_cells,
                           vadd, vbasis, vec, vneg, vsub)
from rblie.twoterm import (RBLInfinityHom, TwoTermRBLInfinity, identity_rb_hom, rb_hom,
                           two_term, with_operators)

CATALOG_DIR = Path(__file__).resolve().parent.parent / "catalog"


def structure_mutants() -> list[tuple[str, TwoTermRBLInfinity]]:
    """One mutant per named structure condition; each is caught by the full
    operator-structure verifier with a violation list naming exactly that
    condition."""
    out = []
    base_a = with_operators(two_term(1, 1, l1=LinearMap.identity(1)))
    out.append(("a", mutate(base_a, ("l2_01", 0, 0, 0), 1)))

    base_b = with_operators(two_term(4, 1, l1=LinearMap.from_rows([[0], [0], [0], [1]])))
    out.append(("b", mutate(base_b, ("l3", 0, 0, 1, 2), 1)))

    base_c = with_operators(two_term(3, 2, l1=LinearMap.from_rows([[0, 0], [0, 0], [0, 1]])))
    out.append(("c", mutate(base_c, ("l3", 0, 0, 1, 2), 1)))

    base_d = with_operators(two_term(4, 1, l2_00=solvable4().bracket))
    out.append(("d", mutate(base_d, ("l3", 0, 1, 2, 3), 1)))

    base_1 = with_operators(two_term(3, 1, l1=LinearMap.from_rows([[1], [0], [0]])))
    out.append(("rb1", mutate(base_1, ("r2", 0, 1, 2), 1)))

    action = BilinearMap.from_map(2, 1, 1, {(0, 0): vec(1)})
    base_2 = with_operators(two_term(2, 1, l2_00=aff1().bracket, l2_01=action))
    out.append(("rb2", mutate(base_2, ("r1", 0, 0), 1)))

    base_3 = with_operators(two_term(3, 1, l2_00=sl2().bracket), sl2_rb_triangular().r)
    out.append(("rb3", mutate(base_3, ("r2", 0, 0, 2), 1)))
    return out


def rbh3_base_hom() -> RBLInfinityHom:
    """A valid homomorphism whose phi3 can be mutated without touching the
    other operator conditions: empty top term on the source side, zero
    differential and zero degree-one action on the target side."""
    src = with_operators(two_term(2, 0, l2_00=aff1().bracket), aff1_rb_neg().r)
    tgt = with_operators(two_term(2, 1, l2_00=aff1().bracket), aff1_rb_neg().r)
    return rb_hom(src, tgt, LinearMap.identity(2))


def hom_mutants() -> list[tuple[str, RBLInfinityHom]]:
    out = []
    g1 = with_operators(two_term(2, 1, l1=LinearMap.from_rows([[1], [0]])))
    out.append(("rbh1", mutate(identity_rb_hom(g1), ("phi3", 0, 1), 1)))

    g2 = with_operators(two_term(2, 2, l1=LinearMap.from_rows([[1, 0], [0, 0]])))
    out.append(("rbh2", mutate(identity_rb_hom(g2), ("phi3", 1, 0), 1)))

    out.append(("rbh3", mutate(rbh3_base_hom(), ("phi3", 0, 1), 1)))
    return out


def descent_chain(cm_name: str, length: int = 3):
    """Composable descent homomorphisms obtained by iterating the derived
    construction; element k maps the (k+1)-fold derived structure to the
    k-fold one."""
    cm = catalog.CROSSED_MODULES[cm_name]
    homs = []
    for _ in range(length):
        homs.append(catalog.operator_descent_hom(cm))
        cm = catalog.derived_rb_crossed(cm)
    return homs


def bracket_forms(view, f, g):
    """Both displayed expressions for the bracket of two morphisms of the
    view: `view.bracket`, and l2(x, b) - l2(t(g), a) on the arrow parts
    a of f and b of g, with x the source of f."""
    L = view.base.linf
    first = view.bracket(f, g)
    second = vadd(L.l2_01.apply(f.source, g.arrow), vneg(L.l2_01.apply(view.target(g), f.arrow)))
    return first, Morphism2V(first.source, second)


def reference_render(value, indent: int = 0) -> str:
    """The canonical rendering written with `json.dumps` for every scalar
    and every list of scalars: the bytes `serialize.dumps` must give."""
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(f"{pad}  {json.dumps(k)}: {reference_render(v, indent + 2)}"
                          for k, v in value.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, list) and any(isinstance(v, (list, dict)) for v in value):
        body = ",\n".join(f"{pad}  {reference_render(v, indent + 2)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    return json.dumps(value)  # a scalar, or a list of scalars on one line


def to_document(obj) -> dict:
    """The document of `obj` as a JSON value tree, built from the kinds table
    apart from `serialize.dumps`; `reference_render` of it is the text
    `dumps` must write."""
    return _tree(KIND_OF_CLASS[type(obj)], obj)


def _tree(kind, obj) -> dict:
    def entries(t, codec=TENSOR):
        return [[*idx, str(q)] for idx, q in codec.cells(t).items()]

    doc = {"kind": kind.name, "version": FORMAT_VERSION}
    for f in kind.fields:
        value = get_at(obj, f.path)
        if f.codec.tensor:
            doc[f.key] = entries(value, f.codec)
        elif f.codec.embeds:
            doc[f.key] = _tree(f.codec.embeds, value)
        elif f.codec is OPERATORS:
            doc[f.key] = [entries(m) for m in value]
        elif f.codec is RATIONALS:
            doc[f.key] = [str(q) for q in value]
        elif f.codec is LABELS:
            if value is not None:
                doc[f.key] = list(value)
        else:
            assert f.codec is DIM
            doc[f.key] = value
    return doc


def reference_perm_sign(p: tuple[int, ...]) -> int:
    """The sign of the permutation `p` of ``range(len(p))``, by cycle sort:
    a sign rule independent of `tensors.parity`."""
    sign, p = 1, list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def reference_solve(a: LinearMap, b: Vec) -> Vec | None:
    """Solve ``a x = b`` exactly, or return None when inconsistent.

    Underdetermined systems get the unique solution whose free coordinates
    (free = non-pivot columns under leftmost-pivot elimination) are zero;
    this makes completion constructions deterministic.
    """
    if len(b) != a.rows:
        raise ShapeMismatch("right-hand side has wrong length")
    m, n = a.rows, a.cols
    cells = a.cells()
    rows = [[cells.get((r, c), 0) for c in range(n)] + [b[r]] for r in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [frac(x) / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [0] * n
    for pr, pc in pivots:
        x[pc] = rows[pr][n]
    return tuple(x)


def _random_rb_hom(seed: int, d0: int, d1: int, flags_hold: bool) -> RBLInfinityHom:
    """An operator homomorphism between two random two-term structures.
    Every store is drawn cell by cell; the flagged ones (l2_00, l3, r2,
    phi2) either get cells at sorted input tuples only, completed with
    signs by `from_map`, or get cells anywhere with the flag set."""
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))

    def tensor(shape, flag=False):
        if flag and flags_hold:
            out, n, *rest = shape
            values = {idx: tuple(coeff() if rng.random() < 0.6 else 0 for _ in range(out))
                      for idx in combinations(range(n), 1 + len(rest))}
            return (BilinearMap.from_map(n, n, out, values, skew=True) if len(rest) == 1
                    else TrilinearMap.from_map(n, out, values, alt=True))
        cells = {idx: coeff() for idx in product(*map(range, shape)) if rng.random() < 0.6}
        return from_cells(shape, cells, flag)

    def structure():
        linf = two_term(d0, d1, tensor((d0, d1)), tensor((d0, d0, d0), True),
                        tensor((d1, d0, d1)), tensor((d1, d0, d0, d0), True))
        return with_operators(linf, tensor((d0, d0)), tensor((d1, d1)),
                              tensor((d1, d0, d0), True))

    src, tgt = structure(), structure()
    return rb_hom(src, tgt, tensor((d0, d0)), tensor((d1, d1)), tensor((d1, d0, d0), True),
                  tensor((d1, d0)))


def flag_broken_rb_hom(seed: int, d0: int = 3, d1: int = 2) -> RBLInfinityHom:
    """Random stores (`_random_rb_hom`) whose flagged stores carry the flag
    but are not skew or alternating."""
    return _random_rb_hom(seed, d0, d1, flags_hold=False)


def flag_respecting_rb_hom(seed: int, d0: int = 4, d1: int = 2) -> RBLInfinityHom:
    """Random stores (`_random_rb_hom`) whose flagged stores are skew or
    alternating as flagged; no axiom is expected to hold on them."""
    return _random_rb_hom(seed, d0, d1, flags_hold=True)


# Reference forms of `d` and of the residuals checked once per orbit, written
# term by term from the maps, at the literal argument order.

def reference_d(L, i, j, k, l):
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


def reference_jcoh(G, w, x, y, z):
    br, act, J = G.linf.l2_00, G.linf.l2_01, G.linf.l3
    left = vadd(vneg(act(z, J(w, x, y))), J(br(w, y), x, z), J(w, br(x, y), z),
                vneg(act(x, J(w, y, z))), act(w, J(x, y, z)))
    right = vadd(J(br(w, x), y, z), vneg(act(y, J(w, x, z))),
                 J(w, br(x, z), y), J(br(w, z), x, y), J(w, x, br(y, z)))
    return vsub(left, right)


def reference_rb3(G, i, j, k):
    L, rb = G.linf, G.rb
    br, act, l3, r0, r1, r2 = L.l2_00, L.l2_01, L.l3, rb.r0, rb.r1, rb.r2

    def grouped(x1, x2, x3):
        t1 = act(r0(x1), r2(x2, x3))
        t2 = r2(x3, vsub(br(r0(x1), x2), br(r0(x2), x1)))
        inner = vsub(vneg(act(x1, r2(x2, x3))), l3(r0(x2), r0(x3), x1))
        return vadd(t1, t2, r1(inner))

    total = vadd(grouped(i, j, k), grouped(j, k, i), grouped(k, i, j))
    return vadd(total, l3(r0(i), r0(j), r0(k)))


def reference_coh(G, x, y, z):
    L, rb = G.linf, G.rb
    br, act, J, P, R = L.l2_00, L.l2_01, L.l3, rb.r1, rb.r2
    px, py, pz = rb.r0(x), rb.r0(y), rb.r0(z)
    left = vadd(J(px, py, pz), act(px, R(y, z)), vneg(act(py, R(x, z))),
                R(x, br(py, z)), R(x, br(y, pz)), R(br(x, pz), y), R(br(px, z), y),
                P(J(px, z, py)), P(vneg(act(z, R(x, y)))))
    right = vadd(vneg(act(pz, R(x, y))), R(br(px, y), z), R(br(x, py), z),
                 P(J(px, y, pz)), P(J(x, py, pz)),
                 P(vneg(act(y, R(x, z)))), P(act(x, R(y, z))))
    return vsub(left, right)


def reference_cohm(F, x, y):
    """The homomorphism coherence diagram as the arrow parts of its two
    paths, all eleven terms; the right path's first two are the bracket
    [f3(x), f3(y)]."""
    src, tgt, p0, p1, p2, p3 = F.source, F.target, F.hom.phi0, F.hom.phi1, F.hom.phi2, F.phi3
    br, r0, R = src.linf.l2_00, src.rb.r0, src.rb.r2
    act, P, r0t, l1t = tgt.linf.l2_01, tgt.rb.r1, tgt.rb.r0, tgt.linf.complex.l1
    left = vadd(tgt.rb.r2(p0(x), p0(y)),
                P(vneg(act(p0(y), p3(x)))), P(act(p0(x), p3(y))),
                P(p2(r0(x), y)), P(p2(x, r0(y))),
                p3(br(r0(x), y)), p3(br(x, r0(y))))
    right = vadd(act(vadd(r0t(p0(x)), l1t(p3(x))), p3(y)), vneg(act(r0t(p0(y)), p3(x))),
                 p2(r0(x), r0(y)), p1(R(x, y)))
    return vsub(left, right)


def reference_h3(f, x, y, z):
    src, tgt = f.source, f.target
    p0, p1, p2, br, act = f.phi0, f.phi1, f.phi2, src.l2_00, tgt.l2_01
    lhs = vadd(vneg(act(p0(z), p2(x, y))), p2(br(x, y), z), p1(src.l3(x, y, z)))
    rhs = vadd(tgt.l3(p0(x), p0(y), p0(z)),
               act(p0(x), p2(y, z)),
               vneg(act(p0(y), p2(x, z))),
               p2(x, br(y, z)),
               p2(br(x, z), y))
    return vsub(lhs, rhs)


def closed_form_derived(cm):
    """The derived crossed module from its formulas, a reference apart from
    the pre-Lie route that `derived_crossed` takes: brackets
    [x,y] = [T0 x, y] - [T0 y, x], action x.u = rho(T0 x) u + rho(x) T1 u."""
    base = cm.base

    def bracket(alg, t):
        n = alg.dim
        return BilinearMap.from_map(
            n, n, n, {(i, j): vsub(alg.bracket_vec(t.column(i), vbasis(n, j)),
                                   alg.bracket_vec(t.column(j), vbasis(n, i)))
                      for i in range(n) for j in range(n)}, skew=True)

    n0, n1 = base.g0.dim, base.g1.dim
    acts, t0, t1 = [m.entries for m in base.rho], cm.t0.entries, cm.t1.entries

    def action(i):  # entries of rho(T0 e_i) + rho(e_i) T1
        return LinearMap.from_rows(
            [[sum(t0[k][i] * acts[k][r][c] for k in range(n0))
              + sum(acts[i][r][s] * t1[s][c] for s in range(n1)) for c in range(n1)]
             for r in range(n1)])

    rho = tuple(action(i) for i in range(n0))
    return LieCrossedModule(LieAlgebra(base.g0.dim, bracket(base.g0, cm.t0)),
                            LieAlgebra(base.g1.dim, bracket(base.g1, cm.t1)), base.d, rho)


@pytest.fixture(scope="session")
def lie_catalog():
    return catalog.LIE_ALGEBRAS


@pytest.fixture(scope="session")
def rb_catalog():
    return catalog.RB_ALGEBRAS


@pytest.fixture(scope="session")
def crossed_catalog():
    return catalog.CROSSED_MODULES


@pytest.fixture(scope="session")
def two_term_catalog():
    return catalog.TWO_TERM_STRUCTURES


@pytest.fixture(scope="session")
def hom_catalog():
    return catalog.HOMOMORPHISMS


@pytest.fixture(scope="session")
def golden_operators():
    from rblie.search import SearchSpec, enumerate_rb_operators
    return enumerate_rb_operators(SearchSpec(catalog.LIE_ALGEBRAS["aff1"]))
