"""Enumeration of Rota-Baxter operators over finite coefficient grids, and
single-site mutation of verified structures.

The search assigns R one column at a time, depth first.  Once columns i < j
are set, the weight-zero identity at the pair (i, j) is linear in R:
R v = [R e_i, R e_j] with v = [R e_i, e_j] + [e_i, R e_j].  With columns
0..k-1 set, a pair whose v has no nonzero coordinate past k is decided:
when v is zero on every unset column its residual (the set columns moved
to the right-hand side) must vanish, and when its only unset coordinate is
k it forces column k to residual / v_k, one exact division per row whose
quotient must lie in the grid.  A failure prunes the branch.  A completed
matrix (k = n) is decided by the same rule: every pair is settled, so each
residual must vanish.

Each matrix kept, mirrored ones included (below), is confirmed once more,
exactly, by `_is_rb`: at every pair i < j the residual lhs - sum_m v_m c_m
of the pair's (lhs, v), read from the pair table below, must vanish on
the completed matrix.  That is the weight-zero identity at every basis
pair.  A matrix the walk kept finds all its pairs in the table, so no
bracket or map is applied again; a mirrored one adds the entries of its
negated columns.  Only a matrix that passes is built as a map.  The
brute-force oracle of `tests/test_search.py` still judges by the full
`rota-baxter` checks (`liealg.rb_checks`).

The weight-zero identity [Rx, Ry] = R([Rx, y] + [x, Ry]) is homogeneous of
degree 2 in R, so -R is an operator exactly when R is.  (This is for
weight zero only: the weight-w term R(w[x, y]) has degree 1, and -R is an
operator of weight -w.)  On a grid closed under negation the search walks
only the matrices whose first nonzero entry, column 0 first and top row
first, is positive: while every set column is zero, each pair has lhs =
v = 0, nothing is forced, and a candidate column whose leading nonzero
entry is negative is skipped.  Each nonzero matrix kept is emitted with
its negative, and both are confirmed.  The result is sorted into
lexicographic row-major order, so re-runs produce the same list as a pass
over the whole grid would, mirrored or not.

A column stays fixed for its whole subtree, so each pair's (lhs, v) is
computed once, on first use, in the pair table: a dict keyed by
``(i, j, R e_i, R e_j)`` that lives for one search, since it is valid for
one algebra and one grid only.  It holds at most C(n, 2)·|column values|²
entries, in practice the pairs the search visits and the confirmation
adds; the weight-zero mirror leaves the bound as it is, since a negated
column is a column of the grid too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, permutations, product

from .errors import BadSite, BudgetExceeded
from .liealg import LieAlgebra, RotaBaxterLieAlgebra
from .serialize import KIND_OF_CLASS, get_at, put_at
from .tensors import LinearMap, Vec, exact, group_cells, parity, vadd
from .value import Value


class SearchSpec(Value):
    """A grid of candidate matrices: every free entry takes each value of
    `coeffs` (stored deduplicated, ascending, integral values as ``int``)
    and every masked entry is 0.  `budget` bounds the grid size."""
    target: LieAlgebra
    coeffs: tuple[int | Fraction, ...] = (-1, 0, 1)
    mask: tuple[tuple[bool, ...], ...] | None = None  # True = entry is free
    budget: int = 10_000_000

    def __post_init__(self):
        if not self.coeffs:
            raise BadSite("coefficient set must be non-empty")
        object.__setattr__(self, "coeffs", tuple(sorted({exact(c) for c in self.coeffs})))
        n = self.target.dim
        if self.mask is not None and (
                len(self.mask) != n or any(len(r) != n for r in self.mask)):
            raise BadSite("mask must be an n x n boolean grid")

    def free_sites(self) -> list[tuple[int, int]]:
        n = self.target.dim
        return [(r, c) for r in range(n) for c in range(n)
                if self.mask is None or self.mask[r][c]]

    def candidate_count(self) -> int:
        return len(self.coeffs) ** len(self.free_sites())

    def column_axes(self, k: int) -> tuple[tuple[int | Fraction, ...], ...]:
        """The values each entry of column k ranges over."""
        return tuple(self.coeffs if self.mask is None or self.mask[r][k] else (0,)
                     for r in range(self.target.dim))


def _residual(lhs: Vec, v: Vec, cols: tuple[Vec, ...]) -> list:
    """lhs - sum_m v_m c_m over the set columns c_m (`cols`)."""
    residual = list(lhs)
    for m, col in enumerate(cols):
        if v[m]:
            for r, a in enumerate(col):
                residual[r] -= v[m] * a
    return residual


def _is_rb(pair, matrix: tuple[Vec, ...]) -> bool:
    """Whether the completed `matrix` (its columns) satisfies the identity at
    every pair i < j: the residual of ``pair(i, j, c_i, c_j)``'s (lhs, v)
    must vanish."""
    return not any(any(_residual(*pair(i, j, matrix[i], matrix[j]), matrix))
                   for i, j in combinations(range(len(matrix)), 2))


def _narrow(pairs, cols: tuple[Vec, ...], axes):
    """Decide the pairs that columns 0..k-1 (`cols`) settle, k = len(cols):
    ``(pairs still open, values for column k)``, or None to prune.  With
    every column set (k = n) every pair is settled."""
    k = len(cols)
    still_open, forced = [], None
    for lhs, v in pairs:
        if any(v[k + 1:]):
            still_open.append((lhs, v))
            continue
        residual = _residual(lhs, v, cols)
        if k == len(v) or not v[k]:
            if any(residual):
                return None
            continue
        # column k = residual / v_k: one exact quotient per row (an int when
        # integral, as the axes hold it), which must be a value of its row's axis
        column = tuple(a // v[k] if a % v[k] == 0 else Fraction(a, v[k]) for a in residual)
        if forced not in (None, column) or any(c not in axis for c, axis in zip(column, axes)):
            return None
        forced = column
    return still_open, iter([forced]) if forced is not None else product(*axes)


def enumerate_rb_operators(spec: SearchSpec) -> list[RotaBaxterLieAlgebra]:
    """All operators over the coefficient grid that satisfy the weight-zero
    identity, in lexicographic row-major matrix order."""
    count = spec.candidate_count()
    if count > spec.budget:
        raise BudgetExceeded(
            f"{count} candidates exceed the budget of {spec.budget}", count)
    alg = spec.target
    n = alg.dim
    if n == 0:
        return [RotaBaxterLieAlgebra(alg, LinearMap.zero(0, 0))]
    # a completed node has no next column: its pairs are decided, not forced
    axes = [spec.column_axes(k) for k in range(n)] + [()]
    left = [alg.ad(i) for i in range(n)]  # x -> [e_i, x]
    right = [alg.bracket.partial(0, j) for j in range(n)]  # x -> [x, e_j]
    table = {}  # the pair table: (i, j, R e_i, R e_j) -> (lhs, v), for this call only

    def pair(i, j, ci, cj):
        """``(lhs, v)`` of the pair (i, j) with R e_i = ci and R e_j = cj:
        lhs = [R e_i, R e_j] and v = [R e_i, e_j] + [e_i, R e_j]."""
        entry = table.get((i, j, ci, cj))
        if entry is None:
            entry = table[i, j, ci, cj] = (alg.bracket_vec(ci, cj),
                                           vadd(right[j].apply(ci), left[i].apply(cj)))
        return entry

    def new_pairs(cols):
        """The pairs (i, j) whose later column j was set last."""
        j, cj = len(cols) - 1, cols[-1]
        return (pair(i, j, ci, cj) for i, ci in enumerate(cols[:j]))

    # weight zero: on a grid closed under negation -R is an operator exactly
    # when R is, so walk only the matrices whose first nonzero entry is positive
    mirror = all(-c in spec.coeffs for c in spec.coeffs)

    def values_of(node, values):
        """The values to try after `node`: while its columns are all zero
        (its pairs have lhs = v = 0, so nothing is forced), only the columns
        whose leading nonzero entry is positive, or the zero column."""
        if mirror and not any(map(any, node)):
            return (col for col in values if next((a > 0 for a in col if a), True))
        return values

    found = []
    # depth first; a frame holds the set columns, the pairs among them still
    # open, and the values left to try for the next column
    stack = [((), [], values_of((), product(*axes[0])))]
    while stack:
        cols, pairs, values = stack[-1]
        column = next(values, None)
        if column is None:
            stack.pop()
            continue
        node = cols + (column,)
        narrowed = _narrow(chain(pairs, new_pairs(node)), node, axes[len(node)])
        if narrowed is None:
            continue
        if len(node) < n:
            still_open, values = narrowed
            stack.append((node, still_open, values_of(node, values)))
            continue
        matrices = [node]
        if mirror and any(map(any, node)):
            matrices.append(tuple(tuple(-a for a in col) for col in node))
        for matrix in matrices:
            if _is_rb(pair, matrix):
                # the columns hold exact grid values, so they are the store as it is
                found.append((tuple(zip(*matrix)), LinearMap(n, n, {  # (rows, map)
                    (c,): tuple((row, a) for row, a in enumerate(col) if a)
                    for c, col in enumerate(matrix) if any(col)})))
    found.sort(key=lambda rows_r: rows_r[0])  # row-major order
    return [RotaBaxterLieAlgebra(alg, r) for _, r in found]


def mutate(value, site: tuple, delta) -> object:
    """Return a copy with one tensor entry changed by `delta` (plus the
    partner entries demanded by a skew/alternating flag).  `site` is the
    document key of the tensor followed by its indices, which must be those
    of an entry the document could hold: the bounds are the map's own
    (`TensorCodec.bounds`), the `Field.bounds` that the loader builds it
    with and that its class's `shapes=` checks.  The result is unverified."""
    delta = exact(delta)
    name, idx = site[0], tuple(site[1:])
    kind = KIND_OF_CLASS.get(type(value))
    if kind is None or not any(f.codec.tensor for f in kind.fields):
        raise BadSite(f"cannot mutate a {type(value).__name__}")
    field = next((f for f in kind.fields
                  if f.key == name and f.codec.tensor), None)
    if field is None:
        raise BadSite(f"unknown tensor {name!r} for {type(value).__name__}")
    codec, tensor, flag = field.codec, get_at(value, field.path), field.flag
    shape = codec.bounds(tensor)
    if len(idx) != len(shape):
        raise BadSite(f"{name} sites take {len(shape)} indices")
    if not all(0 <= i < bound for i, bound in zip(idx, shape)):
        raise BadSite(f"index {idx} outside the {'x'.join(map(str, shape))} tensor {name}")
    out, args = idx[:1], idx[1:]
    sign = parity(args) if flag else 1
    if not sign:
        raise BadSite(f"{name} is skew/alternating: repeated indices are pinned to zero")
    # a flagged tensor moves each ordering of the arguments, by the sign taking args to it
    moves = [(p, sign * parity(p)) for p in permutations(args)] if flag else [(args, 1)]
    entries = codec.cells(tensor)
    for p, s in moves:
        entries[out + p] = entries.get(out + p, 0) + s * delta
    return put_at(value, field.path, codec.build(shape, group_cells(entries), flag))
