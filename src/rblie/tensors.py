"""Exact tensor containers over the rationals.

Every coefficient is a `fractions.Fraction`, so all identities checked in
this package are exact equalities; there are no tolerances anywhere.

Index conventions, fixed project-wide and mirrored by the file format:

* ``LinearMap.entries[r][c]`` is coordinate ``r`` of the image of the
  ``c``-th domain basis vector (columns are images of basis vectors).
* ``BilinearMap.coeffs[k][i][j]`` is coordinate ``k`` of ``m(e_i, e_j)``.
* ``TrilinearMap.coeffs[l][i][j][k]`` is coordinate ``l`` of
  ``m(e_i, e_j, e_k)``.

``skew`` / ``alt`` flags declare intended (anti)symmetry.  They are *not*
enforced at construction: verifiers check them and report violations,
which is what lets mutation tests build deliberately broken structures.
Construction validates shapes only.

Each map also keeps ``nonzero``, an index of its nonzero entries built
once at construction and grouped by input indices: column ``c`` ->
``((r, coeff), ...)`` for a linear map, pair ``(i, j)`` -> ``((k, coeff),
...)`` for a bilinear one, triple ``(i, j, k)`` -> ``((l, coeff), ...)`` for
a trilinear one.  ``apply`` visits only the nonzero coordinates of its
arguments and looks their input tuples up in the index, so a basis
evaluation costs one lookup instead of a walk over the whole grid; a map
with an empty index returns zero at once, and ``is_zero`` asks whether the
index is empty.  Only the order of the exact
``Fraction`` additions changes, so every result is the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .errors import ShapeMismatch

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(*entries) -> Vec:
    return tuple(frac(x) for x in entries)


def vzero(n: int) -> Vec:
    return (ZERO,) * n


def vbasis(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(*vs: Vec) -> Vec:
    return tuple(sum(col) for col in zip(*vs))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def vscale(c: Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def _grouped(cells) -> dict:
    """``(input key, output index, coeff)`` triples as the index
    ``key -> ((output index, coeff), ...)``."""
    groups: dict = {}
    for key, out, a in cells:
        groups.setdefault(key, []).append((out, a))
    return {key: tuple(g) for key, g in groups.items()}


def _support(u: Vec) -> list[tuple[int, Fraction]]:
    return [(i, a) for i, a in enumerate(u) if a]


def perm_sign(p: tuple[int, ...]) -> int:
    sign = 1
    p = list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


@dataclass(frozen=True)
class LinearMap:
    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]
    nonzero: dict = field(init=False, repr=False, compare=False)  # c -> ((r, coeff), ...)

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ShapeMismatch(
                f"linear map grid is not {self.rows}x{self.cols}")
        object.__setattr__(self, "nonzero", _grouped(
            (c, r, a) for r, row in enumerate(self.entries) for c, a in enumerate(row) if a))

    @staticmethod
    def zero(rows: int, cols: int) -> LinearMap:
        return LinearMap(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> LinearMap:
        return LinearMap(n, n, tuple(vbasis(n, i) for i in range(n)))

    @staticmethod
    def from_rows(rows_data) -> LinearMap:
        ent = tuple(tuple(frac(x) for x in row) for row in rows_data)
        return LinearMap(len(ent), len(ent[0]) if ent else 0, ent)

    @staticmethod
    def from_columns(cols: list[Vec], rows: int | None = None) -> LinearMap:
        if rows is None:
            if not cols:
                raise ShapeMismatch("cannot infer row count from no columns")
            rows = len(cols[0])
        ent = tuple(tuple(frac(col[r]) for col in cols) for r in range(rows))
        return LinearMap(rows, len(cols), ent)

    def column(self, j: int) -> Vec:
        return tuple(self.entries[r][j] for r in range(self.rows))

    def apply(self, u: Vec) -> Vec:
        if len(u) != self.cols:
            raise ShapeMismatch(f"vector of length {len(u)} fed to {self.rows}x{self.cols} map")
        if not self.nonzero:
            return vzero(self.rows)
        out = [ZERO] * self.rows
        for c, a in _support(u):
            for r, x in self.nonzero.get(c, ()):
                out[r] += x * a
        return tuple(out)

    def compose(self, other: LinearMap) -> LinearMap:
        """self after other (matrix product self @ other)."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return LinearMap.from_columns(
            [self.apply(other.column(j)) for j in range(other.cols)], rows=self.rows)

    def transpose(self) -> LinearMap:
        return LinearMap(self.cols, self.rows,
                         tuple(tuple(self.entries[r][c] for r in range(self.rows))
                               for c in range(self.cols)))

    def add(self, other: LinearMap) -> LinearMap:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("adding maps of different shapes")
        return LinearMap(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(ra, rb))
                               for ra, rb in zip(self.entries, other.entries)))

    def sub(self, other: LinearMap) -> LinearMap:
        return self.add(other.neg())

    def neg(self) -> LinearMap:
        return LinearMap(self.rows, self.cols,
                         tuple(tuple(-a for a in row) for row in self.entries))

    def scale(self, c) -> LinearMap:
        c = frac(c)
        return LinearMap(self.rows, self.cols,
                         tuple(tuple(c * a for a in row) for row in self.entries))

    def is_zero(self) -> bool:
        return not self.nonzero

    def flat(self) -> Vec:
        return tuple(a for row in self.entries for a in row)


@dataclass(frozen=True)
class BilinearMap:
    dim_a: int
    dim_b: int
    dim_out: int
    coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]  # [k][i][j]
    skew: bool = False
    nonzero: dict = field(init=False, repr=False, compare=False)  # (i, j) -> ((k, coeff), ...)

    def __post_init__(self):
        if (len(self.coeffs) != self.dim_out
                or any(len(plane) != self.dim_a for plane in self.coeffs)
                or any(len(row) != self.dim_b for plane in self.coeffs for row in plane)):
            raise ShapeMismatch(
                f"bilinear grid is not {self.dim_out}x{self.dim_a}x{self.dim_b}")
        if self.skew and self.dim_a != self.dim_b:
            raise ShapeMismatch("skew flag requires equal domain dimensions")
        object.__setattr__(self, "nonzero", _grouped(
            ((i, j), k, a) for k, plane in enumerate(self.coeffs)
            for i, row in enumerate(plane) for j, a in enumerate(row) if a))

    @staticmethod
    def zero(dim_a: int, dim_b: int, dim_out: int, skew: bool = False) -> BilinearMap:
        grid = tuple(tuple((ZERO,) * dim_b for _ in range(dim_a)) for _ in range(dim_out))
        return BilinearMap(dim_a, dim_b, dim_out, grid, skew)

    @staticmethod
    def from_map(dim_a: int, dim_b: int, dim_out: int,
                 values: dict[tuple[int, int], Vec], skew: bool = False) -> BilinearMap:
        """Build from images of basis pairs; unspecified pairs are zero.

        With ``skew=True`` the mirror pair is auto-filled with the negated
        value whenever only one orientation is given.
        """
        vals: dict[tuple[int, int], Vec] = {k: vec(*v) for k, v in values.items()}
        if skew:
            for (i, j), v in list(vals.items()):
                if (j, i) not in vals and i != j:
                    vals[(j, i)] = vneg(v)
        grid = tuple(tuple(tuple(vals.get((i, j), vzero(dim_out))[k]
                                 for j in range(dim_b))
                           for i in range(dim_a))
                     for k in range(dim_out))
        return BilinearMap(dim_a, dim_b, dim_out, grid, skew)

    def on_basis(self, i: int, j: int) -> Vec:
        return tuple(self.coeffs[k][i][j] for k in range(self.dim_out))

    def apply(self, u: Vec, v: Vec) -> Vec:
        if len(u) != self.dim_a or len(v) != self.dim_b:
            raise ShapeMismatch("bilinear map fed vectors of wrong lengths")
        if not self.nonzero:
            return vzero(self.dim_out)
        out = [ZERO] * self.dim_out
        vs = _support(v)
        for i, a in _support(u):
            for j, b in vs:
                for k, c in self.nonzero.get((i, j), ()):
                    out[k] += c * a * b
        return tuple(out)

    def curry_left(self, u: Vec) -> LinearMap:
        """The linear map v -> m(u, v)."""
        return LinearMap.from_columns(
            [self.apply(u, vbasis(self.dim_b, j)) for j in range(self.dim_b)],
            rows=self.dim_out)

    def is_zero(self) -> bool:
        return not self.nonzero


@dataclass(frozen=True)
class TrilinearMap:
    dim: int
    dim_out: int
    coeffs: tuple  # [l][i][j][k]
    alt: bool = False
    nonzero: dict = field(init=False, repr=False, compare=False)  # (i, j, k) -> ((l, coeff), ...)

    def __post_init__(self):
        ok = len(self.coeffs) == self.dim_out
        if ok:
            for cube in self.coeffs:
                if len(cube) != self.dim or any(len(p) != self.dim for p in cube) \
                        or any(len(r) != self.dim for p in cube for r in p):
                    ok = False
                    break
        if not ok:
            raise ShapeMismatch(
                f"trilinear grid is not {self.dim_out}x{self.dim}^3")
        object.__setattr__(self, "nonzero", _grouped(
            ((i, j, k), l, a) for l, cube in enumerate(self.coeffs) for i, plane in enumerate(cube)
            for j, row in enumerate(plane) for k, a in enumerate(row) if a))

    @staticmethod
    def zero(dim: int, dim_out: int, alt: bool = False) -> TrilinearMap:
        grid = tuple(tuple(tuple((ZERO,) * dim for _ in range(dim)) for _ in range(dim))
                     for _ in range(dim_out))
        return TrilinearMap(dim, dim_out, grid, alt)

    @staticmethod
    def from_map(dim: int, dim_out: int, values: dict[tuple[int, int, int], Vec],
                 alt: bool = False) -> TrilinearMap:
        """Build from images of index triples; with ``alt=True`` each given
        triple of distinct indices is propagated over all permutations with
        the permutation sign."""
        vals: dict[tuple[int, int, int], Vec] = {k: vec(*v) for k, v in values.items()}
        if alt:
            for (i, j, k), v in list(vals.items()):
                order = (i, j, k)
                for p in permutations(range(3)):
                    tgt = (order[p[0]], order[p[1]], order[p[2]])
                    if tgt not in vals:
                        vals[tgt] = vscale(frac(perm_sign(p)), v)
        grid = tuple(tuple(tuple(tuple(vals.get((i, j, k), vzero(dim_out))[l]
                                       for k in range(dim))
                                 for j in range(dim))
                           for i in range(dim))
                     for l in range(dim_out))
        return TrilinearMap(dim, dim_out, grid, alt)

    def on_basis(self, i: int, j: int, k: int) -> Vec:
        return tuple(self.coeffs[l][i][j][k] for l in range(self.dim_out))

    def apply(self, u: Vec, v: Vec, w: Vec) -> Vec:
        if len(u) != self.dim or len(v) != self.dim or len(w) != self.dim:
            raise ShapeMismatch("trilinear map fed vectors of wrong lengths")
        if not self.nonzero:
            return vzero(self.dim_out)
        out = [ZERO] * self.dim_out
        vs, ws = _support(v), _support(w)
        for i, a in _support(u):
            for j, b in vs:
                for k, c in ws:
                    for l, x in self.nonzero.get((i, j, k), ()):
                        out[l] += x * a * b * c
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.nonzero


def solve_exact(a: LinearMap, b: Vec) -> Vec | None:
    """Solve ``a x = b`` exactly, or return None when inconsistent.

    Underdetermined systems get the unique solution whose free coordinates
    (free = non-pivot columns under leftmost-pivot elimination) are zero;
    this makes completion constructions deterministic.
    """
    if len(b) != a.rows:
        raise ShapeMismatch("right-hand side has wrong length")
    m, n = a.rows, a.cols
    rows = [list(a.entries[r]) + [b[r]] for r in range(m)]
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
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [ZERO] * n
    for pr, pc in pivots:
        x[pc] = rows[pr][n]
    return tuple(x)
