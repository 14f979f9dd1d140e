"""Exact tensor containers over the rationals.

Every coefficient is an exact ``int`` or `fractions.Fraction` (stores and
`vec` keep integral ones as ``int``, see `exact`), so all identities
checked in this package are exact equalities; there are no tolerances
anywhere.  `solve_exact` eliminates each matrix once, over the integers,
and caches the result on the map; a solve then divides once per pivot,
a ``Fraction`` by an ``int``.

Index conventions, fixed project-wide and mirrored by the file format: a
cell ``(out, *inputs)`` is coordinate ``out`` of the image of the input
basis vectors: ``(r, c)`` of a ``LinearMap`` (columns are images of basis
vectors), ``(k, i, j)`` of ``m(e_i, e_j)`` for a ``BilinearMap`` and
``(l, i, j, k)`` of ``m(e_i, e_j, e_k)`` for a ``TrilinearMap``.

``skew`` / ``alt`` flags declare intended (anti)symmetry.  They are *not*
enforced at construction, and no verifier reads them: the `skew*` and
`alt-l3` families check the store whatever the flag says, and orbit
evaluation asks the store too (`is_alternating`).  A flag steers building
and comparing only: ``from_map`` fills in the partners of each given
image, the document decoder sets it from its field, and ``==`` compares
it.  Construction validates shapes only, which is what lets mutation
tests build deliberately broken structures.

`parity` is the package's one sign rule for skew and alternating maps: the
sign of the permutation that sorts a tuple of indices, 0 at a repeat.

One store: a map holds only ``nonzero``, its nonzero cells grouped by
input indices (``(c,)``, ``(i, j)`` or ``(i, j, k)`` -> ``((out, coeff),
...)``) with outputs ascending, no zero coefficient and no empty group, so
``==`` of the fields is exact value equality.  Every builder writes it
directly, at O(nonzero entries) whatever the declared dimensions.
``cells()`` reads it as the flat ``{(out, *inputs): coeff}`` entries that
documents hold and ``search.mutate`` edits; ``from_cells`` builds from
them, and ``from_groups`` from entries already grouped by input indices,
as a document's decoder groups them and as the image builders
(``from_map``, ``from_columns``, ``from_rows``) group the nonzero
coordinates of each image, with no cell made for a zero.  ``apply`` walks the store (a
bilinear or trilinear map's entries grouped by first input, built on
first use and cached on the map) and reads its arguments only at stored
inputs; it is the one kernel.

Calling a map reads it at any mix of basis indices (``int``) and vectors,
so ``m(i, v)`` is ``m(e_i, v)``.  Basis arguments are read from the store,
not fed to ``apply`` as basis vectors: with all arguments indices the call
reads the stored image (as ``column`` / ``on_basis`` do); with one vector it
applies ``partial(slot, *fixed)``, the linear map of that input with the
others fixed to basis indices (``m.partial(1, i)`` is ``v -> m(e_i, v)``);
with two or more vectors it goes to ``apply``.  A map with no stored cells
returns zero at once.  The partial maps of one slot are built together, in
one pass over the store, on first use and cached on the map; they read the
store as it is, whatever the skew/alternating flag.

``LinearMap.entries[r][c]`` and ``coeffs[k][i][j]`` / ``coeffs[l][i][j][k]``
are dense nested-tuple views, built on first access and cached.  Nothing in
this package reads them; the dense-oracle kernel test and the benchmark's
per-layer tracer do.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, permutations
from math import gcd, lcm
from operator import ge, neg, sub

from .errors import ShapeMismatch
from .value import Value, _set

Vec = tuple[int | Fraction, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def exact(x) -> int | Fraction:
    """`x` as a stored coefficient: an ``int`` when integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    x = frac(x)
    return int(x) if x.denominator == 1 else x


def vec(*entries) -> Vec:
    return tuple(exact(x) for x in entries)


def vzero(n: int) -> Vec:
    return (0,) * n


def vbasis(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def vadd(*vs: Vec) -> Vec:
    return tuple(map(sum, zip(*vs)))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(sub, u, v))


def vneg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def vscale(c: int | Fraction, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero(u: Vec) -> bool:
    return all(a == 0 for a in u)


def _vector(group, n: int) -> Vec:
    """The length-n vector with the coordinates of one index group."""
    out = [0] * n
    for i, a in group:
        out[i] = a
    return tuple(out)


_pairs = cache(lambda k: tuple(combinations(range(k), 2)))  # position pairs p < q of a k-tuple


def parity(idx: tuple[int, ...]) -> int:
    """The sign (1 or -1) of the permutation that sorts `idx`, or 0 when an
    index repeats: -1 to the number of inversions."""
    sign = 1
    for p, q in _pairs(len(idx)):
        a, b = idx[p], idx[q]
        if a >= b:
            if a == b:
                return 0
            sign = -sign
    return sign


@cache
def signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each permutation of ``range(k)`` with its sign."""
    return tuple((p, parity(p)) for p in permutations(range(k)))


def _image_groups(images, flag: bool = False) -> dict:
    """Store groups of `images`, pairs (input tuple, vector): the nonzero
    coordinates of each vector as `exact` coefficients, zero vectors left
    out.  With `flag`, each permutation of a given tuple that is not given
    itself takes the image times the sign of the permutation."""
    groups = {key: [(out, exact(a)) for out, a in enumerate(v) if a] for key, v in images}
    if flag:
        for key, g in list(groups.items()):
            for p, sign in signed_permutations(len(key)):
                groups.setdefault(tuple(key[q] for q in p), [(out, sign * a) for out, a in g])
    return {key: g for key, g in groups.items() if g}


def group_cells(cells: dict) -> dict:
    """The cells ``{(out, *inputs): coeff}`` as store groups ``inputs ->
    [(out, coeff), ...]``.  Zero coefficients are left out; an integral
    coefficient is stored as an ``int``."""
    groups: dict = {}
    for key, a in cells.items():
        if a:
            groups.setdefault(key[1:], []).append((key[0], exact(a)))
    return groups


def from_cells(shape: tuple[int, ...], cells: dict, flag: bool = False):
    """The map with nonzero cells ``{(out, *inputs): coeff}``; see `from_groups`."""
    return from_groups(shape, group_cells(cells), flag)


def from_groups(shape: tuple[int, ...], groups: dict, flag: bool = False):
    """The map with index bounds `shape` (output first) whose store holds
    `groups` (``inputs -> [(out, coeff), ...]``, nonzero exact coefficients,
    distinct outputs, each group sorted here): linear, bilinear or
    trilinear by the length of `shape`, with skew/alternating `flag`."""
    index = {ins: tuple(sorted(g)) for ins, g in groups.items()}
    if len(shape) == 2:
        return LinearMap(*shape, index)
    if len(shape) == 3:
        return BilinearMap(shape[1], shape[2], shape[0], index, flag)
    return TrilinearMap(shape[1], shape[0], index, flag)


class _Multilinear(Value):
    """The store and its readers, shared by the three map classes.  Each
    names the index bounds of its cells (`shape`, output first) and its
    skew/alternating `flag`.  The store is a dict, so `__hash__` hashes its
    items.  Each class writes out its `__init__`: maps are the values built
    most often."""

    def __post_init__(self):
        out, *ins = self.shape
        for key, group in self.nonzero.items():
            if (len(key) != len(ins) or min(key) < 0 or any(map(ge, key, ins))
                    or group and (min(group)[0] < 0 or max(group)[0] >= out)):
                raise ShapeMismatch(
                    f"entry {key} outside the {'x'.join(map(str, self.shape))} map")

    def __hash__(self) -> int:
        return hash(frozenset(self.nonzero.items()))

    def cells(self) -> dict:
        """The nonzero cells ``{(out, *inputs): coeff}`` in index order."""
        return dict(sorted(((out, *key), a) for key, g in self.nonzero.items() for out, a in g))

    def _dense(self) -> tuple:
        """The dense nested-tuple grid of `shape`, built from the cells."""
        cells, shape = self.cells(), self.shape

        def build(at):
            if len(at) == len(shape):
                return cells.get(at, 0)
            return tuple(build(at + (i,)) for i in range(shape[len(at)]))
        return build(())

    def is_zero(self) -> bool:
        return not self.nonzero

    @cached_property
    def is_alternating(self) -> bool:
        """Whether permuting the inputs scales every image by the sign of
        the permutation: exactly when the map's `skew-*` or `alt-l3` checks
        report nothing, whatever its flag.  A stored image at repeated
        inputs fails, as an odd permutation fixes them.  O(nonzero
        entries), once per map."""
        signs = signed_permutations(len(self.shape) - 1)
        return all(self.nonzero.get(tuple(key[q] for q in p))
                   == tuple((o, s * a) for o, a in group)
                   for key, group in self.nonzero.items() for p, s in signs)

    _partials = cached_property(lambda self: {})  # slot -> (maps, zero map, len(fixed))

    @cached_property
    def _by_first(self) -> dict:
        """The stored entries grouped by first input: ``i -> [(*rest, group), ...]``."""
        groups: dict = {}
        for key, group in self.nonzero.items():
            groups.setdefault(key[0], []).append((*key[1:], group))
        return groups

    def partial(self, slot: int, *fixed: int) -> LinearMap:
        """The linear map of input `slot` with the other inputs fixed to the
        basis indices `fixed`, in order: ``t.partial(0, j, k)`` is
        ``u -> t(u, e_j, e_k)``.  Fixed indices with no stored cells share
        one zero map."""
        try:
            maps, zero, arity = self._partials[slot]
        except KeyError:
            groups: dict = {}
            for key, group in self.nonzero.items():
                groups.setdefault(key[:slot] + key[slot + 1:], {})[key[slot],] = group
            rows, cols = self.shape[0], self.shape[1 + slot]
            maps = {rest: LinearMap(rows, cols, index) for rest, index in groups.items()}
            zero, arity = LinearMap.zero(rows, cols), len(self.shape) - 2
            self._partials[slot] = maps, zero, arity
        found = maps.get(fixed)
        if found is not None:
            return found
        if len(fixed) != arity:
            raise ShapeMismatch(f"a partial map of a {arity + 1}-input map fixes {arity} indices")
        return zero


class LinearMap(_Multilinear):
    rows: int
    cols: int
    nonzero: dict  # (c,) -> ((r, coeff), ...)

    def __init__(self, rows: int, cols: int, nonzero: dict):
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "nonzero", nonzero)
        self.__post_init__()

    shape = property(lambda self: (self.rows, self.cols))
    flag = False
    entries = cached_property(_Multilinear._dense)  # entries[r][c]

    @staticmethod
    def zero(rows: int, cols: int) -> LinearMap:
        return LinearMap(rows, cols, {})

    @staticmethod
    def identity(n: int) -> LinearMap:
        return LinearMap(n, n, {(i,): ((i, 1),) for i in range(n)})

    @staticmethod
    def from_rows(rows_data) -> LinearMap:
        rows_data = list(rows_data)
        cols = len(rows_data[0]) if rows_data else 0
        if any(len(row) != cols for row in rows_data):
            raise ShapeMismatch("rows of a linear map differ in length")
        return from_groups((len(rows_data), cols),
                           _image_groups(((c,), col) for c, col in enumerate(zip(*rows_data))))

    @staticmethod
    def from_columns(cols: list[Vec], rows: int | None = None) -> LinearMap:
        if rows is None:
            if not cols:
                raise ShapeMismatch("cannot infer row count from no columns")
            rows = len(cols[0])
        return from_groups((rows, len(cols)),
                           _image_groups(((c,), col) for c, col in enumerate(cols)))

    def column(self, j: int) -> Vec:
        return _vector(self.nonzero.get((j,), ()), self.rows)

    def __call__(self, x) -> Vec:
        if type(x) is int:
            return _vector(self.nonzero.get((x,), ()), self.rows)
        return self.apply(x)

    def apply(self, u: Vec) -> Vec:
        if len(u) != self.cols:
            raise ShapeMismatch(f"vector of length {len(u)} fed to {self.rows}x{self.cols} map")
        out = [0] * self.rows
        for (c,), group in self.nonzero.items():
            a = u[c]
            if a:
                for r, x in group:
                    out[r] += x * a
        return tuple(out)

    def compose(self, other: LinearMap) -> LinearMap:
        """self after other (matrix product self @ other)."""
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        images = []
        for key, column in other.nonzero.items():  # the stored columns of other only
            image = [0] * self.rows
            for k, b in column:
                for r, a in self.nonzero.get((k,), ()):
                    image[r] += a * b
            images.append((key, image))
        return from_groups((self.rows, other.cols), _image_groups(images))

    def flat(self) -> Vec:
        """Row-major coordinates of the whole matrix."""
        cells = self.cells()
        return tuple(cells.get((r, c), 0) for r in range(self.rows) for c in range(self.cols))

    @cached_property
    def _elimination(self) -> tuple:
        """Leftmost-pivot Gauss-Jordan elimination over the integers, once
        per map, for `solve_exact`: each row, with its unit row of the
        transform T appended, is scaled by the lcm of its denominators; each
        update is ``pv row - f pivot_row`` divided by the row's gcd
        (fraction-free, cf. Bareiss, Math. Comp. 22, 1968).  The pivots
        ``((column, value), ...)`` and the integer rows of T: row k < rank
        of ``T A`` is ``value`` at the k-th pivot column and 0 at the other
        pivot columns, and each row ``t`` of T below the rank has ``t A = 0``."""
        m, n = self.rows, self.cols
        cells, rows = self.cells(), []
        for r in range(m):
            row = [cells.get((r, c), 0) for c in range(n)]
            d = lcm(*(a.denominator for a in row))
            rows.append([a.numerator * (d // a.denominator) for a in row]
                        + [d if j == r else 0 for j in range(m)])
        pivots = []
        for c in range(n):
            k = len(pivots)
            pr = next((i for i in range(k, m) if rows[i][c]), None)
            if pr is None:
                continue
            rows[k], rows[pr] = rows[pr], rows[k]
            top = rows[k]
            pv = top[c]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != k:
                    row = [pv * x - f * y for x, y in zip(row, top)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
        return (tuple((c, rows[k][c]) for k, c in enumerate(pivots)),
                tuple(row[n:] for row in rows))


class BilinearMap(_Multilinear):
    dim_a: int
    dim_b: int
    dim_out: int
    nonzero: dict  # (i, j) -> ((k, coeff), ...)
    skew: bool = False

    def __init__(self, dim_a: int, dim_b: int, dim_out: int, nonzero: dict, skew: bool = False):
        _set(self, "dim_a", dim_a)
        _set(self, "dim_b", dim_b)
        _set(self, "dim_out", dim_out)
        _set(self, "nonzero", nonzero)
        _set(self, "skew", skew)
        self.__post_init__()
        if skew and dim_a != dim_b:
            raise ShapeMismatch("skew flag requires equal domain dimensions")

    shape = property(lambda self: (self.dim_out, self.dim_a, self.dim_b))
    flag = property(lambda self: self.skew)
    coeffs = cached_property(_Multilinear._dense)  # coeffs[k][i][j]

    @staticmethod
    def zero(dim_a: int, dim_b: int, dim_out: int, skew: bool = False) -> BilinearMap:
        return BilinearMap(dim_a, dim_b, dim_out, {}, skew)

    @staticmethod
    def from_map(dim_a: int, dim_b: int, dim_out: int,
                 values: dict[tuple[int, int], Vec], skew: bool = False) -> BilinearMap:
        """Build from images of basis pairs; unspecified pairs are zero.

        With ``skew=True`` the mirror pair is auto-filled with the negated
        value whenever only one orientation is given.
        """
        return from_groups((dim_out, dim_a, dim_b), _image_groups(values.items(), skew), skew)

    def on_basis(self, i: int, j: int) -> Vec:
        return _vector(self.nonzero.get((i, j), ()), self.dim_out)

    def __call__(self, x, y) -> Vec:
        if not self.nonzero:
            return vzero(self.dim_out)
        if type(x) is int:
            return self.on_basis(x, y) if type(y) is int else self.partial(1, x).apply(y)
        return self.partial(0, y).apply(x) if type(y) is int else self.apply(x, y)

    def apply(self, u: Vec, v: Vec) -> Vec:
        if len(u) != self.dim_a or len(v) != self.dim_b:
            raise ShapeMismatch("bilinear map fed vectors of wrong lengths")
        out = [0] * self.dim_out
        for i, entries in self._by_first.items():
            a = u[i]
            if a:
                for j, group in entries:
                    b = v[j]
                    if b:
                        for k, c in group:
                            out[k] += c * a * b
        return tuple(out)


class TrilinearMap(_Multilinear):
    dim: int
    dim_out: int
    nonzero: dict  # (i, j, k) -> ((l, coeff), ...)
    alt: bool = False

    def __init__(self, dim: int, dim_out: int, nonzero: dict, alt: bool = False):
        _set(self, "dim", dim)
        _set(self, "dim_out", dim_out)
        _set(self, "nonzero", nonzero)
        _set(self, "alt", alt)
        self.__post_init__()

    shape = property(lambda self: (self.dim_out, self.dim, self.dim, self.dim))
    flag = property(lambda self: self.alt)
    coeffs = cached_property(_Multilinear._dense)  # coeffs[l][i][j][k]

    @staticmethod
    def zero(dim: int, dim_out: int, alt: bool = False) -> TrilinearMap:
        return TrilinearMap(dim, dim_out, {}, alt)

    @staticmethod
    def from_map(dim: int, dim_out: int, values: dict[tuple[int, int, int], Vec],
                 alt: bool = False) -> TrilinearMap:
        """Build from images of index triples; with ``alt=True`` each given
        triple of distinct indices is propagated over all permutations with
        the permutation sign."""
        return from_groups((dim_out, dim, dim, dim), _image_groups(values.items(), alt), alt)

    def on_basis(self, i: int, j: int, k: int) -> Vec:
        return _vector(self.nonzero.get((i, j, k), ()), self.dim_out)

    def __call__(self, x, y, z) -> Vec:
        if not self.nonzero:
            return vzero(self.dim_out)
        if type(x) is int:
            if type(y) is int:
                return self.on_basis(x, y, z) if type(z) is int else self.partial(2, x, y).apply(z)
            if type(z) is int:
                return self.partial(1, x, z).apply(y)
        elif type(y) is int and type(z) is int:
            return self.partial(0, y, z).apply(x)
        return self.apply(*(vbasis(self.dim, a) if type(a) is int else a for a in (x, y, z)))

    def apply(self, u: Vec, v: Vec, w: Vec) -> Vec:
        if len(u) != self.dim or len(v) != self.dim or len(w) != self.dim:
            raise ShapeMismatch("trilinear map fed vectors of wrong lengths")
        out = [0] * self.dim_out
        for i, entries in self._by_first.items():
            a = u[i]
            if a:
                for j, k, group in entries:
                    b, c = v[j], w[k]
                    if b and c:
                        for l, x in group:
                            out[l] += x * a * b * c
        return tuple(out)


def solve_exact(a: LinearMap, b: Vec) -> Vec | None:
    """Solve ``a x = b`` exactly, or return None when inconsistent.

    Underdetermined systems get the unique solution whose free coordinates
    (free = non-pivot columns under leftmost-pivot elimination) are zero;
    this makes completion constructions deterministic.  The elimination is
    done once per map (`LinearMap._elimination`); a solve is ``y = T b``,
    a zero test of ``y`` below the rank and one division per pivot.
    """
    if len(b) != a.rows:
        raise ShapeMismatch("right-hand side has wrong length")
    pivots, transform = a._elimination
    rank, support = len(pivots), [(j, x) for j, x in enumerate(b) if x]
    y = [sum(t[j] * x for j, x in support) for t in transform]
    if any(y[rank:]):
        return None
    x = [0] * a.cols
    for (c, pv), yr in zip(pivots, y):
        x[c] = frac(yr) / pv
    return tuple(x)
