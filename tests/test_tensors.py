import importlib.util
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import rblie
from conftest import reference_perm_sign, reference_solve
from rblie import tensors, twoterm
from rblie.catalog import CROSSED_MODULES
from rblie.cli import verify_structure
from rblie.crossed import crossed_to_strict
from rblie.errors import ShapeMismatch
from rblie.liealg import LieAlgebra
from rblie.tensors import (BilinearMap, LinearMap, TrilinearMap, from_cells, parity,
                           solve_exact, vbasis, vec, vzero)
from rblie.twoterm import CompletionFailure

ROOT = Path(__file__).resolve().parent.parent

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


# --- the sparse kernel against the dense grid walk ---------------------------

def grid_cells(t):
    """Every cell of the map's grid as ``((out, *inputs), coeff)``."""
    cells = [((), t.entries if isinstance(t, LinearMap) else t.coeffs)]
    for _ in range(len(input_dims(t)) + 1):
        cells = [(at + (i,), sub) for at, g in cells for i, sub in enumerate(g)]
    return cells


def dense_apply(t, *args):
    """The dense reference: every cell of the grid times the argument
    coordinates at its input indices, summed per output index."""
    out_dim = t.rows if isinstance(t, LinearMap) else t.dim_out
    out = [Fraction(0)] * out_dim
    for (o, *ins), c in grid_cells(t):
        term = c
        for u, i in zip(args, ins):
            term *= u[i]
        out[o] += term
    return tuple(out)


def input_dims(t) -> tuple[int, ...]:
    if isinstance(t, LinearMap):
        return (t.cols,)
    if isinstance(t, BilinearMap):
        return (t.dim_a, t.dim_b)
    return (t.dim,) * 3


@st.composite
def multilinear_maps(draw):
    """A linear, bilinear (plain or skew-filled) or trilinear (plain or
    alternating-filled) map of dims up to 4, with no, few or all of its
    input tuples given a value."""
    kind = draw(st.sampled_from(["linear", "bilinear", "skew", "trilinear", "alt"]))
    dim = st.integers(0, 4)
    d_out = draw(dim)
    if kind == "linear":
        ins = (draw(dim),)
    elif kind == "bilinear":
        ins = (draw(dim), draw(dim))
    else:
        ins = (draw(dim),) * (2 if kind == "skew" else 3)
    keys = list(product(*map(range, ins)))
    if kind in ("skew", "alt"):  # the fill supplies the mirrored tuples
        keys = [k for k in keys if all(a < b for a, b in zip(k, k[1:]))]
    values = st.tuples(*[rationals] * d_out)
    fill = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if fill == "zero" or not keys:
        vals = {}
    elif fill == "sparse":
        vals = draw(st.dictionaries(st.sampled_from(keys), values, max_size=3))
    else:
        vals = {k: draw(values) for k in keys}
    if kind == "linear":
        cols = [vals.get((c,), vzero(d_out)) for c in range(ins[0])]
        return LinearMap.from_columns(cols, rows=d_out)
    if kind in ("bilinear", "skew"):
        return BilinearMap.from_map(*ins, d_out, vals, skew=kind == "skew")
    return TrilinearMap.from_map(ins[0], d_out, vals, alt=kind == "alt")


@st.composite
def argument(draw, n: int):
    """A basis, zero or dense vector of length n."""
    form = draw(st.sampled_from(["basis", "zero", "dense"]))
    if form == "basis" and n:
        return vbasis(n, draw(st.integers(0, n - 1)))
    if form == "dense":
        return tuple(draw(st.lists(rationals, min_size=n, max_size=n)))
    return vzero(n)


@settings(max_examples=300)
@given(st.data())
def test_apply_and_is_zero_match_the_dense_grid_walk(data):
    t = data.draw(multilinear_maps())
    dims = input_dims(t)
    args = [data.draw(argument(n)) for n in dims]
    got = t.apply(*args)
    assert got == dense_apply(t, *args)
    assert all(type(x) in (int, Fraction) for x in got)  # exact: never bool or float
    assert t.is_zero() == all(c == 0 for _, c in grid_cells(t))
    for pos, n in enumerate(dims):
        wrong = list(args)
        wrong[pos] = vzero(n + 1)
        with pytest.raises(ShapeMismatch):
            t.apply(*wrong)
    # the call and the partial maps read the store as it is: check them on
    # the map and on a copy whose skew/alternating flag is broken, the call
    # at a drawn mix of basis indices and the drawn vectors, the partial
    # maps at drawn basis indices
    cells = t.cells()
    if t.flag and cells:
        del cells[next(iter(cells))]
    broken = from_cells(t.shape, cells, t.flag or len(set(dims)) == 1)
    for m in (t, broken):
        mix = [data.draw(st.integers(0, n - 1)) if n and data.draw(st.booleans()) else u
               for u, n in zip(args, dims)]
        got = m(*mix)
        assert got == dense_apply(m, *(vbasis(n, a) if type(a) is int else a
                                       for a, n in zip(mix, dims)))
        assert all(type(x) in (int, Fraction) for x in got)
        if len(dims) > 1:
            for slot in range(len(dims)):
                others = [n for pos, n in enumerate(dims) if pos != slot]
                if not all(others):
                    continue
                fixed = [data.draw(st.integers(0, n - 1)) for n in others]
                basis = iter(fixed)
                at = [args[pos] if pos == slot else vbasis(n, next(basis))
                      for pos, n in enumerate(dims)]
                p = m.partial(slot, *fixed)
                assert p.apply(args[slot]) == dense_apply(m, *at)
                assert p is m.partial(slot, *fixed)  # cached
    if len(dims) > 1:
        with pytest.raises(ShapeMismatch):
            t.partial(0, *range(len(dims)))  # one index too many


def test_partial_maps_read_the_store_and_are_built_once_per_slot():
    """A skew-flagged map that stores only (0, 1): the partial maps read
    that cell and never its mirror, all maps of a slot come from one pass,
    and absent fixed indices share one zero map."""
    b = from_cells((1, 3, 3), {(0, 0, 1): 2}, True)
    assert b.partial(1, 0) == LinearMap.from_rows([[0, 2, 0]])  # v -> b(e_0, v)
    assert b.partial(0, 1) == LinearMap.from_rows([[2, 0, 0]])  # u -> b(u, e_1)
    assert b.partial(1, 1).is_zero() and b.partial(0, 0).is_zero()
    assert b.partial(1, 1) is b.partial(1, 2)
    assert set(b._partials) == {0, 1}
    t = from_cells((2, 2, 2, 2), {(1, 0, 1, 1): 3, (0, 1, 1, 0): 1})
    assert t.partial(2, 0, 1) == LinearMap.from_rows([[0, 0], [0, 3]])
    assert t.partial(1, 1, 0) == LinearMap.from_rows([[0, 1], [0, 0]])
    aff1 = LieAlgebra(2, from_cells((2, 2, 2), {(1, 0, 1): 1, (1, 1, 0): -1}, True))
    assert aff1.ad(0) == LinearMap.from_rows([[0, 0], [0, 1]])  # [e_0, -]


def test_zero_structure_probes_skip_the_dense_grid():
    """Scaling probes: all-zero tensors have empty indices, so the zero Lie
    algebra of dim 25 and the zero two-term structure of dims (5, 2) verify
    in about a second together.  A kernel that walks the dense grid takes
    over a minute on the first alone; the time bound leaves ample room for
    a slow machine and still catches that."""
    start = perf_counter()
    lie = verify_structure(LieAlgebra(25, BilinearMap.zero(25, 25, 25, skew=True)))
    two_term = verify_structure(twoterm.with_operators(twoterm.two_term(5, 2)))
    elapsed = perf_counter() - start
    assert (lie.checked, len(lie.violations)) == (2625, 0)
    # 1,840 before the `coh-vs-rb3` (5^3) and `jcoh-vs-d` (5^4) checks left
    assert (two_term.checked, len(two_term.violations)) == (1840 - (5 ** 3 + 5 ** 4), 0)
    assert elapsed < 20, f"zero-structure probes took {elapsed:.1f} s"


def test_linear_map_apply_and_columns():
    m = LinearMap.from_rows([[1, 2], [3, 4], [0, Fraction(1, 2)]])
    assert m.apply(vec(1, 0)) == vec(1, 3, 0)
    assert m.column(1) == vec(2, 4, Fraction(1, 2))


def test_linear_map_shape_errors():
    with pytest.raises(ShapeMismatch):
        LinearMap.from_rows([vec(1, 0), vec(1)])
    with pytest.raises(ShapeMismatch):
        LinearMap.from_rows([[1, 0]]).apply(vec(1, 2, 3))


def test_store_rejects_entries_outside_the_shape():
    one = Fraction(1)
    for bad in (lambda: LinearMap(2, 2, {(2,): ((0, one),)}),
                lambda: LinearMap(2, 2, {(0,): ((2, one),)}),
                lambda: BilinearMap(2, 2, 2, {(0,): ((0, one),)}),
                lambda: from_cells((2, 2, 2), {(0, 0, 2): 1}),
                lambda: from_cells((1, 2, 2, 2), {(0, 0, 0, 2): 1})):
        with pytest.raises(ShapeMismatch):
            bad()


def test_equal_values_have_equal_stores():
    """The store is canonical, so `==` and `hash` are value equality
    however a map was built."""
    m = LinearMap.from_rows([[2, 0], [1, Fraction(1, 2)]])
    same = from_cells((2, 2), {(1, 1): Fraction(2, 4), (0, 0): 2, (1, 0): 1, (0, 1): 0})
    assert m == same and hash(m) == hash(same)
    b = BilinearMap.from_map(2, 2, 1, {(0, 1): vec(1)}, skew=True)
    assert b == from_cells((1, 2, 2), b.cells(), True) != BilinearMap.zero(2, 2, 1, skew=True)
    # an integral coefficient is stored as an int however it was given,
    # any other as a Fraction
    two, int_two = from_cells((1, 1), {(0, 0): Fraction(4, 2)}), from_cells((1, 1), {(0, 0): 2})
    assert two == int_two and hash(two) == hash(int_two)
    assert [type(x) for x in (*two.cells().values(), *int_two.cells().values())] == [int, int]
    assert [type(x) for x in m.cells().values()] == [int, int, Fraction]
    # `vec` stores the same way, as `vbasis` and `vzero` do
    assert [type(x) for x in vec(Fraction(4, 2), 0, -1, Fraction(1, 2))] == [int, int, int, Fraction]
    assert vec(Fraction(0), 1) == vbasis(2, 1) and type(vec(Fraction(1))[0]) is int


def _typed_store(t):
    return {key: tuple((out, type(a), a) for out, a in g) for key, g in t.nonzero.items()}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_image_builders_store_what_from_cells_stores(data):
    """`from_map`, `from_columns` and `from_rows` keep only the nonzero
    coordinates of each image, and their stores, coefficient types
    included, equal `from_cells` of every cell, zeros and all (with a flag,
    each permutation of a given input tuple that is not given itself takes
    the signed image).  Most coordinates are zero, some inputs are given in
    two orders and some images are zero vectors."""
    coeffs = st.one_of(st.sampled_from((0, 0, 0, Fraction(0), Fraction(4, 2))), rationals)
    n, out = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    flag = data.draw(st.booleans())
    arity = data.draw(st.sampled_from((2, 3)))
    keys = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * arity), unique=True))
    values = {key: tuple(data.draw(st.lists(coeffs, min_size=out, max_size=out)))
              for key in keys}
    images = {key: vec(*v) for key, v in values.items()}
    if flag:
        for key, v in list(images.items()):
            for p, sign in tensors.signed_permutations(arity):
                images.setdefault(tuple(key[q] for q in p), tuple(sign * a for a in v))
    cells = {(o, *key): a for key, v in images.items() for o, a in enumerate(v)}
    shape = (out,) + (n,) * arity
    built = (BilinearMap.from_map(n, n, out, values, skew=flag) if arity == 2
             else TrilinearMap.from_map(n, out, values, alt=flag))
    assert built == from_cells(shape, cells, flag)
    assert _typed_store(built) == _typed_store(from_cells(shape, cells, flag))

    cols = [values.get((c,) * arity, (0,) * out) for c in range(n)]
    by_cols = LinearMap.from_columns(cols, rows=out)
    whole = from_cells((out, n), {(r, c): a for c, col in enumerate(cols)
                                  for r, a in enumerate(col)})
    assert _typed_store(by_cols) == _typed_store(whole)
    if out:
        assert _typed_store(LinearMap.from_rows(list(zip(*cols)))) == _typed_store(whole)


def test_compose_matches_matrix_product():
    a = LinearMap.from_rows([[1, 2], [0, 1]])
    b = LinearMap.from_rows([[0, 1], [1, 0]])
    ab = a.compose(b)
    for j in range(2):
        assert ab.column(j) == a.apply(b.column(j))


def test_compose_rejects_factors_that_do_not_chain():
    a, b = LinearMap.identity(2), LinearMap.from_rows([[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ShapeMismatch, match="^cannot compose 2x2 with 3x2$"):
        a.compose(b)


@st.composite
def matrices(draw, rows: int, cols: int):
    """A rows x cols map with no, a few or all entries set, by ``int`` or
    by ``Fraction`` coefficients."""
    coeff = draw(st.sampled_from([st.integers(-3, 3), rationals]))
    cells = list(product(range(rows), range(cols)))
    fill = draw(st.sampled_from(["zero", "sparse", "dense"]))
    if fill == "zero" or not cells:
        return LinearMap.zero(rows, cols)
    if fill == "sparse":
        return from_cells((rows, cols), draw(st.dictionaries(st.sampled_from(cells), coeff,
                                                             max_size=3)))
    return from_cells((rows, cols), {c: draw(coeff) for c in cells})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_is_the_dense_product_of_the_entries_views(data):
    """`compose` equals the product of the dense `entries` views, and its
    store is canonical: `exact` coefficients, no zero, sorted groups."""
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(matrices(n, k)), data.draw(matrices(k, m))
    product_cells = {(r, c): sum(a.entries[r][i] * b.entries[i][c] for i in range(k))
                     for r in range(n) for c in range(m)}
    ab = a.compose(b)
    assert ab.shape == (n, m)
    assert _typed_store(ab) == _typed_store(from_cells((n, m), product_cells))
    assert all(g == tuple(sorted(g)) and all(x for _, x in g) for g in ab.nonzero.values())


def test_is_alternating_is_computed_once_per_map():
    t = TrilinearMap.from_map(3, 1, {(0, 1, 2): vec(5)}, alt=True)
    assert "is_alternating" not in vars(t)
    assert t.is_alternating is True and vars(t)["is_alternating"] is True


def test_zero_width_maps():
    m = LinearMap.zero(2, 0)
    assert m.apply(()) == vec(0, 0)
    assert LinearMap.zero(0, 3).apply(vec(1, 2, 3)) == ()


def test_skew_fill_and_apply():
    b = BilinearMap.from_map(2, 2, 2, {(0, 1): vec(0, 1)}, skew=True)
    assert b.on_basis(1, 0) == vec(0, -1)
    assert b.apply(vec(1, 1), vec(1, -1)) == vec(0, -2)


def test_skew_flag_needs_square():
    with pytest.raises(ShapeMismatch):
        BilinearMap.zero(2, 3, 1, skew=True)


def test_alternating_fill():
    t = TrilinearMap.from_map(3, 1, {(0, 1, 2): vec(5)}, alt=True)
    assert t.on_basis(1, 0, 2) == vec(-5)
    assert t.on_basis(2, 0, 1) == vec(5)
    assert t.on_basis(0, 0, 1) == vec(0)


def test_parity():
    """`parity` is -1 to the number of inversions, counted here pair by
    pair, at every tuple of length 0 to 4 over range(5), and 0 at every
    tuple with a repeated index; `signed_permutations` pairs each
    permutation with the sign the cycle-sort reference gives it."""
    for k in range(5):
        for idx in product(range(5), repeat=k):
            pairs = [(idx[p], idx[q]) for p in range(k) for q in range(p + 1, k)]
            if any(a == b for a, b in pairs):
                assert parity(idx) == 0, idx
            else:
                assert parity(idx) == (-1) ** sum(a > b for a, b in pairs), idx
        assert tensors.signed_permutations(k) == tuple(
            (p, reference_perm_sign(p)) for p in product(range(k), repeat=k) if len(set(p)) == k)


def test_solve_exact_unique():
    a = LinearMap.from_rows([[2, 0], [0, 4]])
    assert solve_exact(a, vec(1, 1)) == vec(Fraction(1, 2), Fraction(1, 4))
    # integer pivots and right-hand side: the one division stays exact
    for rows, x in (([[2, 0], [0, 3]], (Fraction(1, 2), Fraction(1, 3))),
                    ([[2, 1], [4, 3]], (1, -1))):
        sol = solve_exact(LinearMap.from_rows(rows), (1, 1))
        assert sol == x and all(type(c) is Fraction for c in sol)


def test_solve_exact_inconsistent():
    a = LinearMap.from_rows([[1, 0], [1, 0]])
    assert solve_exact(a, vec(0, 1)) is None


def test_solve_exact_underdetermined_pins_free_coordinates():
    a = LinearMap.from_rows([[1, 1]])
    # second column is free under leftmost pivoting, so it stays zero
    assert solve_exact(a, vec(7)) == vec(7, 0)


def test_solve_exact_rejects_a_right_hand_side_of_the_wrong_length():
    a = LinearMap.from_rows([[1, 0], [0, 1], [0, 0]])
    for b in (vec(1, 1), vec(1, 1, 0, 0)):
        with pytest.raises(ShapeMismatch, match="^right-hand side has wrong length$"):
            solve_exact(a, b)


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=2, max_size=2),
       st.lists(rationals, min_size=3, max_size=3))
def test_solve_exact_solution_property(rows, x):
    a = LinearMap.from_rows(rows)
    b = a.apply(vec(*x))
    sol = solve_exact(a, b)
    assert sol is not None
    assert a.apply(sol) == b


# --- the cached integer elimination against the Fraction oracle --------------

coefficients = st.one_of(st.just(0), st.integers(-3, 3),
                         st.fractions(min_value=-5, max_value=5, max_denominator=6))


@st.composite
def systems(draw):
    """A matrix of up to 5x5 integer or rational entries (0 rows or 0
    columns included), sometimes with a row that is a combination of two
    others, and a right-hand side that is either the image of a drawn
    vector (consistent) or drawn itself (often inconsistent)."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(coefficients, min_size=n, max_size=n), min_size=m, max_size=m))
    if m >= 3 and draw(st.booleans()):
        s, t = draw(coefficients), draw(coefficients)
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[1])]
    a = from_cells((m, n), {(r, c): x for r, row in enumerate(rows) for c, x in enumerate(row)})
    if draw(st.booleans()):
        b = a.apply(tuple(draw(st.lists(coefficients, min_size=n, max_size=n))))
    else:
        b = tuple(draw(st.lists(coefficients, min_size=m, max_size=m)))
    return a, b


@settings(max_examples=300)
@given(systems())
def test_solve_exact_matches_the_fraction_oracle(system):
    a, b = system
    got, want = solve_exact(a, b), reference_solve(a, b)
    assert got == want
    assert (got is None) == (want is None)
    if got is not None:
        assert list(map(type, got)) == list(map(type, want))


@pytest.fixture
def eliminations(monkeypatch):
    """The maps eliminated while the test runs, one entry per elimination."""
    maps = []
    original = LinearMap._elimination.func
    counted = cached_property(lambda a: maps.append(a) or original(a))
    counted.__set_name__(LinearMap, "_elimination")
    monkeypatch.setattr(LinearMap, "_elimination", counted)
    return maps


def counted_solves(monkeypatch, module) -> list:
    """Count the `solve_exact` calls that `module` makes."""
    calls = []
    monkeypatch.setattr(module, "solve_exact", lambda a, b: calls.append(a) or solve_exact(a, b))
    return calls


def test_dense_build_eliminates_each_basis_change_once(eliminations, monkeypatch):
    """One `dense_structures` build of the benchmark solves 27 right-hand
    sides against 5 basis changes, so it eliminates 5 times."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    solves = counted_solves(monkeypatch, tensors)
    workloads.dense_structures(rblie, 1)  # reads rblie.catalog, .liealg and .tensors
    assert len(solves) == 27
    assert len(eliminations) == len({id(a) for a in solves}) == 5


def test_completion_eliminates_the_differential_once(eliminations, monkeypatch):
    cm = CROSSED_MODULES["heis3-center-cm"]
    G = crossed_to_strict(cm)
    assert G.linf.dim0 >= 3
    solves = counted_solves(monkeypatch, twoterm)
    assert not isinstance(twoterm.complete_rb_triple(G.linf, cm.t0, cm.t1), CompletionFailure)
    assert len(solves) == 3  # one per basis pair of g0
    assert eliminations == [G.linf.complex.l1]


@settings(max_examples=200)
@given(systems())
def test_transform_rows_below_the_rank_annihilate_the_map(system):
    """The rows of T below the rank are left-kernel covectors, t A = 0."""
    a, _ = system
    pivots, transform = a._elimination
    assert len(transform) == a.rows
    for t in transform[len(pivots):]:
        assert any(t)
        assert all(sum(t[r] * a.entries[r][c] for r in range(a.rows)) == 0
                   for c in range(a.cols))


def test_equal_maps_get_equal_solutions():
    """A map that is `==` to an eliminated one but another object gets the
    same answers from its own elimination."""
    a = LinearMap.from_rows([[2, Fraction(1, 3), 0], [4, Fraction(2, 3), 0], [0, 1, 5]])
    twin = LinearMap(a.rows, a.cols, dict(a.nonzero))
    rhs = [vec(1, 2, 3), vec(1, 0, 0), vec(0, 0, 7)]
    first = [solve_exact(a, b) for b in rhs]
    assert twin == a and twin is not a and "_elimination" not in vars(twin)
    assert [solve_exact(twin, b) for b in rhs] == first
    assert first[1] is None and first[0] == (0, 3, 0)
