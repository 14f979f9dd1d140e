"""The `Value` base of the package's immutable classes, and the start-up
cost it exists for: importing the CLI loads neither `dataclasses` nor
`inspect`."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rblie.crossed import LieCrossedModule, PreLieCrossedModule, RBLieCrossedModule
from rblie.errors import ShapeMismatch
from rblie.liealg import LieAlgebra, PreLieAlgebra, RBRepresentation, RotaBaxterLieAlgebra
from rblie.report import Violation
from rblie.search import SearchSpec
from rblie.serialize import TENSOR, TensorCodec, get_at, load, put_at
from rblie.tensors import BilinearMap, LinearMap, from_cells
from rblie.twoterm import (LInfinityHom, RBLInfinityHom, TwoTermLInfinity,
                           TwoTermRBLInfinity, two_term, with_operators)
from rblie.value import Value, replace

ROOT = Path(__file__).resolve().parent.parent


class Point(Value):
    x: int
    y: int = 0
    label: str = ""

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative x")


class Point3(Point):
    z: int = 0


def test_fields_defaults_and_keyword_binding():
    assert Point._fields == ("x", "y", "label")
    assert Point3._fields == ("x", "y", "label", "z")
    p = Point(1, label="a")
    assert (p.x, p.y, p.label) == (1, 0, "a")
    assert Point(y=2, x=1) == Point(1, 2)
    assert Point3(1, 2, "b", 3).z == 3
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label='')"
    with pytest.raises(ValueError, match="negative x"):  # __post_init__ runs
        Point(-1)


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing field 'x'"),
    ((1,), {"w": 2}, "has no field 'w'"),
    ((1,), {"x": 2}, "got field 'x' twice"),
    ((1, 2, "a", 4), {}, "takes 3 fields but 4 were given"),
])
def test_a_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_assignment_and_deletion_raise():
    p, m = Point(1), LinearMap.identity(2)
    for obj, name in ((p, "x"), (p, "other"), (m, "rows")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 3)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (p.x, m.rows) == (1, 2)


def test_equality_and_hash_follow_the_class_and_the_fields():
    assert Point(1, 2) == Point(1, 2) and hash(Point(1, 2)) == hash(Point(1, 2))
    assert Point(1, 2) != Point(1, 3)
    assert Point(1) != Point3(1)  # same leading fields, another class
    zero_linear, zero_bilinear = LinearMap(2, 2, {}), BilinearMap(2, 2, 2, {})
    assert zero_linear != zero_bilinear and zero_bilinear != zero_linear
    assert LinearMap.identity(2) == LinearMap(2, 2, {(1,): ((1, 1),), (0,): ((0, 1),)})
    assert len({LinearMap.identity(2), LinearMap.identity(2), zero_linear}) == 2


def test_lie_algebra_labels_stay_out_of_comparison():
    plain = LieAlgebra.abelian(2)
    labelled = LieAlgebra(2, plain.bracket, ("x", "y"))
    assert plain == labelled and hash(plain) == hash(labelled)
    assert plain != LieAlgebra.abelian(3)


def test_replace_copies_with_fields_changed_and_reruns_post_init():
    p = Point(1, 2, "a")
    q = replace(p, y=5)
    assert (q, p) == (Point(1, 5, "a"), Point(1, 2, "a"))
    with pytest.raises(ValueError):
        replace(p, x=-1)
    with pytest.raises(TypeError):
        replace(p, w=1)
    spec = replace(SearchSpec(LieAlgebra.abelian(1)), coeffs=(Fraction(2, 2), 0))
    assert spec.coeffs == (0, 1) and all(type(c) is int for c in spec.coeffs)
    bracket = replace(LieAlgebra.abelian(2).bracket, skew=False)
    assert not bracket.skew and bracket.dim_a == 2


class Arrow(Value, shapes={"m": "rows cols", "act": "rows n rows"}):
    rows: int
    cols: int
    m: LinearMap
    n: int
    act: BilinearMap


class LabelledArrow(Arrow):
    label: str = ""


class TwoWayArrow(Arrow, shapes={"back": "cols rows"}):
    back: LinearMap


class Loose(Value):
    m: LinearMap


def test_declared_shapes_are_checked_and_inherited():
    m, back, act = LinearMap.zero(2, 3), LinearMap.zero(3, 2), BilinearMap.zero(1, 2, 2)
    assert Arrow(2, 3, m, 1, act).act is act
    assert TwoWayArrow(2, 3, m, 1, act, back=back).back is back
    for cls, more in ((Arrow, {}), (LabelledArrow, {}), (TwoWayArrow, {"back": back})):
        with pytest.raises(ShapeMismatch, match="^m is not a 2x3 map$"):
            cls(2, 3, back, 1, act, **more)
        with pytest.raises(ShapeMismatch, match="^act is not a 2x2x2 map$"):
            cls(2, 3, m, 2, act, **more)
        with pytest.raises(ShapeMismatch, match="^act is not a 2x1x2 map$"):
            cls(2, 3, m, 1, BilinearMap.zero(1, 3, 2), **more)
    with pytest.raises(ShapeMismatch, match="^back is not a 3x2 map$"):
        TwoWayArrow(2, 3, m, 1, act, back=m)
    assert list(TwoWayArrow._shapes) == ["m", "act", "back"]
    assert list(Arrow._shapes) == list(LabelledArrow._shapes) == ["m", "act"]


def test_a_class_without_shapes_checks_none():
    assert Loose._shapes == {} and Point._shapes == {}
    assert Loose(None).m is None and Loose(LinearMap.zero(2, 3)).m.shape == (2, 3)


# (catalog document, attribute path of an instance in it, its class, the
# paths of its maps, the paths of those maps that are actions); most
# instances have unequal dimensions, so a transposed shape would show
SHAPED = (
    ("sl2", "", LieAlgebra, ("bracket",), ()),
    ("sl2-rb-tri", "", RotaBaxterLieAlgebra, ("r",), ()),
    ("aff1-ideal-cm-neg-prelie", "p0", PreLieAlgebra, ("mult",), ()),
    ("aff1-adjoint-rep", "", RBRepresentation, ("act", "cal_r"), ("act",)),
    ("sl2-cocycle-rb2-nonstrict", "linf", TwoTermLInfinity, ("l1", "l2_00", "l2_01", "l3"), ()),
    ("sl2-cocycle-rb2-nonstrict", "", TwoTermRBLInfinity, ("r0", "r1", "r2"), ()),
    ("aff1-phi3-hom", "hom", LInfinityHom, ("phi0", "phi1", "phi2"), ()),
    ("aff1-phi3-hom", "", RBLInfinityHom, ("phi0", "phi1", "phi2", "phi3"), ()),
    ("aff1-ideal-cm-lie", "", LieCrossedModule, ("d", "act"), ("act",)),
    ("heis3-center-cm", "", RBLieCrossedModule, ("t0", "t1"), ()),
    ("aff1-ideal-cm-neg-prelie", "", PreLieCrossedModule, ("delta", "left", "right"),
     ("left", "right")),
)


def enlarged(m) -> list:
    """`m` with one more row, and with one more column in each input (in
    every input at once when the map is flagged skew or alternating)."""
    out, *ins = m.shape
    shapes = [(out + 1, *ins)] + ([(out, *(n + 1 for n in ins))] if m.flag else
                                  [(out, *ins[:k], ins[k] + 1, *ins[k + 1:])
                                   for k in range(len(ins))])
    return [from_cells(shape, m.cells(), m.flag) for shape in shapes]


@pytest.mark.parametrize("doc, at, cls, maps, actions", SHAPED,
                         ids=[case[2].__name__ for case in SHAPED])
def test_each_structure_rejects_a_map_of_the_wrong_shape(doc, at, cls, maps, actions):
    """Every map of a catalog instance one row or one input too large, and
    every action one acting element short, is a `ShapeMismatch` when the
    instance is rebuilt."""
    obj = get_at(load(ROOT / "catalog" / f"{doc}.json"), at)
    assert type(obj) is cls and set(cls._shapes) == set(maps)
    wrong = [(path, m) for path in maps for m in enlarged(get_at(obj, path))]
    for path in actions:
        act = get_at(obj, path)
        rows, n, cols = act.shape
        wrong.append((path, from_cells((rows, n - 1, cols), {
            key: q for key, q in act.cells().items() if key[1] < n - 1})))
    for path, value in wrong:
        with pytest.raises(ShapeMismatch, match=rf"^{re.escape(path)} is not a \d+(x\d+)+ map$"):
            put_at(obj, path, value)


def test_an_rb_hom_endpoint_of_other_dimensions_is_a_shape_mismatch():
    """An operator homomorphism holds its endpoints once: its underlying
    homomorphism is read off them, so any endpoint of the dimensions its
    maps have is taken, and one of other dimensions is a `ShapeMismatch`
    naming the first map that does not fit it."""
    f = load(ROOT / "catalog" / "aff1-phi3-hom.json")
    for end in ("source", "target"):
        linf = get_at(f, end).linf
        other = with_operators(two_term(linf.dim0, linf.dim1))
        assert getattr(replace(f, **{end: other}).hom, end) == other.linf
        for dims, name in (((linf.dim0 + 1, linf.dim1), "phi0"),
                           ((linf.dim0, linf.dim1 + 1), "phi1")):
            with pytest.raises(ShapeMismatch, match=rf"^{name} is not a \d+x\d+ map$"):
                replace(f, **{end: with_operators(two_term(*dims))})


def test_violations_keep_their_order():
    a, b, c = Violation("a", (1,), (1,)), Violation("a", (2,), (0,)), Violation("b", (0,), (5,))
    assert sorted([c, b, a]) == [a, b, c]
    assert a < b <= c and c > b >= a and not a > a
    with pytest.raises(TypeError):
        sorted([a, Point(1)])


def test_tensor_codec_lambda_defaults_are_stored_not_bound():
    m = LinearMap.identity(2)
    assert TENSOR.__dict__["entries"] is TensorCodec.entries
    assert sorted(TENSOR.entries(m)) == [((0, 0), 1), ((1, 1), 1)]  # called with the map only
    assert TENSOR.cells(m) == {(0, 0): 1, (1, 1): 1}


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rblie.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def test_no_source_file_uses_dataclasses():
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*@dataclass|^\s*(from|import) dataclasses", text, re.M), path
