"""Structure documents: a versioned JSON surface with exact rationals.

Coefficients are strings ("p" or "p/q" with positive q), never floats;
unspecified entries are zero; duplicate index tuples are an error.  Input
accepts non-lowest terms and leading zeros; output is canonical (lowest
terms, "p" shorthand when the denominator is one, entries sorted by index
tuple, fixed key order), so load-then-save is byte-stable on canonical
documents.  Loading performs shape validation only; semantic verification
is a separate, explicit step, which is what lets mutation tests round-trip
deliberately invalid structures.

Each document kind is one row of `KINDS`: its class, its ordered fields
(document key, attribute path on the object, codec, shape from the
dimensions, skew/alternating flag) and the function assembling the object
from the decoded fields.  Loading, dumping and `search.mutate` all read
that table, and nothing else: each codec checks what it reads when it
reads it, so the fields are checked in document order, and `mutate` takes
a site exactly where a document entry would load.  A tensor's entries are
its own store read back: `TENSOR` checks each of a document's entries and
groups it straight into the map's store (`tensors.from_groups`), and
`dumps` writes one line per stored entry, sorted once, so no dense grid is
built and a declared dimension costs nothing, except in an action, which
holds one matrix per basis vector of the acting algebra.
`dumps` writes the text straight from the table, each codec rendering its
own value, with no JSON value tree in between.  `load` and `save` use the
file's descriptor, with no buffered file object: `load` reads the bytes to
the end and decodes them as UTF-8 with text mode's universal newlines, so
it reads what a text-mode ``open`` reads, in fewer system calls, each of
which is slow after other work has run (see `load`).  `save` dumps first,
then writes the file in place and cuts a longer old file to length: a
truncating open makes ext4 flush the file on close, about four times the
cost of the write (see `save`).  An interrupted `save` can leave new bytes
over old ones; a truncating open would be no safer, since it can leave a
truncated prefix.  The full grammar lives in docs/FORMAT.md.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import reduce
from operator import attrgetter
from typing import Callable

from .crossed import LieCrossedModule, PreLieCrossedModule, RBLieCrossedModule
from .errors import (BadRational, DuplicateEntry, ParseError, UnknownKind,
                     VersionMismatch)
from .liealg import (LieAlgebra, PreLieAlgebra, RBRepresentation,
                     RotaBaxterLieAlgebra)
from .tensors import LinearMap, exact, from_groups
from .twoterm import (LInfinityHom, RBLInfinityHom, TwoTermLInfinity, TwoTermRBLInfinity,
                      rb_hom, two_term, with_operators)
from .value import Value, replace

FORMAT_VERSION = 1

_CHUNK = 1 << 16  # bytes per read: more than any shipped document, below malloc's mmap threshold


class SearchResults(Value):
    algebra: LieAlgebra
    coeffs: tuple[int | Fraction, ...]
    operators: tuple[LinearMap, ...]


def parse_rational(text) -> int | Fraction:
    """The exact value of a literal "p" or "p/q": an ``int`` when integral
    (as `tensors.exact` stores it), else a ``Fraction``."""
    if not isinstance(text, str):
        raise BadRational(f"not a rational literal: {text!r}")
    num, slash, den = text.partition("/")
    p = num[1:] if num[:1] == "-" else num
    # -?[0-9]+(/[0-9]+)?: ASCII digits, one "-" before p only
    if not (p.isascii() and p.isdigit() and (not slash or den.isascii() and den.isdigit())):
        raise BadRational(f"not a rational literal: {text!r}")
    try:  # a zero denominator, or more digits than int() converts
        return exact(Fraction(int(num), int(den))) if den else int(num)
    except (ValueError, ZeroDivisionError) as e:
        raise BadRational(f"not a rational literal: {text[:20]!r}: {e}") from e


def _entries_to_groups(entries, bounds: tuple[int, ...], where: str) -> dict:
    """The document's tensor `entries`, each checked and grouped straight
    into store groups ``inputs -> [(out, coeff), ...]`` (see
    `tensors.from_groups`); zero coefficients are left out.  An index must
    be an ``int`` (``type(v) is int``, exact for JSON values, rejects
    ``bool``) within its bound."""
    arity = len(bounds)
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of entries")
    seen, groups = set(), {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise ParseError(f"{where}[{pos}]: expected [{arity} indices, coefficient]")
        idx = tuple(entry[:arity])
        for v, bound in zip(idx, bounds):
            if type(v) is not int or not 0 <= v < bound:
                raise ParseError(f"{where}[{pos}]: index {v!r} out of range 0..{bound - 1}")
        if idx in seen:
            raise DuplicateEntry(f"{where}: duplicate entry at {idx}")
        seen.add(idx)
        q = parse_rational(entry[arity])
        if q:
            groups.setdefault(idx[1:], []).append((idx[0], q))
    return groups


# --- codecs ----------------------------------------------------------------

def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """Rendered items one per line inside `brackets`, which close at
    `indent`; just the brackets when there are none."""
    pad = " " * (indent + 2)
    return (f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{' ' * indent}{brackets[1]}"
            if items else brackets)


class Codec(Value):
    """Reads one document key, checking what it reads, and writes its value
    back as canonical text.  `embeds` is the kind of an embedded document;
    `tensor` marks the codecs of `TensorCodec`, whose values `search.mutate`
    edits."""
    load: Callable               # (document, field, values decoded so far) -> value
    render: Callable             # (value, indent) -> text, or None to leave the key out
    embeds: Kind | None = None
    tensor = False


def _action(shape, groups: dict, flag) -> tuple[LinearMap, ...]:
    """One matrix per element from the groups ``(row, col) -> [(element,
    coeff), ...]``; the elements without entries share one zero map."""
    split: dict[int, dict] = {}
    for (r, c), group in groups.items():
        for x, q in group:
            split.setdefault(x, {}).setdefault((c,), []).append((r, q))
    zero = LinearMap.zero(*shape[1:])
    return tuple(from_groups(shape[1:], split[x]) if x in split else zero
                 for x in range(shape[0]))


def _stored(t):
    """The stored entries ``((out, *inputs), coeff)`` of a map, in store order."""
    return (((out, *key), a) for key, g in t.nonzero.items() for out, a in g)


class TensorCodec(Value):
    """A tensor as its flat nonzero cells `(out, *inputs) -> Fraction`, read
    from and written to the tensor's own store (see `tensors`); `search.mutate`
    edits the same cells.  `entries` reads them off the store, unsorted;
    `build` takes them grouped by input indices, as the decoder groups a
    document's entries and `tensors.group_cells` groups cells.  The index
    bounds are the field's `Field.bounds`, for loading and mutation alike,
    and so is the skew/alternating flag."""
    entries: Callable = _stored
    build: Callable = from_groups          # (shape, groups, flag) -> tensor
    embeds = None
    tensor = True

    def cells(self, t) -> dict:
        """The nonzero cells ``{(out, *inputs): coeff}`` in index order."""
        return dict(sorted(self.entries(t)))

    def load(self, doc, field, values):
        shape = field.bounds(values)
        groups = _entries_to_groups(doc.get(field.key, []), shape, field.key)
        return self.build(shape, groups, field.flag)

    def render(self, t, indent: int) -> str:
        """One line ``[out, *inputs, "q"]`` per stored entry, in index order
        (an index tuple ``(2, 0, 1)`` writes ``2, 0, 1``), sorted once
        straight from the store."""
        return _block([f'[{str(idx)[1:-1]}, "{q!s}"]' for idx, q in sorted(self.entries(t))],
                      indent)


TENSOR = TensorCodec()
# One matrix per basis vector of the acting algebra: [element, row, col].
ACTION = TensorCodec(
    lambda rho: (((x, *idx), q) for x, m in enumerate(rho) for idx, q in _stored(m)),
    _action)


def _dim(doc, field, values) -> int:
    v = doc.get(field.key)
    if type(v) is not int or v < 0:
        raise ParseError(f"{field.key} must be a nonnegative integer")
    if v > sys.maxsize:  # beyond what a sequence length can hold
        raise ParseError(f"{field.key} exceeds the largest dimension {sys.maxsize}")
    return v


def _labels(doc, field, values):
    v = doc.get(field.key)
    if v is None:
        return None
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise ParseError(f"{field.key} must be a list of strings")
    return tuple(v)


def _list(doc, field, values) -> list:
    v = doc.get(field.key)
    if not isinstance(v, list):
        raise ParseError(f"{field.key} must be a list")
    return v


def _operators(doc, field, values):
    shape = field.bounds(values)
    return tuple(from_groups(shape, _entries_to_groups(m, shape, f"operators[{pos}]"))
                 for pos, m in enumerate(_list(doc, field, values)))


DIM = Codec(_dim, lambda n, indent: str(n))
LABELS = Codec(_labels, lambda labels, indent: None if labels is None else json.dumps(labels))
RATIONALS = Codec(lambda doc, field, values: tuple(map(parse_rational, _list(doc, field, values))),
                  lambda qs, indent: json.dumps([str(q) for q in qs]))
OPERATORS = Codec(_operators, lambda ops, indent: _block(
    [TENSOR.render(m, indent + 2) for m in ops], indent))


def embedded(kind: Kind) -> Codec:
    """A complete document of `kind` under one key, its header checked as
    `loads` checks one."""
    return Codec(lambda doc, field, values: _load(_check_header(doc.get(field.key), kind),
                                                  doc[field.key]),
                 lambda obj, indent: _document(kind, obj, indent), kind)


# --- the table --------------------------------------------------------------

class Field(Value):
    key: str                      # document key
    path: str                     # attribute path on the object, e.g. "rb.r0"
    codec: Codec | TensorCodec
    shape: str = ""               # index bounds: value names, e.g. "dim1 dim0 dim0"
    flag: bool = False            # skew (bilinear) or alternating (trilinear)

    def __post_init__(self):  # each bound as (value name, attribute getter or None)
        object.__setattr__(self, "_bounds", tuple(
            (key, attrgetter(rest) if rest else None)
            for key, _, rest in (name.partition(".") for name in self.shape.split())))

    def bounds(self, values: dict) -> tuple[int, ...]:
        """`shape` read from the values decoded so far ("target.dim0" is
        attribute dim0 of the decoded "target")."""
        return tuple(values[key] if get is None else get(values[key])
                     for key, get in self._bounds)


def get_at(obj, path: str):
    """The attribute at a dotted `path`, e.g. "rb.r0"."""
    return reduce(getattr, path.split("."), obj) if path else obj


def put_at(obj, path: str, value):
    """A copy of `obj` with the attribute at `path` replaced, rebuilt along
    the path."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: put_at(getattr(obj, head), rest, value) if rest else value})


class Kind:
    """One document kind.  With `base` = (kind, attribute), the document
    holds that kind's fields and then `own`; the object holds the base
    object at `attribute`.  `build` takes the decoded values by key."""

    def __init__(self, name: str, cls: type, own: tuple[Field, ...], build: Callable,
                 base: tuple[Kind, str] | None = None):
        self.name, self.cls, self.own, self.build, self.base = name, cls, own, build, base
        inherited = () if base is None else tuple(
            replace(f, path=f"{base[1]}.{f.path}") for f in base[0].fields)
        self.fields = inherited + own

    def values(self, obj) -> dict:
        """The values `_load` decodes from the document of `obj`, which
        `Field.bounds` reads: each field's by its key, the base object by
        its attribute."""
        values = {f.key: get_at(obj, f.path) for f in self.own}
        if self.base is not None:
            kind, attribute = self.base
            base = values[attribute] = get_at(obj, attribute)
            values.update(kind.values(base))
        return values


LIE = Kind("lie", LieAlgebra, (
    Field("dim", "dim", DIM),
    Field("basis", "labels", LABELS),
    Field("bracket", "bracket", TENSOR, "dim dim dim", True),
), lambda dim, basis, bracket: LieAlgebra(dim, bracket, basis))

RB_LIE = Kind("rb-lie", RotaBaxterLieAlgebra, (
    Field("r", "r", TENSOR, "base.dim base.dim"),
), RotaBaxterLieAlgebra, base=(LIE, "base"))

PRE_LIE = Kind("pre-lie", PreLieAlgebra, (
    Field("dim", "dim", DIM),
    Field("mult", "mult", TENSOR, "dim dim dim"),
), PreLieAlgebra)

REPRESENTATION = Kind("representation", RBRepresentation, (
    Field("algebra", "algebra", embedded(RB_LIE)),
    Field("dim_v", "dim_v", DIM),
    Field("rho", "rho", ACTION, "algebra.dim dim_v dim_v"),
    Field("cal_r", "cal_r", TENSOR, "dim_v dim_v"),
), RBRepresentation)

TWO_TERM = Kind("2term", TwoTermLInfinity, (
    Field("dim0", "dim0", DIM),
    Field("dim1", "dim1", DIM),
    Field("l1", "complex.l1", TENSOR, "dim0 dim1"),
    Field("l2_00", "l2_00", TENSOR, "dim0 dim0 dim0", True),
    Field("l2_01", "l2_01", TENSOR, "dim1 dim0 dim1"),
    Field("l3", "l3", TENSOR, "dim1 dim0 dim0 dim0", True),
), two_term)

RB_TWO_TERM = Kind("rb-2term", TwoTermRBLInfinity, (
    Field("r0", "rb.r0", TENSOR, "linf.dim0 linf.dim0"),
    Field("r1", "rb.r1", TENSOR, "linf.dim1 linf.dim1"),
    Field("r2", "rb.r2", TENSOR, "linf.dim1 linf.dim0 linf.dim0", True),
), with_operators, base=(TWO_TERM, "linf"))

HOM = Kind("hom", LInfinityHom, (
    Field("source", "source", embedded(TWO_TERM)),
    Field("target", "target", embedded(TWO_TERM)),
    Field("phi0", "phi0", TENSOR, "target.dim0 source.dim0"),
    Field("phi1", "phi1", TENSOR, "target.dim1 source.dim1"),
    Field("phi2", "phi2", TENSOR, "target.dim1 source.dim0 source.dim0", True),
), LInfinityHom)

RB_HOM = Kind("rb-hom", RBLInfinityHom, (
    Field("source", "source", embedded(RB_TWO_TERM)),
    Field("target", "target", embedded(RB_TWO_TERM)),
    Field("phi0", "hom.phi0", TENSOR, "target.linf.dim0 source.linf.dim0"),
    Field("phi1", "hom.phi1", TENSOR, "target.linf.dim1 source.linf.dim1"),
    Field("phi2", "hom.phi2", TENSOR, "target.linf.dim1 source.linf.dim0 source.linf.dim0", True),
    Field("phi3", "phi3", TENSOR, "target.linf.dim1 source.linf.dim0"),
), rb_hom)

CROSSED_LIE = Kind("crossed-lie", LieCrossedModule, (
    Field("dim0", "g0.dim", DIM),
    Field("dim1", "g1.dim", DIM),
    Field("bracket0", "g0.bracket", TENSOR, "dim0 dim0 dim0", True),
    Field("bracket1", "g1.bracket", TENSOR, "dim1 dim1 dim1", True),
    Field("d", "d", TENSOR, "dim0 dim1"),
    Field("rho", "rho", ACTION, "dim0 dim1 dim1"),
), lambda dim0, dim1, bracket0, bracket1, d, rho: LieCrossedModule(
    LieAlgebra(dim0, bracket0), LieAlgebra(dim1, bracket1), d, rho))

CROSSED_RB = Kind("crossed-rb", RBLieCrossedModule, (
    Field("t0", "t0", TENSOR, "base.g0.dim base.g0.dim"),
    Field("t1", "t1", TENSOR, "base.g1.dim base.g1.dim"),
), RBLieCrossedModule, base=(CROSSED_LIE, "base"))

CROSSED_PRELIE = Kind("crossed-prelie", PreLieCrossedModule, (
    Field("dim0", "p0.dim", DIM),
    Field("dim1", "p1.dim", DIM),
    Field("mult0", "p0.mult", TENSOR, "dim0 dim0 dim0"),
    Field("mult1", "p1.mult", TENSOR, "dim1 dim1 dim1"),
    Field("delta", "delta", TENSOR, "dim0 dim1"),
    Field("l_act", "l_act", ACTION, "dim0 dim1 dim1"),
    Field("r_act", "r_act", ACTION, "dim0 dim1 dim1"),
), lambda dim0, dim1, mult0, mult1, delta, l_act, r_act: PreLieCrossedModule(
    PreLieAlgebra(dim0, mult0), PreLieAlgebra(dim1, mult1), delta, l_act, r_act))

SEARCH_RESULTS = Kind("search-results", SearchResults, (
    Field("algebra", "algebra", embedded(LIE)),
    Field("coeffs", "coeffs", RATIONALS),
    Field("operators", "operators", OPERATORS, "algebra.dim algebra.dim"),
), SearchResults)

KINDS = {k.name: k for k in (LIE, RB_LIE, PRE_LIE, REPRESENTATION, TWO_TERM,
                             RB_TWO_TERM, HOM, RB_HOM, CROSSED_LIE, CROSSED_RB,
                             CROSSED_PRELIE, SEARCH_RESULTS)}
KIND_OF_CLASS = {k.cls: k for k in KINDS.values()}


# --- load and dump ----------------------------------------------------------

def _check_header(doc, expected: Kind | None = None) -> Kind:
    if not isinstance(doc, dict):
        raise ParseError("document must be an object")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise UnknownKind(f"unknown document kind {kind!r}")
    if expected is not None and kind != expected.name:
        raise ParseError(f"expected an embedded {expected.name!r} document, got {kind!r}")
    return KINDS[kind]


def _load(kind: Kind, doc):
    """Decode `kind`'s fields in document order, each codec checking what it
    reads, and build the object.  A base kind is decoded and built before
    this kind's fields."""
    values = {}
    if kind.base is not None:
        values[kind.base[1]] = _load(kind.base[0], doc)
    for f in kind.own:
        values[f.key] = f.codec.load(doc, f, values)
    return kind.build(**values)


def loads(text: str):
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as e:
        # a syntax error (its message names the line and column), nesting too
        # deep, or an integer too large
        raise ParseError(f"invalid document: {e}") from e
    return _load(_check_header(doc), doc)


def _read(path) -> bytes:
    """The bytes of the file at `path`, read to its end in chunks."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _CHUNK):
            chunks.append(chunk)
    except OSError as e:  # a directory opens, and fails at its first read
        raise OSError(e.errno, e.strerror, os.fspath(path)) from e
    finally:
        os.close(fd)
    return b"".join(chunks)


def load(path):
    """The object of the document at `path`.

    The file is read through its descriptor: ``os.open``, ``os.read``
    until end of file, ``os.close``, four system calls for a document
    shorter than a chunk.  The bytes are decoded as UTF-8 with text mode's
    universal newlines (CRLF and CR read as LF), so `load` gives what
    ``open(path, encoding="utf-8").read()`` then `loads` gives: the same
    object, and the same error text, syntax positions included.  An error
    of ``os.read`` (a directory opens, then fails to read) names the path,
    as ``open`` does.  A text-mode ``open`` adds an ``fstat``, an isatty
    ``ioctl`` and ``lseek`` calls, and builds a buffered reader and a
    decoder.  After other work each call runs cold: after a
    ``gc.collect()`` of a heap of 30,000 small dicts, reading a 1 KB
    document took 107-132 us that way against 25-32 us through
    descriptors, of which ``os.open`` alone took 16-21 us (1.7 us hot with
    ``os.close``; medians of 300, 2 CPUs, Python 3.11).
    """
    data = _read(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"document is not UTF-8: {e}") from e
    if "\r" in text:  # universal newlines: CRLF and CR read as LF
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return loads(text)


def _document(kind: Kind, obj, indent: int) -> str:
    """The canonical text of `obj` as a `kind` document whose braces close
    at `indent`: one ``"key": value`` line per field, in table order."""
    lines = [f'"kind": "{kind.name}"', f'"version": {FORMAT_VERSION}']
    for f in kind.fields:
        text = f.codec.render(get_at(obj, f.path), indent + 2)
        if text is not None:
            lines.append(f'"{f.key}": {text}')
    return _block(lines, indent, "{}")


def _kind(obj) -> Kind:
    kind = KIND_OF_CLASS.get(type(obj))
    if kind is None:
        raise UnknownKind(f"cannot serialize a {type(obj).__name__}")
    return kind


def dumps(obj) -> str:
    return _document(_kind(obj), obj, 0) + "\n"


def save(obj, path):
    """Write the document of `obj` over `path` in place.

    The document is dumped first, so an object that cannot be dumped
    leaves the file as it was.  The file is then written from its start
    through its descriptor (``os.write`` until every byte is taken),
    without ``O_TRUNC``, and cut to length only when ``fstat`` shows the
    old file was longer; a device or a pipe (`os.devnull`,
    ``/dev/stdout``) has no length to cut.  No buffered writer is made,
    so none of its ``fstat``, ``ioctl`` and ``lseek`` calls are paid.  A
    truncating ``open(path, "w")`` would cost a flush: ext4 (with its
    default ``auto_da_alloc``) writes a file truncated to zero and
    rewritten out to disk on close.  One 3.6 KB overwrite takes a
    median of 87-109 us that way, against 24-25 us in place and 99-115 us
    through a temporary file renamed over the document, which ext4 flushes
    too and which gives the document a new inode (two runs of 300 on 2
    CPUs, Python 3.11).  An interrupted write can leave new bytes over old
    ones: `save` makes no atomicity promise, and a truncating open would
    make none either, since it can leave a truncated prefix.
    """
    data = dumps(obj).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):  # a pipe can take part of the bytes per call
            written += os.write(fd, data[written:])
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def kind_of(obj) -> str:
    return _kind(obj).name
