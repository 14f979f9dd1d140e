import json
import os
import re
import stat
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CATALOG_DIR, reference_render, to_document
from rblie import catalog
from rblie.crossed import LieCrossedModule
from rblie.errors import (BadRational, BadSite, DuplicateEntry, ParseError, StructureError,
                          UnknownKind, VersionMismatch)
from rblie.liealg import LieAlgebra, RBRepresentation, RotaBaxterLieAlgebra, prelie_from_rb
from rblie.search import SearchSpec, enumerate_rb_operators, mutate
from rblie.serialize import (DIM, KINDS, LABELS, OPERATORS, RATIONALS, TENSOR, SearchResults,
                             _entries_to_groups, dumps, embedded, get_at, kind_of, load, loads,
                             parse_rational, save)
from rblie.tensors import BilinearMap, LinearMap, _Multilinear, exact, from_cells, vec
from rblie.twoterm import rb_hom, two_term, with_operators
from rblie.value import replace


def test_parse_rational_accepts_canonical_and_shorthand():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("2/4") == Fraction(1, 2)  # normalized on load
    assert parse_rational("007") == Fraction(7)


def test_parse_rational_rejects_bad_literals():
    for bad in ("1/-2", "-1/-2", "1/0", "1.5", "", "a", "+1", "1 /2", 3, None,
                "1\n", "-1/2\n"):
        with pytest.raises(BadRational):
            parse_rational(bad)


@pytest.mark.parametrize("name", ["no-such-file.json", ".", "no-such-dir/doc.json"])
def test_file_errors_read_as_pathlib_reports_them(tmp_path, monkeypatch, name):
    """`load` of a missing file, a directory or a file in a missing
    directory, and `save` to a directory or into a missing one, raise the
    error `pathlib` raises, with the same text."""
    monkeypatch.chdir(tmp_path)
    obj = catalog.LIE_ALGEBRAS["aff1"]
    calls = [(lambda: load(name), lambda: Path(name).read_text(encoding="utf-8"))]
    if name != "no-such-file.json":
        calls.append((lambda: save(obj, name), lambda: Path(name).write_text("", encoding="utf-8")))
    for ours, theirs in calls:
        with pytest.raises(OSError) as got:
            ours()
        with pytest.raises(OSError) as want:
            theirs()
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


SL2_TEXT = (CATALOG_DIR / "sl2.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_load_reads_any_line_ending_as_a_newline(tmp_path, newline):
    """A document with CRLF or CR line endings loads, and a syntax error in
    it is reported at the position it has with LF endings."""
    path = tmp_path / "doc.json"
    path.write_bytes(SL2_TEXT.replace("\n", newline).encode("utf-8"))
    assert load(path) == catalog.LIE_ALGEBRAS["sl2"]
    broken = SL2_TEXT.replace('"dim": 3', '"dim": ')
    path.write_bytes(broken.replace("\n", newline).encode("utf-8"))
    with pytest.raises(ParseError, match=re.escape(
            "invalid document: Expecting value: line 4 column 10 (char 44)")):
        load(path)


def test_load_of_a_latin1_byte_names_the_utf8_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(SL2_TEXT.replace('"e"', '"\xe9"').encode("latin-1"))
    with pytest.raises(ParseError) as got:
        load(path)
    assert str(got.value) == ("document is not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
                              "in position 60: invalid continuation byte")


def test_load_of_an_empty_file_reports_the_json_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"")
    with pytest.raises(ParseError) as got:
        load(path)
    assert str(got.value) == "invalid document: Expecting value: line 1 column 1 (char 0)"


def test_load_reads_a_pipe_to_its_end():
    read_end, write_end = os.pipe()
    try:
        with open(write_end, "wb") as writer:
            writer.write(SL2_TEXT.encode("utf-8"))
        assert load(f"/dev/fd/{read_end}") == catalog.LIE_ALGEBRAS["sl2"]
    finally:
        os.close(read_end)


@pytest.mark.parametrize("pad", [0, 1])
def test_load_joins_a_long_document_before_decoding_it(tmp_path, pad):
    """A 1.2 MB document is longer than a read chunk.  Its one label is
    400,000 3-byte characters, and one of the two paddings puts any byte
    offset within the label inside a character, so a chunk boundary splits
    one."""
    label = "x" * pad + "€" * 400_000
    path = tmp_path / "doc.json"
    path.write_text(dumps(LieAlgebra.from_brackets(1, {}, labels=(label,))), encoding="utf-8")
    assert load(path).labels == (label,)


def _outcome(fn, *args):
    """What `fn(*args)` gives: its value's repr (which tells ``int`` from
    ``Fraction`` and shows dict order), or its error's type and text."""
    try:
        return repr(fn(*args))
    except StructureError as e:
        return type(e), str(e)


def text_mode_load(path):
    """`load` as a text-mode read gives it: the reference of the read path."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"document is not UTF-8: {e}") from e
    return loads(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([SL2_TEXT.encode("utf-8"), b"\r", b"\n", b"\r\n", b"\xe9",
                                 b"\xe2\x82", "€".encode("utf-8"), b"\xef\xbb\xbf", b" ", b'"',
                                 b"{}"]), max_size=6),
       st.integers(0, len(SL2_TEXT)))
def test_load_reads_what_text_mode_reads(tmp_path_factory, pieces, at):
    """Bytes spliced into a document, with stray line endings, broken
    UTF-8 sequences and byte order marks: `load` gives what a text-mode
    read then `loads` gives, object or error text."""
    data = SL2_TEXT.encode("utf-8")
    data = data[:at] + b"".join(pieces) + data[at:]
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_bytes(data)
    assert _outcome(load, path) == _outcome(text_mode_load, path)


_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def reference_rational(text):
    """`parse_rational` by the pattern of docs/FORMAT.md."""
    if not isinstance(text, str) or not _LITERAL.fullmatch(text):
        raise BadRational(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        return exact(Fraction(int(num), int(den))) if den else int(num)
    except (ValueError, ZeroDivisionError) as e:
        raise BadRational(f"not a rational literal: {text[:20]!r}: {e}") from e


def reference_groups(entries, bounds, where):
    """The entry decoder as a plain loop: `isinstance` rejecting ``bool``
    for indices, `reference_rational` for coefficients."""
    arity = len(bounds)
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of entries")
    seen, groups = set(), {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise ParseError(f"{where}[{pos}]: expected [{arity} indices, coefficient]")
        idx = tuple(entry[:arity])
        for v, bound in zip(idx, bounds):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < bound:
                raise ParseError(f"{where}[{pos}]: index {v!r} out of range 0..{bound - 1}")
        if idx in seen:
            raise DuplicateEntry(f"{where}: duplicate entry at {idx}")
        seen.add(idx)
        q = reference_rational(entry[arity])
        if q:
            groups.setdefault(idx[1:], []).append((idx[0], q))
    return groups


ODD_LITERALS = ["١", "1_000", " 1", "1\n", "+1", "-0", "007", "10/4", "1" * 5000, "-" + "7" * 5000,
                "1/" + "3" * 5000, "0/3", "-6/4", "1/0", "1/-2", "--1", "-", "", "/2", "1/",
                "²", "1.5", "1e3", "０", "1/١", "-١", "1/²", "1/2/3"]
COEFFICIENTS = st.one_of(st.sampled_from([True, False, None, 1, 1.0, 1.5, [], ["1"], {}]),
                         st.sampled_from(ODD_LITERALS), st.integers(-30, 30).map(str),
                         st.fractions(max_denominator=12).map(str),
                         st.text(alphabet="-0123456789/ _+١", max_size=6))
INDICES = st.one_of(st.integers(-1, 3), st.sampled_from([True, False, 1.0, "0", None]))


@st.composite
def entry_lists(draw):
    """A tensor's bounds and entries: mostly well formed, with wrong
    arities, non-list entries, out-of-range and repeated indices."""
    bounds = draw(st.sampled_from([(2, 3), (3, 2, 2), (2, 3, 3, 3), (0, 2)]))
    entry = st.one_of(
        st.tuples(st.tuples(*[INDICES] * len(bounds)), COEFFICIENTS).map(
            lambda e: [*e[0], e[1]]),
        st.lists(INDICES, max_size=5), st.sampled_from(["0,1,1", {}, 3]))
    entries = draw(st.lists(entry, max_size=6))
    if entries and draw(st.booleans()):  # a repeated index tuple
        entries.append(draw(st.sampled_from(entries)))
    return bounds, draw(st.sampled_from([entries, entries, {}, "[]"]))


@settings(max_examples=400, deadline=None)
@given(entry_lists())
def test_entry_decoder_matches_its_reference(case):
    bounds, entries = case
    assert (_outcome(_entries_to_groups, entries, bounds, "t")
            == _outcome(reference_groups, entries, bounds, "t"))


@given(st.one_of(COEFFICIENTS, st.text(max_size=8)))
def test_parse_rational_matches_its_reference(text):
    assert _outcome(parse_rational, text) == _outcome(reference_rational, text)


def test_save_leaves_exactly_the_document_over_any_old_file(tmp_path):
    """`save` over a longer file leaves no tail of it, and over a shorter
    one (or over the document itself padded with zero bytes) writes all of
    the new document."""
    path = tmp_path / "doc.json"
    short, long = catalog.LIE_ALGEBRAS["aff1"], catalog.LIE_ALGEBRAS["solv4"]
    assert len(dumps(short)) < len(dumps(long))
    for old, new in ((dumps(long), short), (dumps(short), long),
                     (dumps(short) + "\0" * 4096, short)):
        path.write_text(old, encoding="utf-8")
        save(new, path)
        assert path.read_bytes() == dumps(new).encode("utf-8")


def test_save_overwrites_the_file_in_place(tmp_path):
    """An existing file keeps its inode and mode, so a hard link made
    before the save reads the new text; a new file gets the mode
    `pathlib` would give it."""
    path, link = tmp_path / "doc.json", tmp_path / "link.json"
    path.write_text(dumps(catalog.LIE_ALGEBRAS["solv4"]), encoding="utf-8")
    path.chmod(0o640)
    os.link(path, link)
    before = path.stat()
    obj = catalog.LIE_ALGEBRAS["aff1"]
    save(obj, path)
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert link.read_text(encoding="utf-8") == dumps(obj)
    fresh, reference = tmp_path / "fresh.json", tmp_path / "reference.json"
    save(obj, fresh)
    reference.write_text("", encoding="utf-8")
    assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)


def test_save_writes_through_devices_and_pipes():
    """The null device and a pipe take the document as they are: neither
    can be cut to length."""
    obj = catalog.LIE_ALGEBRAS["sl2"]
    save(obj, os.devnull)
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        try:
            save(obj, f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        assert reader.read() == dumps(obj).encode("utf-8")


def test_save_of_an_object_of_no_kind_leaves_the_file_unchanged(tmp_path):
    """The document is dumped before the file is opened, so an object
    that cannot be dumped leaves an existing file as it was and creates
    no new one."""
    path, missing = tmp_path / "doc.json", tmp_path / "missing.json"
    text = dumps(catalog.LIE_ALGEBRAS["sl2"]).encode("utf-8")
    path.write_bytes(text)
    for target in (path, missing):
        with pytest.raises(UnknownKind):
            save(object(), target)
    assert path.read_bytes() == text
    assert not missing.exists()


def test_load_save_byte_identity_on_catalog_files():
    files = sorted(CATALOG_DIR.glob("*.json"))
    assert len(files) >= 30
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert dumps(loads(text)) == text, path.name


def test_dumps_renders_the_stores_without_a_cells_dict(monkeypatch):
    """`dumps` writes each tensor's lines from its store, sorted once, with
    no `cells()` dict: every catalog document, action documents included,
    dumps back byte for byte with `cells()` unavailable."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(CATALOG_DIR.glob("*.json"))]
    objs = [loads(text) for text in texts]

    def unavailable(self):
        raise AssertionError("cells() called while dumping")

    monkeypatch.setattr(_Multilinear, "cells", unavailable)
    assert [dumps(obj) for obj in objs] == texts


def test_shipped_catalog_matches_builder():
    """The committed files are exactly what the build script would emit."""
    docs = catalog.shipped_documents()
    shipped = {p.stem for p in CATALOG_DIR.glob("*.json")}
    assert shipped == set(docs)
    for name, obj in docs.items():
        assert (CATALOG_DIR / f"{name}.json").read_text(encoding="utf-8") == dumps(obj), name
        assert load(CATALOG_DIR / f"{name}.json") == obj, name


def test_catalog_file_round_trips_to_same_object():
    obj = load(CATALOG_DIR / "aff1-rb-shift.json")
    assert obj == catalog.RB_ALGEBRAS["aff1-rb-shift"]


def test_duplicate_entry_rejected():
    doc = json.loads((CATALOG_DIR / "aff1.json").read_text())
    doc["bracket"].append(doc["bracket"][0])
    with pytest.raises(DuplicateEntry):
        loads(json.dumps(doc))


def test_bad_rational_in_file_rejected():
    doc = json.loads((CATALOG_DIR / "aff1.json").read_text())
    doc["bracket"][0][-1] = "1/-2"
    with pytest.raises(BadRational):
        loads(json.dumps(doc))


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKind):
        loads('{"kind": "octonion", "version": 1}')


def test_version_mismatch_rejected():
    with pytest.raises(VersionMismatch):
        loads('{"kind": "lie", "version": 2, "dim": 1, "bracket": []}')
    with pytest.raises(VersionMismatch):
        loads('{"kind": "lie", "dim": 1, "bracket": []}')


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        loads('{"kind": "lie",\n  broken')
    assert "line 2 column 3" in str(exc.value)


def test_out_of_range_index_rejected():
    with pytest.raises(ParseError):
        loads('{"kind": "lie", "version": 1, "dim": 2, '
              '"bracket": [[2, 0, 1, "1"]]}')


def test_wrong_entry_arity_rejected():
    with pytest.raises(ParseError, match=r"^bracket\[0\]: expected \[3 indices, coefficient\]$"):
        loads('{"kind": "lie", "version": 1, "dim": 2, '
              '"bracket": [[0, 1, "1"]]}')


def _catalog_with(name: str, edit) -> str:
    """The catalog document `name` with `edit` applied to its JSON tree."""
    doc = json.loads((CATALOG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    edit(doc)
    return json.dumps(doc)


# One document per input check of the loader, each with that one fault, and
# the error the check raises.  With the check disabled the document loads,
# or fails with another error: none of them has a second fault to report.
# (`tests/test_cli.py` feeds `verify` a document that is not an object.)
LOADER_FAULTS = {
    "embedded-wrong-kind": (
        _catalog_with("id-aff1-adjoint-rb2-shift",
                      lambda doc: doc["source"].update(kind="2term")),
        ParseError, "expected an embedded 'rb-2term' document, got '2term'"),
    "embedded-wrong-version": (
        _catalog_with("id-aff1-adjoint-rb2-shift",
                      lambda doc: doc["target"].update(version=2)),
        VersionMismatch, "unsupported format version 2"),
    "entries-not-a-list": (
        '{"kind": "lie", "version": 1, "dim": 2, "bracket": {}}',
        ParseError, "bracket: expected a list of entries"),
    "coeffs-not-a-list": (
        _catalog_with("aff1-rb-search", lambda doc: doc.update(coeffs="1")),
        ParseError, "coeffs must be a list"),
    "operators-not-a-list": (
        _catalog_with("aff1-rb-search", lambda doc: doc.update(operators={})),
        ParseError, "operators must be a list"),
    "basis-not-strings": (
        _catalog_with("sl2", lambda doc: doc.update(basis=[0, 1, 2])),
        ParseError, "basis must be a list of strings"),
}


@pytest.mark.parametrize("case", LOADER_FAULTS.values(), ids=LOADER_FAULTS.keys())
def test_each_loader_check_rejects_its_fault(case):
    text, error, message = case
    with pytest.raises(error, match=f"^{message}$"):
        loads(text)


def test_integer_coefficients_must_be_strings():
    with pytest.raises(BadRational):
        loads('{"kind": "lie", "version": 1, "dim": 2, '
              '"bracket": [[0, 0, 1, 1]]}')


def test_non_canonical_input_normalized_on_save():
    text = ('{"kind": "lie", "version": 1, "dim": 2, '
            '"bracket": [[1, 0, 1, "2/4"], [1, 1, 0, "-2/4"]]}')
    out = dumps(loads(text))
    assert '"1/2"' in out and '"2/4"' not in out


def test_explicit_zero_entries_dropped_on_save():
    text = ('{"kind": "lie", "version": 1, "dim": 2, '
            '"bracket": [[0, 0, 1, "0"]]}')
    obj = loads(text)
    assert obj == LieAlgebra.abelian(2)
    assert '"0"' not in dumps(obj)


def _without_empty_keys(doc: dict) -> tuple[dict, int]:
    """`doc` with each key whose value is [] left out, in embedded documents
    too, and the number of keys left out."""
    out, dropped = {}, 0
    for key, value in doc.items():
        if isinstance(value, dict):
            value, inner = _without_empty_keys(value)
            dropped += inner
        if value == []:
            dropped += 1
        else:
            out[key] = value
    return out, dropped


def test_omitted_tensor_keys_load_as_the_zero_map():
    """A tensor key left out of a document is the zero map (docs/FORMAT.md):
    with every [] key of a catalog document left out, the document loads as
    the shipped object and dumps as the shipped bytes."""
    total = 0
    for path in sorted(CATALOG_DIR.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        sparse, dropped = _without_empty_keys(json.loads(text))
        obj = loads(json.dumps(sparse))
        assert obj == loads(text), path.name
        assert dumps(obj) == text, path.name
        total += dropped
    assert total == 145


def test_two_term_kinds_build_through_the_constructors():
    assert KINDS["2term"].build is two_term
    assert KINDS["rb-2term"].build is with_operators
    assert KINDS["rb-hom"].build is rb_hom


def test_labels_round_trip():
    alg = catalog.LIE_ALGEBRAS["sl2"]
    assert loads(dumps(alg)).labels == ("e", "f", "h")


def test_mutated_documents_load_without_semantic_checks(tmp_path):
    """Loading performs shape validation only; a semantically invalid
    structure round-trips untouched."""
    from rblie.search import mutate
    from rblie.cli import verify_structure
    bad = mutate(catalog.LIE_ALGEBRAS["sl2"], ("bracket", 0, 0, 1), 7)
    path = tmp_path / "bad.json"
    save(bad, path)
    loaded = load(path)
    assert loaded == bad
    assert not verify_structure(loaded).ok


def test_search_results_round_trip(tmp_path):
    res = load(CATALOG_DIR / "aff1-rb-search.json")
    p = tmp_path / "again.json"
    save(res, p)
    assert load(p) == res


def _joined(values) -> str:
    """Inline list rendering as one `json.dumps` per item, joined."""
    return "[" + ", ".join(json.dumps(v) for v in values) + "]"


LABEL_LISTS = [  # three labels each, for a dim-3 algebra
    ['say "x"', "back\\slash", "\\\""],
    ["é", "ℝ⊕𝔤", "𝔰𝔩₂"],
    ["tab\there", "nul\u0000", "line\u2028sep"],
]


@pytest.mark.parametrize("values", [
    [0, -1, 7, 10 ** 30, -(10 ** 30)],
    ["1/2", "-7/3", "0", "11", "-123456789012345678901/2"],
    *LABEL_LISTS,
    [1, "1/2", "e"],
])
def test_scalar_lists_render_as_their_joined_items(values):
    """A list of labels renders on one line, byte for byte as its items
    dumped one at a time and joined with ", ", in a document at any depth."""
    labels = tuple(map(str, values))
    alg = LieAlgebra(len(labels), BilinearMap.zero(*(len(labels),) * 3, skew=True), labels)
    assert '\n  "basis": ' + _joined(labels) + ",\n" in dumps(alg)
    assert '\n    "basis": ' + _joined(labels) + ",\n" in dumps(SearchResults(alg, (), ()))


@pytest.mark.parametrize("coeffs", [
    (0, -1, 7, 10 ** 30, -(10 ** 30)),
    (Fraction(1, 2), Fraction(-7, 3), 0, 11, Fraction(-123456789012345678901, 2)),
    (),
])
def test_coefficient_lists_render_as_their_joined_items(coeffs):
    """A coefficient list renders on one line, byte for byte as its items
    dumped one at a time and joined with ", "."""
    res = SearchResults(catalog.LIE_ALGEBRAS["abelian1"], coeffs, ())
    assert '\n  "coeffs": ' + _joined([str(q) for q in coeffs]) + ",\n" in dumps(res)


def _edge_documents() -> dict:
    """Objects at the edges of the encoder: empty tensors and lists, basis
    labels present, empty and absent, `Fraction` coefficients, operators and
    action elements without entries."""
    def lie(labels=None, coeff=1):
        return LieAlgebra.from_brackets(3, {(0, 1): vec(0, 0, coeff)}, labels)

    empty = LieAlgebra(0, BilinearMap.zero(0, 0, 0, skew=True), ())
    op = LinearMap.from_rows([[0, 0, Fraction(-1, 2)], [0, 0, 0], [0, 0, 0]])
    zero3, zero1 = LinearMap.zero(3, 3), LinearMap.zero(1, 1)
    d = LinearMap.zero(3, 1)
    return {
        "empty tensor": LieAlgebra(2, BilinearMap.zero(2, 2, 2, skew=True)),
        "basis absent": lie(),
        "basis present": lie(("x", "y", "z"), Fraction(-7, 3)),
        "basis empty": empty,
        "no operators": SearchResults(lie(), (-1, 0, 1), ()),
        "operators without entries": SearchResults(lie(), (), (zero3, zero3)),
        "fraction operators": SearchResults(lie(), (Fraction(1, 3),), (zero3, op)),
        "action without entries": LieCrossedModule(lie(), LieAlgebra.from_brackets(1, {}), d,
                                                   BilinearMap.zero(3, 1, 1)),
        "action of no elements": LieCrossedModule(empty, empty, LinearMap.zero(0, 0),
                                                  BilinearMap.zero(0, 0, 0)),
        "embedded fraction": RBRepresentation(RotaBaxterLieAlgebra(lie(), op), 1,
                                              from_cells((1, 3, 1), {(0, 1, 0): Fraction(5, 4)}),
                                              zero1),
    }


EDGE_DOCUMENTS = _edge_documents()


@pytest.mark.parametrize("obj", EDGE_DOCUMENTS.values(), ids=EDGE_DOCUMENTS.keys())
def test_edge_documents_dump_as_the_json_dumps_reference(obj):
    """Each object dumps as `reference_render` of its value tree, loads back
    equal, and renders as an embedded document at indent 4 the same way."""
    text = dumps(obj)
    assert text == reference_render(to_document(obj)) + "\n"
    assert loads(text) == obj and dumps(loads(text)) == text
    kind = KINDS[kind_of(obj)]
    assert embedded(kind).render(obj, 4) == reference_render(to_document(obj), 4)


@pytest.mark.parametrize("labels", LABEL_LISTS)
def test_labelled_search_results_round_trip_byte_for_byte(labels):
    alg = LieAlgebra.from_brackets(3, {(0, 1): vec(0, 0, 1)}, labels=tuple(labels))
    spec = SearchSpec(alg, (-1, 0, Fraction(1, 2)))
    res = SearchResults(alg, spec.coeffs, tuple(rba.r for rba in enumerate_rb_operators(spec)))
    text = dumps(res)
    assert '  "basis": ' + _joined(labels) + ",\n" in text
    assert loads(text) == res
    assert dumps(loads(text)) == text


def test_every_catalog_document_dumps_as_the_json_dumps_reference():
    files = sorted(CATALOG_DIR.glob("*.json"))
    assert len(files) >= 30
    for path in files:
        obj = load(path)
        assert dumps(obj) == reference_render(to_document(obj)) + "\n", path.name


def test_heis3_search_results_dump_as_the_json_dumps_reference():
    alg = catalog.LIE_ALGEBRAS["heis3"]
    spec = SearchSpec(alg)
    res = SearchResults(alg, spec.coeffs, tuple(rba.r for rba in enumerate_rb_operators(spec)))
    assert len(res.operators) == 639
    assert dumps(res) == reference_render(to_document(res)) + "\n"


def test_escaped_labels_dump_as_the_json_dumps_reference():
    """Quotes, backslashes, control characters and non-ASCII letters (one
    outside the basic plane) in the basis labels of a `lie` document."""
    labels = ('q"uote\\', "ctl\x00\x1f\x7f\b\n\t", "héllo ℝ⊕𝔤 \u2028")
    alg = LieAlgebra.from_brackets(3, {(0, 1): vec(0, 0, 1)}, labels=labels)
    text = dumps(alg)
    assert text == reference_render(to_document(alg)) + "\n"
    assert text.isascii() and loads(text).labels == labels


rational_strategy = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(min_value=0, max_value=3),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.lists(rational_strategy, min_size=3, max_size=3),
                       max_size=4))
def test_document_round_trip_random_bilinear(dim_sel, entries):
    dim = 3
    values = {k: vec(*v) for k, v in entries.items()}
    alg = LieAlgebra(dim, BilinearMap.from_map(dim, dim, dim, values, skew=False))
    # the skew flag is declared, not enforced; use unflagged data here
    alg = LieAlgebra(dim, replace(alg.bracket, skew=True))
    assert loads(dumps(alg)) == alg


def test_declared_dimension_costs_nothing_at_load():
    """Load, dump and mutate read and write only the nonzero entries, so a
    lie document declaring dim 10^5 with two bracket entries round-trips
    and takes a mutation at once (a dense grid would need 10^15 cells)."""
    text = ('{\n  "kind": "lie",\n  "version": 1,\n  "dim": 100000,\n  "bracket": [\n'
            '    [2, 0, 1, "1"],\n    [2, 1, 0, "-1"]\n  ]\n}\n')
    site = ("bracket", 99999, 5, 99998)
    start = perf_counter()
    alg = loads(text)
    mutant = mutate(alg, site, 3)
    restored = dumps(mutate(mutant, site, -3))
    elapsed = perf_counter() - start
    assert dumps(alg) == restored == text
    assert mutant.bracket.cells() == {(2, 0, 1): 1, (2, 1, 0): -1,
                                      (99999, 5, 99998): 3, (99999, 99998, 5): -3}
    assert elapsed < 1, f"took {elapsed:.2f} s"


ACTION_DOCUMENTS = {
    "crossed-lie": ('{\n  "kind": "crossed-lie",\n  "version": 1,\n  "dim0": 10000000,\n'
                    '  "dim1": 1,\n  "bracket0": [],\n  "bracket1": [],\n  "d": [],\n'
                    '  "rho": [\n    [7, 0, 0, "1"]\n  ]\n}\n'),
    "crossed-prelie": ('{\n  "kind": "crossed-prelie",\n  "version": 1,\n  "dim0": 10000000,\n'
                       '  "dim1": 2,\n  "mult0": [],\n  "mult1": [],\n  "delta": [],\n'
                       '  "l_act": [\n    [3, 0, 1, "-2"],\n    [9999999, 1, 0, "1"]\n  ],\n'
                       '  "r_act": [\n    [5, 0, 0, "1/2"]\n  ]\n}\n'),
    "representation": ('{\n  "kind": "representation",\n  "version": 1,\n  "algebra": {\n'
                       '    "kind": "rb-lie",\n    "version": 1,\n    "dim": 10000000,\n'
                       '    "bracket": [],\n    "r": []\n  },\n  "dim_v": 1,\n'
                       '  "rho": [\n    [9999999, 0, 0, "3"]\n  ],\n  "cal_r": []\n}\n'),
}


@pytest.mark.parametrize("kind", ACTION_DOCUMENTS)
def test_action_fields_load_in_time_of_their_entries(kind):
    """An action is one map of its entries: a document whose acting
    algebra declares dimension 10^7 loads and dumps back byte for byte at
    once (one matrix per acting basis vector would be ten million)."""
    text = ACTION_DOCUMENTS[kind]
    start = perf_counter()
    obj = loads(text)
    out = dumps(obj)
    elapsed = perf_counter() - start
    assert out == text
    assert elapsed < 0.5, f"took {elapsed:.2f} s"


def test_action_elements_without_entries_share_one_map():
    """The crossed-lie document of `ACTION_DOCUMENTS` holds its one entry
    as the cell (row; element, col), and the elements without entries read
    one shared zero map."""
    cm = loads(ACTION_DOCUMENTS["crossed-lie"])
    assert cm.act.shape == (1, 10 ** 7, 1) and cm.act.cells() == {(0, 7, 0): 1}
    assert cm.act(7, 0) == (1,) and cm.act(0, 0) == (0,)
    assert cm.act.partial(1, 0) is cm.act.partial(1, 9999999) and cm.act.partial(1, 0).is_zero()


# --- load/save fuzz over the kinds table -------------------------------------

NONZERO = rational_strategy.filter(bool)


@st.composite
def tensor_entries(draw, shape):
    """Canonical entries: distinct in-range indices in order, nonzero
    coefficients in lowest terms."""
    cells = list(product(*map(range, shape)))
    idx = draw(st.lists(st.sampled_from(cells), unique=True, max_size=4)) if cells else []
    return [[*i, str(draw(NONZERO))] for i in sorted(idx)]


def _field_document(draw, f, values):
    """The document value of field `f`; `values` holds the decoded fields
    before it, as the loader sees them."""
    if f.codec is DIM:
        return draw(st.integers(0, 3))
    if f.codec is LABELS:
        return draw(st.none() | st.just([f"x{i}" for i in range(values["dim"])]))
    if f.codec is RATIONALS:
        return [str(q) for q in draw(st.lists(rational_strategy, unique=True, max_size=3))]
    if f.codec is OPERATORS:
        return draw(st.lists(tensor_entries(f.bounds(values)), max_size=2))
    if f.codec.embeds:
        return draw(documents(f.codec.embeds))
    return draw(tensor_entries(f.bounds(values)))


def _generated(f) -> bool:
    """Whether `_field_document` knows the codec of field `f`."""
    return f.codec in (DIM, LABELS, RATIONALS, OPERATORS) or f.codec.embeds or f.codec.tensor


@st.composite
def documents(draw, kind):
    """A random canonical document of `kind` as a dict in key order."""
    doc = {"kind": kind.name, "version": 1}
    values = {}
    if kind.base is not None:
        base_kind, attribute = kind.base
        base = draw(documents(base_kind))
        doc.update((k, v) for k, v in base.items() if k not in ("kind", "version"))
        values[attribute] = loads(json.dumps(base))
    for f in kind.own:
        doc[f.key] = _field_document(draw, f, values)
        values[f.key] = loads(json.dumps(doc[f.key])) if f.codec.embeds else doc[f.key]
    return {k: v for k, v in doc.items() if v is not None}


COVERED = sorted(name for name, kind in KINDS.items() if all(map(_generated, kind.fields)))


def test_fuzz_covers_every_kind():
    assert set(COVERED) == set(KINDS)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COVERED).flatmap(lambda name: documents(KINDS[name])))
def test_load_then_dump_is_the_identity_on_canonical_documents(doc):
    text = reference_render(doc) + "\n"
    assert dumps(loads(text)) == text


# --- the kinds table -------------------------------------------------------

def _samples():
    """One structure per kind, big enough that every tensor has a site
    with distinct skew/alternating indices."""
    docs = {name: load(CATALOG_DIR / f"{name}.json") for name in (
        "solv4", "solv4-rb-zero", "aff1-adjoint-rep", "sl2-adjoint-rb2-tri",
        "aff1-adjoint-2term-idhom", "descent-sl2-adjoint-cm-tri",
        "sl2-adjoint-cm-tri", "aff1-ideal-cm-neg-prelie", "aff1-rb-search")}
    objs = list(docs.values()) + [docs["sl2-adjoint-rb2-tri"].linf,
                                  docs["sl2-adjoint-cm-tri"].base,
                                  prelie_from_rb(catalog.RB_ALGEBRAS["sl2-rb-tri"])]
    return {kind_of(obj): obj for obj in objs}


SAMPLES = _samples()
TENSOR_FIELDS = [(kind.name, f.key) for kind in KINDS.values()
                 for f in kind.fields if f.codec.tensor]


def test_samples_cover_every_kind():
    assert set(SAMPLES) == set(KINDS)


@pytest.mark.parametrize("kind, key", TENSOR_FIELDS)
def test_mutate_sites_follow_the_kinds_table(kind, key):
    obj = SAMPLES[kind]
    field = next(f for f in KINDS[kind].fields if f.key == key)
    tensor, flag = get_at(obj, field.path), field.flag
    # the sample's map has the shape the loader gives it, and `bounds` reads
    # it in document order, an action's element first
    assert tensor.shape == get_at(loads(dumps(obj)), field.path).shape
    shape = field.codec.bounds(tensor)
    assert shape == (tensor.shape if field.codec is TENSOR
                     else (tensor.dim_a, tensor.dim_out, tensor.dim_b))
    args = tuple(range(len(shape) - 1)) if flag else (0,) * (len(shape) - 1)
    idx = (0,) + args
    assert getattr(tensor, "flag", False) == flag  # the sample agrees with its field
    delta = Fraction(3, 2)
    mutant = mutate(obj, (key,) + idx, delta)
    assert mutant != obj
    assert mutate(mutant, (key,) + idx, -delta) == obj
    assert loads(dumps(mutant)) == mutant
    bad = [idx[:-1] + (shape[-1],), idx[:-1] + (-1,), idx[:-1], idx + (0,)]
    if flag:
        bad.append((0,) + (args[0],) * 2 + args[2:])  # skew diagonal / repeated index
    for site in bad:
        with pytest.raises(BadSite):
            mutate(obj, (key,) + site, delta)


def test_two_term_maps_sit_at_their_document_keys():
    """Each map of a two-term object is the field its document key names,
    under `linf` when it is a field of the underlying structure."""
    for name in ("2term", "rb-2term", "rb-hom"):
        for f in KINDS[name].fields:
            if f.codec.tensor:
                assert f.path in (f.key, f"linf.{f.key}"), (name, f.key, f.path)


def test_search_results_and_non_tensor_keys_refuse_every_site():
    """A kind without a tensor field (search-results) takes no site, and no
    kind takes one at a key that is not a tensor."""
    for kind in KINDS.values():
        tensors = any(f.codec.tensor for f in kind.fields)
        for f in kind.fields:
            if not f.codec.tensor:
                with pytest.raises(BadSite, match="^unknown tensor" if tensors
                                   else "^cannot mutate a SearchResults$"):
                    mutate(SAMPLES[kind.name], (f.key, 0, 0, 0), 1)
    assert [k.name for k in KINDS.values()
            if not any(f.codec.tensor for f in k.fields)] == ["search-results"]


def _index_tuples(bounds: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Index tuples at and just past each bound, of the right length and one
    index short or long."""
    right = set(product(*({-1, 0, b - 1, b} for b in bounds)))
    return right | {(0,) * (len(bounds) + k) for k in (-1, 1)} | {bounds[:-1], bounds + (0,)}


@pytest.mark.parametrize("kind, key", TENSOR_FIELDS)
def test_mutate_refuses_a_site_exactly_where_an_entry_fails_to_load(kind, key):
    """`mutate` refuses an index tuple as out of range or of the wrong
    length exactly when the document holding one entry there fails to load.
    The tuples come from the sample's stored maps, not from the table."""
    obj, doc = SAMPLES[kind], to_document(SAMPLES[kind])
    field = next(f for f in KINDS[kind].fields if f.key == key)
    tensor = get_at(obj, field.path)
    # an action (row; element, col) is written element first
    bounds = (tensor.shape if field.codec is TENSOR
              else (tensor.dim_a, tensor.dim_out, tensor.dim_b))
    refused = loaded = 0
    for idx in sorted(_index_tuples(bounds)):
        try:
            mutate(obj, (key, *idx), 1)
            takes = True
        except BadSite as e:
            takes = "pinned to zero" in str(e)  # a skew diagonal is in range
        try:
            loads(json.dumps({**doc, key: [[*idx, "1"]]}))
            loads_ok = True
        except ParseError:
            loads_ok = False
        assert takes == loads_ok, idx
        refused += not takes
        loaded += loads_ok
    assert refused and loaded


def test_format_doc_lists_the_keys_of_every_kind():
    text = (CATALOG_DIR.parent / "docs" / "FORMAT.md").read_text(encoding="utf-8")
    table = text.split("## Kinds and their fields")[1].split("| kind ")[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines()[2:]:
        kind, fields = row.strip("|").split("|")
        # keys are the backquoted names outside parentheses
        documented[kind.strip().strip("`")] = re.findall(
            r"`([^`]+)`", re.sub(r"\([^)]*\)", "", fields))
    assert documented == {k.name: [f.key for f in k.fields] for k in KINDS.values()}
