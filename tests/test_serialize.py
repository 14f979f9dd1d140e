import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CATALOG_DIR, reference_render
from rblie import catalog
from rblie.errors import (BadRational, BadSite, DuplicateEntry, ParseError,
                          UnknownKind, VersionMismatch)
from rblie.liealg import LieAlgebra, prelie_from_rb
from rblie.search import SearchSpec, enumerate_rb_operators, mutate
from rblie.serialize import (DIM, KINDS, LABELS, OPERATORS, RATIONALS, _render,
                             SearchResults, dumps, get_at, kind_of, load, loads,
                             parse_rational, save, to_document)
from rblie.tensors import BilinearMap, vec


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


def test_load_save_byte_identity_on_catalog_files():
    files = sorted(CATALOG_DIR.glob("*.json"))
    assert len(files) >= 30
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert dumps(loads(text)) == text, path.name


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
    with pytest.raises(ParseError):
        loads('{"kind": "lie", "version": 1, "dim": 2, '
              '"bracket": [[0, 1, "1"]]}')


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
    """A list of scalars renders on one line, byte for byte as its items
    dumped one at a time and joined with ", ", at any indent."""
    assert _render(values) == _joined(values)
    assert _render({"k": values}, 4) == '{\n      "k": ' + _joined(values) + "\n    }"


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


def test_action_elements_without_entries_share_one_map():
    """An action builds a map only for the elements that have entries: a
    crossed-lie document with dim0 10^5 and one action entry holds one
    shared zero map for the other elements, and dumps back unchanged."""
    text = ('{\n  "kind": "crossed-lie",\n  "version": 1,\n  "dim0": 100000,\n'
            '  "dim1": 1,\n  "bracket0": [],\n  "bracket1": [],\n  "d": [],\n'
            '  "rho": [\n    [7, 0, 0, "1"]\n  ]\n}\n')
    cm = loads(text)
    assert len(cm.rho) == 100000 and cm.rho[7].cells() == {(0, 0): 1}
    assert len({id(m) for x, m in enumerate(cm.rho) if x != 7}) == 1
    assert cm.rho[0].is_zero()
    assert dumps(cm) == text


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
    text = _render(doc) + "\n"
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
TENSOR_FIELDS = [(kind.name, f.key) for kind in KINDS.values() if kind.mutable
                 for f in kind.fields if f.codec.tensor]


def test_samples_cover_every_kind():
    assert set(SAMPLES) == set(KINDS)


@pytest.mark.parametrize("kind, key", TENSOR_FIELDS)
def test_mutate_sites_follow_the_kinds_table(kind, key):
    obj = SAMPLES[kind]
    field = next(f for f in KINDS[kind].fields if f.key == key)
    codec, tensor = field.codec, get_at(obj, field.path)
    shape, flag = codec.shape(tensor), field.flag
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


def test_representation_and_search_results_refuse_every_site():
    for kind in KINDS.values():
        if not kind.mutable:
            for f in kind.fields:
                with pytest.raises(BadSite):
                    mutate(SAMPLES[kind.name], (f.key, 0, 0, 0), 1)


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
