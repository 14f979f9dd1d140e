import argparse
import ast
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import CATALOG_DIR, hom_mutants, structure_mutants
from rblie import cli
from rblie.cli import main, structure_checks, verify_structure
from rblie.serialize import load, loads


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_valid_file_exits_zero(capsys):
    code, out, err = run_cli(capsys, "verify", str(CATALOG_DIR / "aff1-rb-shift.json"))
    assert code == 0
    assert out == ""
    assert "0 violations" in err


def test_verify_every_catalog_file_passes(capsys):
    for path in sorted(CATALOG_DIR.glob("*.json")):
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and out == "", path.name


def test_every_residual_coordinate_is_exact():
    """Every residual of every check on the catalog documents and on the
    condition mutants is an int or a Fraction, so a stray division can never
    print a float into a VIOLATION line."""
    objs = [load(p) for p in sorted(CATALOG_DIR.glob("*.json"))]
    objs += [mutant for _, mutant in structure_mutants()]
    inexact, nonzero = [], 0
    for obj in objs:
        for cond, idx, residual in structure_checks(obj):
            r = residual()
            nonzero += any(r)
            if any(type(x) not in (int, Fraction) for x in r):
                inexact.append((cond, idx, r))
    assert nonzero and not inexact, inexact[:3]


def documented_condition_ids() -> list[tuple[list[str], str]]:
    """The rows of the condition-id table of docs/FORMAT.md: the ids of
    each row, with a range such as `h1`..`h3` expanded, and its text."""
    text = (CATALOG_DIR.parent / "docs" / "FORMAT.md").read_text(encoding="utf-8")
    table = text.split("### Condition ids")[1].split("| --- | --- |\n")[1].split("\n\n")[0]
    rows = []
    for row in table.splitlines():
        ids, what = row.strip("|").split("|", 1)
        ids = re.sub(r"`([a-z-]+)(\d+)`\.\.`\1(\d+)`", lambda m: ", ".join(
            f"`{m[1]}{n}`" for n in range(int(m[2]), int(m[3]) + 1)), ids)
        rows.append((re.findall(r"`([^`]+)`", ids), what))
    return rows


def test_format_doc_condition_ids_match_the_code():
    """Every id of the condition-id table, other than the `*` patterns, is
    a string literal of the package, so a removed id cannot keep its row;
    and every id that `structure_checks` emits on the catalog and on the
    structure and homomorphism mutants, with its constituent prefixes
    (the `*` patterns of the constituent row) stripped, has a row."""
    rows = documented_condition_ids()
    exact = {i for ids, _ in rows for i in ids if "*" not in i}
    assert {"h1", "h2", "h3", "rbh2", "coh", "cohm-vs-rbh3"} <= exact
    literals = {node.value for path in (CATALOG_DIR.parent / "src" / "rblie").glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(exact - literals) == []

    [constituents] = [ids for ids, what in rows if "constituent" in what]
    prefix = re.compile("^(?:" + "|".join(
        re.escape(p.removesuffix("*")).replace("N", r"\d+") for p in constituents) + ")+")
    objs = [load(p) for p in sorted(CATALOG_DIR.glob("*.json"))]
    objs += [m for _, m in structure_mutants()] + [m for _, m in hom_mutants()]
    emitted = {cond for obj in objs for cond, _, _ in structure_checks(obj)}
    assert any(prefix.match(cond) for cond in emitted)
    assert sorted({prefix.sub("", cond) for cond in emitted} - exact) == []


def test_verify_mutated_file_exits_one_with_violation_lines(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    code, _, _ = run_cli(capsys, "mutate", str(CATALOG_DIR / "sl2.json"),
                         "--site", "bracket,0,0,1", "--delta", "1",
                         "-o", str(bad))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(bad))
    assert code == 1
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("VIOLATION ") for line in lines)
    assert lines == sorted(lines)
    assert any(line.startswith("VIOLATION jacobi ") for line in lines)


MALFORMED = {
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b'\xff\xfe{"kind": "lie", "version": 1}',
    "version-true": b'{"kind": "lie", "version": true, "dim": 1, "bracket": []}',
    "kind-unhashable": b'{"kind": [], "version": 1}',
    "huge-integer": b'{"kind": "lie", "version": 1, "dim": ' + b"1" * 5000 + b"}",
    "huge-coefficient": (b'{"kind": "lie", "version": 1, "dim": 2, '
                         b'"bracket": [[0, 0, 1, "' + b"1" * 5000 + b'"]]}'),
    "coefficient-newline": (b'{"kind": "lie", "version": 1, "dim": 2, '
                            b'"bracket": [[0, 0, 1, "1\\n"]]}'),
    "huge-dimension": b'{"kind": "lie", "version": 1, "dim": 1' + b"0" * 30 + b', "bracket": []}',
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_two_without_traceback(capsys, tmp_path, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == "" and err.startswith("error:")


CATALOG_DOCS = {path.name: json.loads(path.read_text())
                for path in sorted(CATALOG_DIR.glob("*.json"))}
# Replacement leaves: every JSON type, small dimensions (so a document
# stays cheap to verify), and literals that are not valid rationals.
LEAVES = st.sampled_from([None, True, *range(-2, 7), 1.5, "x", "1/0", "-3", [], {}])


def leaf_paths(node, at=()):
    """The paths to the scalar leaves of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [at]
    return [p for key, child in items for p in leaf_paths(child, at + (key,))]


def replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = replaced(doc[path[0]], path[1:], value)
    return copy


@st.composite
def corrupted_documents(draw) -> bytes:
    doc = CATALOG_DOCS[draw(st.sampled_from(sorted(CATALOG_DOCS)))]
    paths = leaf_paths(doc)
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
        doc = replaced(doc, path, draw(LEAVES))
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=200), corrupted_documents()))
def test_verify_and_roundtrip_exit_codes_on_arbitrary_input(data):
    """Any input gives exit 0, 1 or 2 and never lets an exception escape."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        for command in ("verify", "roundtrip"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, str(path)])
            assert code in (0, 1, 2), (command, data[:200])


def test_hom_with_invalid_target_reports_violations(capsys, tmp_path):
    # The target breaks the second equation of condition `a`, which is all
    # that separates the two forms of the diagram bracket [f3(x), f3(y)].
    doc = json.loads((CATALOG_DIR / "aff1-phi3-hom.json").read_text())
    doc["target"]["l1"] = [[0, 0, "1"]]
    doc["target"]["l2_01"] = [[0, 0, 0, "1"]]
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "VIOLATION tgt-a (1,0,0) (2)" in out.splitlines()


def empty_bottom(kind, dim1, **tensors):
    """A document of `kind` with dim0 = 0: every tensor empty unless given."""
    fields = {"crossed-lie": ("bracket0", "bracket1", "d", "rho"),
              "crossed-rb": ("bracket0", "bracket1", "d", "rho", "t0", "t1"),
              "crossed-prelie": ("mult0", "mult1", "delta", "l_act", "r_act"),
              "rb-2term": ("l1", "l2_00", "l2_01", "l3", "r0", "r1", "r2")}[kind]
    return {"kind": kind, "version": 1, "dim0": 0, "dim1": dim1,
            **{name: tensors.get(name, []) for name in fields}}


# (document, command before the file, exit code, conditions of the lines)
EMPTY_BOTTOM = {
    "crossed-lie": (empty_bottom("crossed-lie", 2), ("verify",), 0, set()),
    "crossed-rb": (empty_bottom("crossed-rb", 1), ("verify",), 0, set()),
    "crossed-prelie": (empty_bottom("crossed-prelie", 2), ("verify",), 0, set()),
    "rb-2term-strict-to-crossed": (empty_bottom("rb-2term", 2),
                                   ("construct", "strict-to-crossed"), 0, set()),
    # the zero action cannot satisfy Peiffer's identity d(u).v = [u, v]
    "crossed-lie-nonabelian": (empty_bottom("crossed-lie", 2, bracket1=[[0, 0, 1, "1"],
                                                                        [0, 1, 0, "-1"]]),
                               ("verify",), 1, {"peiffer2"}),
}


@pytest.mark.parametrize("case", EMPTY_BOTTOM.values(), ids=EMPTY_BOTTOM.keys())
def test_empty_bottom_term_acts_by_zero(capsys, tmp_path, case):
    doc, command, expected, conditions = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, err.startswith("error:")) == (expected, False)
    if command[0] == "verify":
        assert {line.split()[1] for line in out.splitlines()} == conditions
    else:
        assert loads(out).base.g1.dim == 2


def empty_top(stem, **dims):
    """The catalog document `stem` with its top term or module cut to
    dimension 0: the dimensions `dims` replaced and the tensors that
    read that term emptied."""
    doc = json.loads((CATALOG_DIR / f"{stem}.json").read_text())
    top = {"crossed-rb": ("bracket1", "d", "rho", "t1"),
           "crossed-prelie": ("mult1", "delta", "l_act", "r_act"),
           "representation": ("rho", "cal_r")}[doc["kind"]]
    return {**doc, **dims, **{name: [] for name in top}}


# (document, construction, fields of the output document)
EMPTY_TOP = {
    f"crossed-rb-{name}": (empty_top("sl2-adjoint-cm-tri", dim1=0), name, fields)
    for name, fields in [
        ("rb-to-prelie-cm", {"kind": "crossed-prelie", "dim0": 3, "dim1": 0}),
        ("derived-cm", {"kind": "crossed-lie", "dim0": 3, "dim1": 0}),
        ("cm-semidirect", {"kind": "rb-lie", "dim": 3}),
        ("crossed-to-strict", {"kind": "rb-2term", "dim0": 3, "dim1": 0})]}
EMPTY_TOP.update({
    "crossed-prelie-prelie-to-lie-cm": (empty_top("aff1-ideal-cm-neg-prelie", dim1=0),
                                        "prelie-to-lie-cm",
                                        {"kind": "crossed-lie", "dim0": 2, "dim1": 0}),
    "representation-dual": (empty_top("aff1-adjoint-rep", dim_v=0), "dual",
                            {"kind": "representation", "dim_v": 0}),
    "representation-semidirect": (empty_top("aff1-adjoint-rep", dim_v=0), "semidirect",
                                  {"kind": "rb-lie", "dim": 2}),
})


@pytest.mark.parametrize("case", EMPTY_TOP.values(), ids=EMPTY_TOP.keys())
def test_empty_top_term_through_every_construction(capsys, tmp_path, case):
    doc, name, fields = case
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "construct", name, str(path))
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert {key: got[key] for key in fields} == fields


def test_parse_error_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "lie",\n  "version": 1,\n  "dim"')
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: invalid document: Expecting ':' delimiter")
    assert "line 3 column 8" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-file.json")
    assert code == 2 and "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    """`main` builds its parser on the first call and reuses it: a usage
    error between two identical `verify` calls builds no further parser
    and changes neither call's output."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    bad = tmp_path / "bad.json"
    assert run_cli(capsys, "mutate", str(CATALOG_DIR / "sl2.json"), "--site",
                   "bracket,0,0,1", "--delta", "1", "-o", str(bad))[0] == 0
    first_build = len(built)
    first = run_cli(capsys, "verify", str(bad))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-option", str(bad)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    second = run_cli(capsys, "verify", str(bad))
    assert first == second and first[0] == 1 and first[1].startswith("VIOLATION ")
    assert first_build == 7 and len(built) == first_build  # rblie and its 6 commands


def test_module_entry_point_runs_once_per_process():
    """`python -m rblie.cli` is the one-shot entry: a clean document exits 0
    with its count on stderr, an unknown command exits 2 with usage."""
    src = CATALOG_DIR.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "rblie.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = run("verify", str(CATALOG_DIR / "sl2.json"))
    assert (ok.returncode, ok.stdout) == (0, "")
    assert re.fullmatch(r"checked \d+ conditions, 0 violations\n", ok.stderr)
    unknown = run("no-such-command")
    assert (unknown.returncode, unknown.stdout) == (2, "")
    assert unknown.stderr.startswith("usage: rblie ") and "invalid choice" in unknown.stderr


def test_construct_prelie(capsys):
    code, out, _ = run_cli(capsys, "construct", "prelie",
                           str(CATALOG_DIR / "aff1-rb-shift.json"))
    assert code == 0
    obj = loads(out)
    from rblie.liealg import PreLieAlgebra
    assert isinstance(obj, PreLieAlgebra)
    assert verify_structure(obj).ok


def test_construct_chain_through_files(capsys, tmp_path):
    rep = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "construct", "adjoint",
                         str(CATALOG_DIR / "aff1-rb-shift.json"), "-o", str(rep))
    assert code == 0
    dual = tmp_path / "dual.json"
    assert run_cli(capsys, "construct", "dual", str(rep), "-o", str(dual))[0] == 0
    assert run_cli(capsys, "verify", str(dual))[0] == 0
    dual2 = tmp_path / "dual2.json"
    assert run_cli(capsys, "construct", "dual", str(dual), "-o", str(dual2))[0] == 0
    assert load(dual2) == load(rep)  # involution on data
    sub = tmp_path / "sub.json"
    pre = tmp_path / "pre.json"
    assert run_cli(capsys, "construct", "prelie",
                   str(CATALOG_DIR / "aff1-rb-shift.json"), "-o", str(pre))[0] == 0
    assert run_cli(capsys, "construct", "subadjacent", str(pre), "-o", str(sub))[0] == 0
    assert run_cli(capsys, "verify", str(sub))[0] == 0
    semi = tmp_path / "semi.json"
    code, _, _ = run_cli(capsys, "construct", "semidirect", str(rep), "-o", str(semi))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(semi))
    assert code == 0
    from rblie.liealg import RotaBaxterLieAlgebra
    assert isinstance(load(semi), RotaBaxterLieAlgebra)
    assert load(semi).dim == 4


def test_construct_crossed_chain(capsys, tmp_path):
    strict = tmp_path / "strict.json"
    assert run_cli(capsys, "construct", "crossed-to-strict",
                   str(CATALOG_DIR / "heis3-center-cm.json"), "-o", str(strict))[0] == 0
    back = tmp_path / "back.json"
    assert run_cli(capsys, "construct", "strict-to-crossed",
                   str(strict), "-o", str(back))[0] == 0
    assert load(back) == load(CATALOG_DIR / "heis3-center-cm.json")
    prelie = tmp_path / "pm.json"
    assert run_cli(capsys, "construct", "rb-to-prelie-cm",
                   str(CATALOG_DIR / "sl2-adjoint-cm-tri.json"), "-o", str(prelie))[0] == 0
    lie_cm = tmp_path / "lie-cm.json"
    assert run_cli(capsys, "construct", "prelie-to-lie-cm",
                   str(prelie), "-o", str(lie_cm))[0] == 0
    derived = tmp_path / "derived.json"
    assert run_cli(capsys, "construct", "derived-cm",
                   str(CATALOG_DIR / "sl2-adjoint-cm-tri.json"), "-o", str(derived))[0] == 0
    assert load(derived) == load(lie_cm)
    semi = tmp_path / "semi.json"
    assert run_cli(capsys, "construct", "cm-semidirect",
                   str(CATALOG_DIR / "sl2-adjoint-cm-tri.json"), "-o", str(semi))[0] == 0
    assert run_cli(capsys, "verify", str(semi))[0] == 0


def test_construct_rejects_invalid_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    run_cli(capsys, "mutate", str(CATALOG_DIR / "aff1-rb-shift.json"),
            "--site", "r,0,0", "--delta", "1", "-o", str(bad))
    code, out, _ = run_cli(capsys, "construct", "prelie", str(bad))
    assert code == 1
    assert any(line.startswith("VIOLATION rota-baxter") for line in out.splitlines())


def test_construct_wrong_kind_exits_two(capsys):
    code, _, err = run_cli(capsys, "construct", "prelie",
                           str(CATALOG_DIR / "aff1.json"))
    assert code == 2 and "expects" in err


def test_roundtrip_structure_and_hom(capsys):
    for name in ("sl2-cocycle-rb2-nonstrict.json", "descent-heis3-center-cm.json"):
        code, out, _ = run_cli(capsys, "roundtrip", str(CATALOG_DIR / name))
        assert code == 0 and out == "", name


def test_roundtrip_wrong_kind_exits_two(capsys):
    code, _, err = run_cli(capsys, "roundtrip", str(CATALOG_DIR / "aff1.json"))
    assert code == 2


def test_search_rb_reproduces_golden_file(capsys, tmp_path):
    out_path = tmp_path / "search.json"
    code, _, err = run_cli(capsys, "search-rb", str(CATALOG_DIR / "aff1.json"),
                           "--coeffs=-1,0,1", "-o", str(out_path))
    assert code == 0
    assert "15 operators out of 81 candidates" in err
    golden = (CATALOG_DIR / "aff1-rb-search.json").read_text(encoding="utf-8")
    assert out_path.read_text(encoding="utf-8") == golden


def test_cli_output_matches_the_pinned_digests():
    """Exit code, stdout and stderr of every call of the differential set
    (`verify` and `roundtrip` of each catalog document, each `construct`
    on each document, `compose` of each ordered pair of `rb-hom`
    documents) hash to the digests pinned in tests/cli_digests.json, and
    the set has neither a missing nor an extra call.  Regenerate the file
    with scripts/pin_cli_digests.py."""
    path = CATALOG_DIR.parent / "scripts" / "pin_cli_digests.py"
    spec = importlib.util.spec_from_file_location("pin_cli_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pinned = json.loads(script.PINNED.read_text())
    got = script.digests()
    assert sorted(got) == sorted(pinned)
    assert [call for call in got if got[call] != pinned[call]] == []


def test_search_rb_coefficient_list_is_a_set(capsys, tmp_path):
    """Repeats, order and spelling of --coeffs do not reach the output."""
    out_path = tmp_path / "search.json"
    code, _, err = run_cli(capsys, "search-rb", str(CATALOG_DIR / "aff1.json"),
                           "--coeffs=1,0,-1,2/2,-3/3,0/5", "-o", str(out_path))
    assert code == 0
    assert err == "15 operators out of 81 candidates\n"
    golden = (CATALOG_DIR / "aff1-rb-search.json").read_text(encoding="utf-8")
    assert out_path.read_text(encoding="utf-8") == golden


def test_search_rb_budget_exceeded_exits_two(capsys):
    code, _, err = run_cli(capsys, "search-rb", str(CATALOG_DIR / "sl2.json"),
                           "--budget", "10")
    assert code == 2 and "budget" in err


def test_mutate_bad_site_exits_two(capsys):
    code, _, err = run_cli(capsys, "mutate", str(CATALOG_DIR / "aff1.json"),
                           "--site", "bracket,0,0,0", "--delta", "1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "mutate", str(CATALOG_DIR / "aff1.json"),
                           "--site", "bracket,0,x,1", "--delta", "1")
    assert code == 2 and "integers" in err
    code, _, err = run_cli(capsys, "mutate", str(CATALOG_DIR / "aff1.json"),
                           "--site", "bracket,0,0,1", "--delta", "1.5")
    assert code == 2 and "error:" in err


def test_compose_cli(capsys, tmp_path):
    ident = str(CATALOG_DIR / "id-aff1-adjoint-rb2-shift.json")
    out_path = tmp_path / "composed.json"
    code, _, _ = run_cli(capsys, "compose", ident, ident, "-o", str(out_path))
    assert code == 0
    assert load(out_path) == load(ident)


def test_compose_mismatched_exits_two(capsys):
    code, _, err = run_cli(capsys, "compose",
                           str(CATALOG_DIR / "id-aff1-adjoint-rb2-shift.json"),
                           str(CATALOG_DIR / "id-heis3-center-cm-strict.json"))
    assert code == 2 and "compose" in err
