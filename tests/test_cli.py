import argparse
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
from rblie.liealg import prelie_from_rb
from rblie.serialize import KIND_OF_CLASS, KINDS, dumps, load, loads


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
    """The ids of the condition-id table, other than the `*` patterns, are
    exactly the ids of the check families that `structure_checks` gives
    the catalog and the structure and homomorphism mutants, with their
    constituent prefixes (the `*` patterns of the constituent row)
    stripped.  The ids are read from the families without making a check,
    so a family with no index tuples is covered too."""
    rows = documented_condition_ids()
    exact = {i for ids, _ in rows for i in ids if "*" not in i}
    assert {"h1", "h2", "h3", "rbh2", "coh", "cohm-vs-rbh3"} <= exact

    [constituents] = [ids for ids, what in rows if "constituent" in what]
    prefix = re.compile("^(?:" + "|".join(
        re.escape(p.removesuffix("*")).replace("N", r"\d+") for p in constituents) + ")+")
    objs = [load(p) for p in sorted(CATALOG_DIR.glob("*.json"))]
    objs += [m for _, m in structure_mutants()] + [m for _, m in hom_mutants()]
    ids = {fam[0] for obj in objs for fam in structure_checks(obj).families}
    assert any(prefix.match(cond) for cond in ids)
    assert sorted({prefix.sub("", cond) for cond in ids} ^ exact) == []


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


def test_output_to_the_null_device_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "mutate", str(CATALOG_DIR / "sl2.json"),
                           "--site", "bracket,0,0,1", "--delta", "1", "-o", os.devnull)
    assert (code, out) == (0, "")


def test_mutate_over_its_own_input_gives_the_mutant_verdict(capsys, tmp_path):
    """`mutate X -o X` loads X before it writes, so X then holds the
    mutant, here shorter than the original, and `verify X` gives the
    verdict of the mutant written to a fresh file."""
    path, fresh = tmp_path / "sl2.json", tmp_path / "fresh.json"
    path.write_bytes((CATALOG_DIR / "sl2.json").read_bytes())
    site = ("--site", "bracket,0,0,2", "--delta", "2")
    assert run_cli(capsys, "mutate", str(path), *site, "-o", str(fresh))[0] == 0
    assert run_cli(capsys, "mutate", str(path), *site, "-o", str(path))[0] == 0
    assert path.read_bytes() == fresh.read_bytes()
    assert len(path.read_bytes()) < len((CATALOG_DIR / "sl2.json").read_bytes())
    verdict = run_cli(capsys, "verify", str(path))
    assert verdict[0] == 1 and verdict == run_cli(capsys, "verify", str(fresh))


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
    "not-an-object": b"[]",
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
def corrupted_documents(draw, docs=CATALOG_DOCS) -> bytes:
    doc = docs[draw(st.sampled_from(sorted(docs)))]
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


# a pre-lie document from each rb-lie one, as the catalog ships none
PRELIE_DOCS = {f"{name[:-5]}-prelie": json.loads(dumps(prelie_from_rb(load(CATALOG_DIR / name))))
               for name, doc in CATALOG_DOCS.items() if doc["kind"] == "rb-lie"}
OF_KIND = {kind: {name: doc for name, doc in {**CATALOG_DOCS, **PRELIE_DOCS}.items()
                  if doc["kind"] == kind} for kind in KINDS}
CONSTRUCT_INPUT = {name: KIND_OF_CLASS[cls].name for name, (cls, _) in cli._CONSTRUCTIONS.items()}
SMALL_LIE = {name: doc for name, doc in OF_KIND["lie"].items() if doc["dim"] <= 3}


@st.composite
def command_calls(draw) -> list[tuple]:
    """The calls of one fuzz case, each an argv with its documents as bytes:
    a construction on a corrupted document of its input kind, `compose` of
    a corrupted `rb-hom` with a catalog one in both orders, `mutate` of a
    catalog document at a random site by a random delta, or `search-rb` on
    a corrupted `lie` document of dim at most 3."""
    command = draw(st.sampled_from(("construct", "compose", "mutate", "search-rb")))
    if command == "construct":
        name = draw(st.sampled_from(sorted(CONSTRUCT_INPUT)))
        return [(command, name, draw(corrupted_documents(OF_KIND[CONSTRUCT_INPUT[name]])))]
    if command == "compose":  # the catalog one is often the corrupted one's own original
        homs = OF_KIND["rb-hom"]
        name = draw(st.sampled_from(sorted(homs)))
        bad = draw(corrupted_documents({name: homs[name]}))
        good = json.dumps(homs[draw(st.just(name) | st.sampled_from(sorted(homs)))]).encode()
        return [(command, bad, good), (command, good, bad)]
    if command == "mutate":
        doc = CATALOG_DOCS[draw(st.sampled_from(sorted(CATALOG_DOCS)))]
        key = draw(st.sampled_from([*(k for k, v in doc.items() if isinstance(v, list)), "x"]))
        idx = draw(st.lists(st.integers(-1, 2), min_size=2, max_size=4))
        delta = draw(st.sampled_from(["1", "-2/3", "0", "7/1", "x", "1/0", ""]))
        return [(command, json.dumps(doc).encode(), f"--site={','.join(map(str, [key, *idx]))}",
                 f"--delta={delta}")]
    return [(command, draw(corrupted_documents(SMALL_LIE)), "--budget", "20000")]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_calls())
def test_every_command_exit_code_on_corrupted_input(calls):
    """Any call of any command gives exit 0, 1 or 2 and never lets an
    exception escape."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in calls:
            args = []
            for pos, arg in enumerate(argv):
                if isinstance(arg, bytes):
                    path = Path(tmp) / f"doc{pos}.json"
                    path.write_bytes(arg)
                    arg = str(path)
                args.append(arg)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(args)
            assert code in (0, 1, 2), argv


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


def test_a_latin1_byte_exits_two_naming_the_utf8_error(capsys, tmp_path):
    text = (CATALOG_DIR / "sl2.json").read_text(encoding="utf-8")
    path = tmp_path / "sl2.json"
    path.write_bytes(text.replace('"e"', '"\xe9"').encode("latin-1"))
    assert run_cli(capsys, "verify", str(path)) == (
        2, "", "error: document is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in "
               "position 60: invalid continuation byte\n")


def test_label_count_other_than_the_dimension_exits_two(capsys, tmp_path):
    doc = json.loads((CATALOG_DIR / "sl2.json").read_text())
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps({**doc, "basis": doc["basis"][:-1]}))
    assert run_cli(capsys, "verify", str(path)) == (
        2, "", "error: label count does not match dimension\n")


# a dimension whose checks (lie) or whose action tuple (crossed-lie) outgrow
# the address space of the test's child process
HUGE = {
    "lie": {"kind": "lie", "version": 1, "dim": 10 ** 9, "bracket": [[2, 0, 1, "1"]]},
    "crossed-lie": {"kind": "crossed-lie", "version": 1, "dim0": 10 ** 9, "dim1": 1,
                    "bracket0": [], "bracket1": [], "d": [], "rho": []},
}
CAPPED_VERIFY = ("import resource, sys; "
                 "resource.setrlimit(resource.RLIMIT_AS, (100 << 20,) * 2); "
                 "from rblie.cli import main; sys.exit(main(['verify', sys.argv[1]]))")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("doc", HUGE.values(), ids=HUGE.keys())
def test_out_of_memory_exits_two_without_traceback(tmp_path, doc):
    """In a child process whose address space is capped at 100 MB, so the
    allocation fails rather than the host running short."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(CATALOG_DIR.parent / "src")}
    done = subprocess.run([sys.executable, "-c", CAPPED_VERIFY, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


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


USAGE_CASES = json.loads((CATALOG_DIR.parent / "tests" / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES, ids=[" ".join(c["argv"]) for c in USAGE_CASES])
def test_usage_cases_match_the_pinned_outputs(capsys, monkeypatch, case):
    """Exit code, stdout and stderr of malformed, abbreviated and help argv
    (no command, an unknown one, extra arguments, `-h` at both levels,
    `--` in both places, `--delta -1/2`, a bad `--budget` or construct
    name) as pinned in tests/cli_usage.json, run from the repository root
    at a help width of 80 columns."""
    monkeypatch.chdir(CATALOG_DIR.parent)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv", [
    ["verify", "catalog/aff1-rb-shift.json"],
    ["roundtrip", "catalog/aff1-adjoint-rb2-shift.json"],
    ["search-rb", "catalog/aff1.json", "--coeffs=-1,0,1"],
    ["mutate", "catalog/aff1.json", "--site", "bracket,0,0,1", "--delta", "1"],
])
def test_a_command_parses_its_argv_once(capsys, monkeypatch, argv):
    """`main` hands argv to the parser of the command it names: one
    argparse pass per command."""
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.chdir(CATALOG_DIR.parent)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == [f"rblie {argv[0]}"]


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


@pytest.mark.parametrize("construction, source, site, condition", [
    ("prelie", "aff1-rb-shift", "r,0,0", "rota-baxter"),
    ("derived-cm", "heis3-center-cm", "t0,0,0", "g0-rota-baxter"),
    ("derived-cm", "heis3-center-cm", "t1,0,0", "d-rb"),
    ("crossed-to-strict", "heis3-center-cm", "t0,0,0", "g0-rota-baxter"),
    ("rb-to-prelie-cm", "heis3-center-cm", "t0,0,0", "g0-rota-baxter"),
    ("cm-semidirect", "heis3-center-cm", "t0,0,0", "g0-rota-baxter"),
], ids=["prelie", "derived-cm-t0", "derived-cm-t1", "crossed-to-strict",
        "rb-to-prelie-cm", "cm-semidirect"])
def test_construct_rejects_invalid_input(capsys, tmp_path, construction, source, site,
                                         condition):
    """A construction never sees an unverified input: `construct` prints
    exactly what `verify` prints, exits 1 and writes no document."""
    bad, out_path = tmp_path / "bad.json", tmp_path / "out.json"
    run_cli(capsys, "mutate", str(CATALOG_DIR / f"{source}.json"),
            "--site", site, "--delta", "1", "-o", str(bad))
    code, out, _ = run_cli(capsys, "construct", construction, str(bad), "-o", str(out_path))
    assert code == 1
    assert any(line.startswith(f"VIOLATION {condition} ") for line in out.splitlines())
    assert out == run_cli(capsys, "verify", str(bad))[1]
    assert not out_path.exists()


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


def test_search_rb_wrong_kind_exits_two(capsys):
    code, out, err = run_cli(capsys, "search-rb", str(CATALOG_DIR / "aff1-rb-shift.json"))
    assert (code, out, err) == (2, "", "error: search-rb expects a lie document\n")


def test_search_rb_on_an_invalid_algebra_reports_its_violations(capsys, tmp_path):
    """A `lie` document that fails verification is reported, as `verify`
    reports it, and searched for no operator."""
    bad = tmp_path / "bad.json"
    main(["mutate", str(CATALOG_DIR / "sl2.json"), "--site", "bracket,0,0,1", "--delta", "1",
          "-o", str(bad)])
    capsys.readouterr()
    expected = run_cli(capsys, "verify", str(bad))
    out_path = tmp_path / "found.json"
    code, out, err = run_cli(capsys, "search-rb", str(bad), "-o", str(out_path))
    assert (code, out, err) == expected
    assert code == 1 and out.startswith("VIOLATION ")
    assert not out_path.exists()


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


def test_mutate_names_the_declared_bounds_of_an_empty_action(capsys, tmp_path):
    """A crossed module acting by dim0 = 0 stores no matrix of rho, so the
    bounds in the message are the declared 0x2x2, not read off the empty
    tuple."""
    path = tmp_path / "empty-action.json"
    path.write_text(json.dumps({"kind": "crossed-lie", "version": 1, "dim0": 0, "dim1": 2,
                                "bracket0": [], "bracket1": [], "d": [], "rho": []}))
    code, out, err = run_cli(capsys, "mutate", str(path), "--site", "rho,0,1,1", "--delta", "1")
    assert (code, out) == (2, "")
    assert err == "error: index (0, 1, 1) outside the 0x2x2 tensor rho\n"
    code, out, err = run_cli(capsys, "mutate", str(path), "--site", "d,0,1", "--delta", "1")
    assert code == 2 and err == "error: index (0, 1) outside the 0x2 tensor d\n"


def test_compose_cli(capsys, tmp_path):
    ident = str(CATALOG_DIR / "id-aff1-adjoint-rb2-shift.json")
    out_path = tmp_path / "composed.json"
    code, _, _ = run_cli(capsys, "compose", ident, ident, "-o", str(out_path))
    assert code == 0
    assert load(out_path) == load(ident)


@pytest.mark.parametrize("f, g", [("sl2", "sl2"), ("sl2", "id-aff1-adjoint-rb2-shift"),
                                  ("id-aff1-adjoint-rb2-shift", "sl2-adjoint-rb2-tri")])
def test_compose_wrong_kind_exits_two(capsys, f, g):
    code, out, err = run_cli(capsys, "compose", str(CATALOG_DIR / f"{f}.json"),
                             str(CATALOG_DIR / f"{g}.json"))
    assert (code, out, err) == (2, "", "error: compose expects two rb-hom documents\n")


def test_compose_mismatched_exits_two(capsys):
    code, _, err = run_cli(capsys, "compose",
                           str(CATALOG_DIR / "id-aff1-adjoint-rb2-shift.json"),
                           str(CATALOG_DIR / "id-heis3-center-cm-strict.json"))
    assert code == 2 and "compose" in err
