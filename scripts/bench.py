#!/usr/bin/env python3
"""Time the scaling probes and catalog verification of this checkout.

    python3 scripts/bench.py out.json

Imports `rblie` from the `src/` next to this script and times, in-process,
each row below as the median and the minimum of REPEATS runs (on a shared
host the minimum is the steadier of the two).  The runs are made in
REPEATS rounds, each running every row once, so that a slow phase of a
shared host lands on one run of many rows rather than on every run of one:

* verification of the zero Lie algebra at dim 8, 12, 16 and 25;
* verification of the zero two-term structure (zero operator triple) at
  dim0 3 to 6 and dim1 2;
* verification of a nonzero `rb-2term` at dim0 8 and dim1 8: the adjoint
  two-term structure of the semidirect product of solv4 (zero operator)
  with its adjoint representation, built from `rblie.catalog` functions
  rather than shipped (6,198 checks; loaded afresh from its text on each
  run, so nothing cached on its tensors carries over);
* verification of its identity `rb-hom` (h3 and both endpoints' rb3 at
  dim0 8), also loaded afresh from its text on each run;
* verification of the same dim0-8 structure with l3 cell (0, 0, 1, 2) set
  to 1 without its alternating partners, loaded afresh on each run: it
  breaks `alt-l3`, so `jcoh` is evaluated at each of its 4,096 ordered
  quadruples rather than once per sorted one, and it must report 37
  violations of 6,198 checks;
* the exact inverse of a dim-8 unimodular basis change P, a unit lower
  times a unit upper triangular integer matrix: P is built afresh from
  its rows on each run and inverted by one `solve_exact` call per column,
  8 calls on one `LinearMap`; P P^-1 must be the identity exactly;
* `rblie verify catalog/solv4-module-cocycle-rb2.json`;
* `rblie roundtrip catalog/solv4-cocycle-phi2-hom.json`;
* `rblie verify` of every catalog document, one after the other;
* `loads` then `dumps` of every catalog document (texts read beforehand;
  each must come back byte for byte);
* `load` of every catalog document from its file, each after a
  `gc.collect()`, as `perfbench/run.py` runs every operation: the read
  path with cold caches.  The row times the loads only, not the
  collections, and each object must equal the one `loads` makes of the
  file's text;
* `loads` of a `crossed-lie` document declaring dim0 10^7 with one action
  entry (WIDE_ACTION), timed alone; it must then dump back byte for byte.
  An action stored as one matrix per acting basis vector would hold ten
  million of them;
* `dumps` of the heis3 search results (its 639 operators over {-1,0,1},
  found beforehand), whose text must load back and dump byte for byte;
* `rblie mutate` of each site of MUTATE_SITES, written to a file, then
  `rblie verify` of that file, all through `rblie.cli.main`; every
  mutant must verify with violations (exit 1);
* `rblie search-rb` of sl2, heis3 and solv4 over {-1,0,1}, which must find
  23, 639 and 5,427 operators, each within 60 s (with `--budget 43046721`,
  solv4's whole 3^16 grid);
* a masked search of sl3 over {-1,0,1}, by `enumerate_rb_operators`: R maps
  span(E21, E31, E32) into span(E12, E13, E23), 9 free entries.  sl3 is
  built here from 3x3 matrix units, in the basis (E12, E13, E21, E23, E31,
  E32, H1, H2).  It must find 795 operators within 60 s, the number a pass
  of the `rota-baxter` checks over all 3^9 matrices finds;
* start-up: fresh interpreters (this one's executable, `src/` on their
  path) running ``python -c "import rblie.cli"``, and ones running
  ``python -m rblie.cli verify catalog/abelian1.json`` (1 check).  A run
  of each row starts FRESH_RUNS interpreters one after another, so its
  time is FRESH_RUNS start-ups: one start-up is near 0.1 s, and the
  median of 3 single ones moves by a third on a shared host;
* a fresh interpreter running `rblie.cli.main(["verify", ...])` on a `lie`
  document with two bracket entries ([e0, e1] = e2) declaring dim 50,
  and one declaring dim 100 (20,875 and 166,750 checks): the time of one
  run and the child's peak RSS (its own VmHWM, so Linux only);
* the closed-form `count` of the checks of the same document declaring
  dim 200, which must be 200 + C(200,2) + C(200,3) = 1,333,500, with no
  check made.

The JSON written to the one argument holds every row (median, minimum, the
single runs, the number of checked conditions, of documents for the
`loads`/`dumps`, wide-action `loads` and cold `load` rows, of operators found for the
`search-rb` rows, or the count of the dim-200 row; the largest child peak
RSS of the fresh `verify` rows) and the line count of `src/`.  Each `search-rb` row and the
masked sl3 row also hold `walk`: the nodes of the search (its `_narrow`
calls, counted by wrapping `rblie.search._narrow`) and the operators
found, from one more run after the timed ones, untimed.  A probe that
fails verification, the flag-broken probe when it reports other counts,
an inverse that is not exact, or a search that finds another number of
operators or takes longer, exits nonzero.
Only the standard library is used, so the same file can be copied into an
older checkout to measure a before/after pair on one machine.  The zero
dim-25 row of a dense tensor kernel takes minutes, so this is not a CI
step.
"""

from __future__ import annotations

import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rblie import search as search_module  # noqa: E402
from rblie.catalog import LIE_ALGEBRAS, RB_ALGEBRAS, adjoint_rb_two_term  # noqa: E402
from rblie.cli import main as cli_main, structure_checks, verify_structure  # noqa: E402
from rblie.liealg import (LieAlgebra, adjoint_representation,  # noqa: E402
                          semidirect_product)
from rblie.search import SearchSpec, enumerate_rb_operators  # noqa: E402
from rblie.serialize import SearchResults, dumps, load, loads  # noqa: E402
from rblie.tensors import (LinearMap, from_cells, solve_exact, vbasis,  # noqa: E402
                           vec)
from rblie.twoterm import identity_rb_hom, two_term, with_operators  # noqa: E402
from rblie.value import replace  # noqa: E402

REPEATS = 3
CATALOG = ROOT / "catalog"
SEARCH_FOUND = {"sl2": 23, "heis3": 639, "solv4": 5427}  # operators over {-1,0,1}
SEARCH_BUDGET = 3 ** 16  # solv4's whole grid, above the default 10^7 candidates
SEARCH_LIMIT_S = 60
SL3_BASIS = ("E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2")
SL3_FOUND = 795  # masked sl3 operators over {-1,0,1}
FLAG_BROKEN_REPORT = (6198, 37)  # checks and violations of the flag-broken dim0-8 row
FRESH_RUNS = 5  # fresh interpreters per run of a start-up row
SPARSE_COUNT = (200, 1_333_500)  # dim of the counted sparse `lie` document, its checks
VERIFY_PEAK = ("import sys; from rblie.cli import main; code = main(['verify', sys.argv[1]]); "
               "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM'))); "
               "sys.exit(code)")
INVERSE_DIM = 8  # the basis change of the exact-inverse row
WIDE_ACTION = ('{\n  "kind": "crossed-lie",\n  "version": 1,\n  "dim0": 10000000,\n'
               '  "dim1": 1,\n  "bracket0": [],\n  "bracket1": [],\n  "d": [],\n'
               '  "rho": [\n    [7, 0, 0, "1"]\n  ]\n}\n')
MUTATE_SITES = (  # (catalog document, --site, --delta) of the mutate-then-verify row
    ("sl2", "bracket,0,0,1", "1"),
    ("aff1-rb-shift", "r,0,0", "1"),
    ("solv4-module-cocycle-rb2", "l2_00,0,0,1", "-1/2"),
    ("id-aff1-adjoint-rb2-shift", "phi3,0,1", "1"),
    ("sl2-adjoint-cm-tri", "t0,0,1", "2"),
    ("aff1-ideal-cm-neg-prelie", "mult0,0,0,1", "1"),
)


class Timed(NamedTuple):
    """What one run of a row returns: its count, the seconds timed and, for
    a fresh `verify`, the child's peak RSS in MB.  A row that times itself
    leaves out the work between its timed parts."""
    count: int
    seconds: float
    peak_rss_mb: float | None = None


def timed(fn):
    """The row that times the whole of `fn()`, which returns the count."""
    def row() -> Timed:
        start = perf_counter()
        count = fn()
        return Timed(count, perf_counter() - start)
    return row


def sl3() -> LieAlgebra:
    """sl3 from 3x3 matrix units, [X, Y] = XY - YX, in the basis SL3_BASIS
    with H1 = E11 - E22 and H2 = E22 - E33."""
    units = [(int(name[1]) - 1, int(name[2]) - 1) for name in SL3_BASIS[:6]]
    basis = [{u: 1} for u in units] + [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}]

    def commutator(x: dict, y: dict) -> dict:
        out: dict = {}
        for (a, b), s in x.items():
            for (c, d), t in y.items():
                if b == c:
                    out[a, d] = out.get((a, d), 0) + s * t
                if d == a:
                    out[c, b] = out.get((c, b), 0) - t * s
        return out

    def coords(m: dict):  # a traceless diag(p, q, r) is p H1 - r H2
        return vec(*(m.get(u, 0) for u in units), m.get((0, 0), 0), -m.get((2, 2), 0))

    return LieAlgebra.from_brackets(8, {(i, j): coords(commutator(basis[i], basis[j]))
                                        for i in range(8) for j in range(i + 1, 8)},
                                    labels=SL3_BASIS)


def sl3_search(alg: LieAlgebra) -> int:
    """The masked sl3 search; the number of operators found, which must be
    SL3_FOUND, found within SEARCH_LIMIT_S."""
    rows, cols = {"E12", "E13", "E23"}, {"E21", "E31", "E32"}
    mask = tuple(tuple(r in rows and c in cols for c in SL3_BASIS) for r in SL3_BASIS)
    start = perf_counter()
    found = len(enumerate_rb_operators(SearchSpec(alg, (-1, 0, 1), mask)))
    elapsed = perf_counter() - start
    if found != SL3_FOUND:
        raise SystemExit(f"masked sl3 search found {found} operators, not {SL3_FOUND}")
    if elapsed > SEARCH_LIMIT_S:
        raise SystemExit(f"masked sl3 search took {elapsed:.1f} s, over {SEARCH_LIMIT_S} s")
    return found


def unimodular_rows(n: int) -> list[list[int]]:
    """The rows of L U, with L unit lower and U unit upper triangular and
    +-1 entries off their diagonals: a dense integer matrix of determinant 1."""
    sign = [[1 if (r + 2 * c) % 3 else -1 for c in range(n)] for r in range(n)]
    lower = [[1 if r == c else sign[r][c] * (r > c) for c in range(n)] for r in range(n)]
    upper = [[1 if r == c else sign[c][r] * (r < c) for c in range(n)] for r in range(n)]
    return [[sum(lower[r][k] * upper[k][c] for k in range(n)) for c in range(n)]
            for r in range(n)]


def exact_inverse(rows_p: list[list[int]]) -> int:
    """Invert P, built from `rows_p`, by one `solve_exact` call per column;
    P P^-1 must be the identity exactly.  The number of solves."""
    p = LinearMap.from_rows(rows_p)
    n = p.rows
    inverse = LinearMap.from_columns([solve_exact(p, vbasis(n, i)) for i in range(n)], rows=n)
    if p.compose(inverse) != LinearMap.identity(n):
        raise SystemExit(f"the dim-{n} basis change times its computed inverse is not the identity")
    return n


def verify_object(obj) -> int:
    report = verify_structure(obj)
    if not report.ok:
        raise SystemExit(f"probe failed verification: {report.lines()[:3]}")
    return report.checked


def verify_flag_broken(obj) -> int:
    """Verify a structure that breaks a flag; it must fail with the pinned
    FLAG_BROKEN_REPORT counts."""
    report = verify_structure(obj)
    if (report.checked, len(report.violations)) != FLAG_BROKEN_REPORT:
        raise SystemExit(f"flag-broken probe gave {report.checked} checks and "
                         f"{len(report.violations)} violations, not {FLAG_BROKEN_REPORT}")
    return report.checked


def cli(*paths: Path, command: str = "verify") -> int:
    """Run `command` on each document; the summed checked counts."""
    checked = 0
    for path in paths:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli_main([command, str(path)])
        if code != 0:
            raise SystemExit(f"{command} {path.name} exited {code}")
        checked += int(err.getvalue().split()[1])
    return checked


def load_dump(texts: list[str]) -> int:
    """`loads` then `dumps` of each text; the number of documents."""
    for text in texts:
        if dumps(loads(text)) != text:
            raise SystemExit("a catalog document does not load and dump back byte for byte")
    return len(texts)


def cold_loads(paths: list[Path], objs: list) -> Timed:
    """`load` of each file after a `gc.collect()`, each object checked
    against `objs`; the number of documents and the seconds spent in
    `load` alone."""
    spent = 0.0
    for path, obj in zip(paths, objs):
        gc.collect()
        start = perf_counter()
        got = load(path)
        spent += perf_counter() - start
        if got != obj:
            raise SystemExit(f"{path.name} loads from its file as another object")
    return Timed(len(paths), spent)


def wide_action_load() -> Timed:
    """`loads` of WIDE_ACTION, then its `dumps`, which must give the text
    back; one document and the seconds spent in `loads` alone."""
    start = perf_counter()
    obj = loads(WIDE_ACTION)
    spent = perf_counter() - start
    if dumps(obj) != WIDE_ACTION:
        raise SystemExit("the dim0 10^7 crossed-lie document does not dump back byte for byte")
    return Timed(1, spent)


def dump_results(results, text: str) -> int:
    """`dumps` of the search results, which must be `text`, a text that
    loads back to them; the number of operators."""
    if dumps(results) != text:
        raise SystemExit("the heis3 search results do not dump back byte for byte")
    return len(results.operators)


def mutate_verify(work: Path) -> int:
    """`mutate` then `verify` through the CLI for each of MUTATE_SITES;
    the summed checked counts."""
    checked, path = 0, str(work / "mutant.json")
    for name, site, delta in MUTATE_SITES:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            made = cli_main(["mutate", str(CATALOG / f"{name}.json"), "--site", site,
                             f"--delta={delta}", "-o", path])
            code = cli_main(["verify", path]) if made == 0 else None
        if (made, code) != (0, 1):
            raise SystemExit(f"mutate {name} {site} exited {made}, its verify {code}, not 0 and 1")
        checked += int(err.getvalue().split()[1])
    return checked


def search(name: str) -> int:
    """`search-rb` of a catalog algebra; the number of operators found,
    which must be the pinned one, found within SEARCH_LIMIT_S."""
    err = io.StringIO()
    start = perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli_main(["search-rb", str(CATALOG / f"{name}.json"),
                         "--budget", str(SEARCH_BUDGET)])
    elapsed = perf_counter() - start
    found = int(err.getvalue().split()[0]) if code == 0 else None
    if found != SEARCH_FOUND[name]:
        raise SystemExit(f"search-rb {name} exited {code} with {found} operators, "
                         f"not {SEARCH_FOUND[name]}")
    if elapsed > SEARCH_LIMIT_S:
        raise SystemExit(f"search-rb {name} took {elapsed:.1f} s, over {SEARCH_LIMIT_S} s")
    return found


def walk(run) -> dict:
    """One more run of a search row, untimed, with `rblie.search._narrow`
    wrapped: the nodes it visits (its `_narrow` calls) and the operators
    found."""
    nodes, narrow = [], search_module._narrow
    search_module._narrow = lambda *args: nodes.append(1) or narrow(*args)
    try:
        found = run().count
    finally:
        search_module._narrow = narrow
    return {"narrow_calls": len(nodes), "found": found}


def fresh(*args: str) -> int:
    """FRESH_RUNS fresh interpreters, one after another, running `args`
    with `src/` on their path; the checked count a `verify` prints, else 0."""
    for _ in range(FRESH_RUNS):
        done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        if done.returncode != 0:
            raise SystemExit(f"python {' '.join(args)} exited {done.returncode}: {done.stderr}")
    return int(done.stderr.split()[1]) if done.stderr else 0


def sparse_lie(n: int) -> str:
    """A `lie` document declaring dim n with two bracket entries,
    [e0, e1] = e2 and its skew partner."""
    return dumps(LieAlgebra.from_brackets(n, {(0, 1): vbasis(n, 2)}))


def fresh_verify(path: Path) -> Timed:
    """One fresh interpreter verifying `path` as ``rblie.cli verify`` does;
    the checked count, the seconds it ran and the child's peak RSS in MB.
    The child reads its own VmHWM from /proc/self/status as it ends:
    `getrusage` would also count the measuring process, whose peak a child
    inherits at exec."""
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", VERIFY_PEAK, str(path)], cwd=ROOT,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"verify {path.name} exited {done.returncode}: {done.stderr}")
    return Timed(int(done.stderr.split()[1]), elapsed, int(done.stdout.split()[1]) / 1024)


def sparse_count(text: str) -> int:
    """The closed-form check count of the SPARSE_COUNT document."""
    count = structure_checks(loads(text)).count
    if count != SPARSE_COUNT[1]:
        raise SystemExit(f"the dim-{SPARSE_COUNT[0]} sparse lie document counts {count} checks, "
                         f"not {SPARSE_COUNT[1]}")
    return count


def rows(work: Path) -> dict:
    """Each row by its name: a function that runs it once and returns its
    `Timed`."""
    out = {f"zero lie dim {n}": timed(lambda n=n: verify_object(LieAlgebra.abelian(n)))
           for n in (8, 12, 16, 25)}
    out.update({f"zero rb-2term dim0 {d} dim1 2":
                timed(lambda d=d: verify_object(with_operators(two_term(d, 2))))
                for d in range(3, 7)})
    G = adjoint_rb_two_term(semidirect_product(
        adjoint_representation(RB_ALGEBRAS["solv4-rb-zero"])))
    dim8 = dumps(G)
    out["solv4 adjoint semidirect rb-2term dim0 8 dim1 8"] = \
        timed(lambda: verify_object(loads(dim8)))
    dim8_hom = dumps(identity_rb_hom(loads(dim8)))
    out["identity rb-hom of the dim0 8 solv4 adjoint semidirect rb-2term"] = \
        timed(lambda: verify_object(loads(dim8_hom)))
    l3 = G.linf.l3
    broken = replace(G, linf=replace(G.linf, l3=from_cells(
        l3.shape, {**l3.cells(), (0, 0, 1, 2): 1}, l3.flag)))
    dim8_broken = dumps(broken)
    out["dim0 8 rb-2term with one l3 cell without its partners (flag broken)"] = \
        timed(lambda: verify_flag_broken(loads(dim8_broken)))
    rows_p = unimodular_rows(INVERSE_DIM)
    out[f"exact inverse of a dim-{INVERSE_DIM} unimodular basis change"] = \
        timed(lambda: exact_inverse(rows_p))
    out["verify solv4-module-cocycle-rb2"] = timed(
        lambda: cli(CATALOG / "solv4-module-cocycle-rb2.json"))
    out["roundtrip solv4-cocycle-phi2-hom"] = timed(lambda: cli(
        CATALOG / "solv4-cocycle-phi2-hom.json", command="roundtrip"))
    out["verify whole catalog"] = timed(lambda: cli(*sorted(CATALOG.glob("*.json"))))
    texts = [path.read_text(encoding="utf-8") for path in sorted(CATALOG.glob("*.json"))]
    out["loads+dumps whole catalog"] = timed(lambda: load_dump(texts))
    paths = sorted(CATALOG.glob("*.json"))
    objs = [loads(text) for text in texts]
    out["load every catalog file from disk, after gc.collect()"] = \
        lambda: cold_loads(paths, objs)
    out["loads of a crossed-lie document declaring dim0 10^7, one action entry"] = \
        wide_action_load
    heis3 = LIE_ALGEBRAS["heis3"]
    spec = SearchSpec(heis3)
    results = SearchResults(heis3, spec.coeffs,
                            tuple(rba.r for rba in enumerate_rb_operators(spec)))
    results_text = dumps(results)
    if loads(results_text) != results or len(results.operators) != SEARCH_FOUND["heis3"]:
        raise SystemExit("the heis3 search results do not load back from their text")
    out["dumps of the heis3 search results (639 operators)"] = \
        timed(lambda: dump_results(results, results_text))
    out[f"mutate then verify of {len(MUTATE_SITES)} catalog sites"] = \
        timed(lambda: mutate_verify(work))
    out.update({f"search-rb {name} over -1,0,1": timed(lambda name=name: search(name))
                for name in SEARCH_FOUND})
    alg = sl3()
    if not verify_structure(alg).ok:
        raise SystemExit("the sl3 built from matrix units fails verification")
    out["masked sl3 search over -1,0,1 (9 free entries)"] = timed(lambda: sl3_search(alg))
    out[f"{FRESH_RUNS} fresh python -c 'import rblie.cli'"] = timed(lambda: fresh(
        "-c", "import rblie.cli"))
    out[f"{FRESH_RUNS} fresh python -m rblie.cli verify catalog/abelian1.json"] = timed(
        lambda: fresh("-m", "rblie.cli", "verify", str(CATALOG / "abelian1.json")))
    for n in (50, 100):
        path = work / f"sparse-lie-{n}.json"
        path.write_text(sparse_lie(n), encoding="utf-8")
        out[f"fresh-interpreter verify of a two-entry lie document of dim {n}"] = \
            lambda path=path: fresh_verify(path)
    text = sparse_lie(SPARSE_COUNT[0])
    out[f"count of the two-entry lie document of dim {SPARSE_COUNT[0]}"] = \
        timed(lambda: sparse_count(text))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/bench.py OUT.json", file=sys.stderr)
        return 2
    result = {"python": platform.python_version(), "machine": platform.machine(),
              "repeats": REPEATS, "rows": {}}
    with tempfile.TemporaryDirectory() as work:
        table = rows(Path(work))
        runs = {name: [] for name in table}
        rss = {name: [] for name in table}
        checked = {}
        for _ in range(REPEATS):  # one round runs every row once
            for name, fn in table.items():
                checked[name], elapsed, mb = fn()
                runs[name].append(elapsed)
                if mb is not None:
                    rss[name].append(mb)
        walks = {name: walk(fn) for name, fn in table.items()
                 if name.startswith(("search-rb ", "masked sl3 search "))}
    for name, times in runs.items():
        median = statistics.median(times)
        row = result["rows"][name] = {"median_s": round(median, 4),
                                      "min_s": round(min(times), 4),
                                      "runs_s": [round(t, 4) for t in times],
                                      "checked": checked[name]}
        if rss[name]:
            row["peak_rss_mb"] = round(max(rss[name]), 1)
        print(f"{name}: {median:.3f} s, min {min(times):.3f} s ({checked[name]} checks)",
              file=sys.stderr)
        if name in walks:
            row["walk"] = walks[name]
            print(f"  {walks[name]['narrow_calls']} _narrow calls, "
                  f"{walks[name]['found']} operators", file=sys.stderr)
    result["src_lines"] = sum(len(p.read_text().splitlines())
                              for p in sorted((ROOT / "src").rglob("*.py")))
    Path(argv[0]).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
