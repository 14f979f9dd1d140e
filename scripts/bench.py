#!/usr/bin/env python3
"""Time the scaling probes and catalog verification of this checkout.

    python3 scripts/bench.py out.json

Imports `rblie` from the `src/` next to this script and times, in-process,
each row below as the median of REPEATS runs:

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
* `rblie verify catalog/solv4-module-cocycle-rb2.json`;
* `rblie roundtrip catalog/solv4-cocycle-phi2-hom.json`;
* `rblie verify` of every catalog document, one after the other;
* `loads` then `dumps` of every catalog document (texts read beforehand;
  each must come back byte for byte);
* `rblie search-rb` of sl2, heis3 and solv4 over {-1,0,1}, which must find
  23, 639 and 5,427 operators, each within 60 s (with `--budget 43046721`,
  solv4's whole 3^16 grid);
* a masked search of sl3 over {-1,0,1}, by `enumerate_rb_operators`: R maps
  span(E21, E31, E32) into span(E12, E13, E23), 9 free entries.  sl3 is
  built here from 3x3 matrix units, in the basis (E12, E13, E21, E23, E31,
  E32, H1, H2).  It must find 795 operators within 60 s, the number a pass
  of the `rota-baxter` checks over all 3^9 matrices finds.

The JSON written to the one argument holds every row (median, the single
runs, the number of checked conditions, of documents for the
`loads`/`dumps` row, or of operators found for the `search-rb` rows) and
the line count of `src/`.  A probe that fails verification, or a search
that finds another number of operators or takes longer, exits nonzero.
Only the standard library is used, so the same file can be copied into an
older checkout to measure a before/after pair on one machine.  The zero
dim-25 row of a dense tensor kernel takes minutes, so this is not a CI
step.
"""

from __future__ import annotations

import io
import json
import platform
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rblie.catalog import RB_ALGEBRAS, adjoint_rb_two_term  # noqa: E402
from rblie.cli import main as cli_main, verify_structure  # noqa: E402
from rblie.liealg import (LieAlgebra, adjoint_representation,  # noqa: E402
                          semidirect_product)
from rblie.search import SearchSpec, enumerate_rb_operators  # noqa: E402
from rblie.serialize import dumps, loads  # noqa: E402
from rblie.tensors import BilinearMap, LinearMap, TrilinearMap, vec  # noqa: E402
from rblie.twoterm import (RBTriple, TwoTermComplex, TwoTermLInfinity,  # noqa: E402
                           TwoTermRBLInfinity, identity_rb_hom)

REPEATS = 3
CATALOG = ROOT / "catalog"
SEARCH_FOUND = {"sl2": 23, "heis3": 639, "solv4": 5427}  # operators over {-1,0,1}
SEARCH_BUDGET = 3 ** 16  # solv4's whole grid, above the default 10^7 candidates
SEARCH_LIMIT_S = 60
SL3_BASIS = ("E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2")
SL3_FOUND = 795  # masked sl3 operators over {-1,0,1}


def zero_lie(n: int) -> LieAlgebra:
    return LieAlgebra(n, BilinearMap.zero(n, n, n, skew=True))


def zero_rb_2term(d0: int, d1: int) -> TwoTermRBLInfinity:
    linf = TwoTermLInfinity(TwoTermComplex(d0, d1, LinearMap.zero(d0, d1)),
                            BilinearMap.zero(d0, d0, d0, skew=True),
                            BilinearMap.zero(d0, d1, d1),
                            TrilinearMap.zero(d0, d1, alt=True))
    return TwoTermRBLInfinity(linf, RBTriple(LinearMap.zero(d0, d0), LinearMap.zero(d1, d1),
                                             BilinearMap.zero(d0, d0, d1, skew=True)))


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


def verify_object(obj) -> int:
    report = verify_structure(obj)
    if not report.ok:
        raise SystemExit(f"probe failed verification: {report.lines()[:3]}")
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


def rows() -> dict:
    out = {f"zero lie dim {n}": lambda n=n: verify_object(zero_lie(n)) for n in (8, 12, 16, 25)}
    out.update({f"zero rb-2term dim0 {d} dim1 2": lambda d=d: verify_object(zero_rb_2term(d, 2))
                for d in range(3, 7)})
    dim8 = dumps(adjoint_rb_two_term(semidirect_product(
        adjoint_representation(RB_ALGEBRAS["solv4-rb-zero"]))))
    out["solv4 adjoint semidirect rb-2term dim0 8 dim1 8"] = \
        lambda: verify_object(loads(dim8))
    dim8_hom = dumps(identity_rb_hom(loads(dim8)))
    out["identity rb-hom of the dim0 8 solv4 adjoint semidirect rb-2term"] = \
        lambda: verify_object(loads(dim8_hom))
    out["verify solv4-module-cocycle-rb2"] = lambda: cli(CATALOG / "solv4-module-cocycle-rb2.json")
    out["roundtrip solv4-cocycle-phi2-hom"] = lambda: cli(
        CATALOG / "solv4-cocycle-phi2-hom.json", command="roundtrip")
    out["verify whole catalog"] = lambda: cli(*sorted(CATALOG.glob("*.json")))
    texts = [path.read_text(encoding="utf-8") for path in sorted(CATALOG.glob("*.json"))]
    out["loads+dumps whole catalog"] = lambda: load_dump(texts)
    out.update({f"search-rb {name} over -1,0,1": lambda name=name: search(name)
                for name in SEARCH_FOUND})
    alg = sl3()
    if not verify_structure(alg).ok:
        raise SystemExit("the sl3 built from matrix units fails verification")
    out["masked sl3 search over -1,0,1 (9 free entries)"] = lambda: sl3_search(alg)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/bench.py OUT.json", file=sys.stderr)
        return 2
    result = {"python": platform.python_version(), "machine": platform.machine(),
              "repeats": REPEATS, "rows": {}}
    for name, fn in rows().items():
        runs = []
        for _ in range(REPEATS):
            start = perf_counter()
            checked = fn()
            runs.append(perf_counter() - start)
        median = statistics.median(runs)
        result["rows"][name] = {"median_s": round(median, 4),
                                "runs_s": [round(t, 4) for t in runs], "checked": checked}
        print(f"{name}: {median:.3f} s ({checked} checks)", file=sys.stderr)
    result["src_lines"] = sum(len(p.read_text().splitlines())
                              for p in sorted((ROOT / "src").rglob("*.py")))
    Path(argv[0]).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
