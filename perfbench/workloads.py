"""The four benchmark workloads: seeded inputs, the CLI operations one pass
runs, and the pinned expectation each operation's output must meet.

An operation is one `rblie.cli.main` call.  Every builder takes the freshly
imported package (`rb`), the checkout root, the workload seed, a scratch
directory inside the checkout and the pinned oracle, and returns the list of
operations of one pass.  Builders write every input document they need, so
calling one is the workload's set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Deltas a mutant may add to its site.  Each is a nonzero rational with a
# small numerator and denominator, so a mutant differs from a valid
# structure by one plausible typo.
DELTAS = ("1", "-1", "2", "-1/2")

# Mutable catalog documents whose clean `verify` takes well under 0.2 s at
# the seed commit.  The heavy dim0 >= 3 two-term structures are left to the
# `catalog` workload, so mutate, dump, load and violation reporting keep a
# visible share of the time next to the diagram checks.
MUTANT_DOCS = (
    "abelian2", "abelian2-rb-jordan", "abelian3", "aff1",
    "aff1-adjoint-2term", "aff1-adjoint-2term-idhom",
    "aff1-adjoint-rb2-completed", "aff1-adjoint-rb2-neg",
    "aff1-adjoint-rb2-shift", "aff1-ideal-cm-lie",
    "aff1-ideal-cm-neg", "aff1-ideal-cm-neg-prelie",
    "aff1-ideal-cm-neg-strict", "aff1-ideal-cm-zero",
    "aff1-ideal-cm-zero-strict", "aff1-phi3-hom", "aff1-rb-neg",
    "aff1-rb-shift", "descent-aff1-ideal-cm-neg",
    "descent-heis3-center-cm", "descent-sl2-adjoint-cm-tri",
    "heis3", "heis3-center-cm", "heis3-cocycle-phi2-hom",
    "heis3-rb-center", "id-aff1-adjoint-rb2-shift",
    "id-heis3-center-cm-strict", "id-sl2-cocycle-rb2-nonstrict",
    "sl2", "sl2-adjoint-cm-tri", "sl2-rb-tri", "sl2-rb-zero",
    "solv4", "solv4-rb-zero", "trivial-cm", "trivial-cm-strict",
)
# Mutants drawn per document and pass, by document kind.  A fixed number
# per document keeps the cost of a pass nearly independent of the seed.
# Kinds that carry diagram checks get three, the rest eight, so that mutate,
# load, dump and violation reporting are a visible share of a pass.
MUTANTS_PER_DOC = {"rb-2term": 3, "rb-hom": 3}
MUTANTS_DEFAULT = 8

SEARCH_ALGEBRAS = ("aff1", "sl2", "heis3")
SEARCH_COEFFS = "--coeffs=-1,0,1"

_CHECKED = re.compile(r"checked (\d+) conditions")
_CANDIDATES = re.compile(r"(\d+) operators out of (\d+) candidates")


class BenchError(Exception):
    """The benchmark cannot run: missing program, bad oracle or bad input."""


def digest(text: str, length: int = 16) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def verdict_digest(code, out: str) -> str:
    """Digest of a verify call's exit code and VIOLATION bytes."""
    return digest(f"{code}\n{out}", 8)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: Callable[[object, str, str], bool]   # (exit code, stdout, stderr) -> ok


def checked_count(err: str) -> int:
    m = _CHECKED.search(err)
    return int(m.group(1)) if m else 0


def candidate_count(err: str) -> int:
    m = _CANDIDATES.search(err)
    return int(m.group(2)) if m else 0


def _clean(code, out, err) -> bool:
    return code == 0 and out == ""


def _stdout_digest(expected: str):
    return lambda code, out, err: code == 0 and digest(out) == expected


def _verdict(expected: str):
    return lambda code, out, err: verdict_digest(code, out) == expected


def _found(expected_out: str, found: int):
    def check(code, out, err):
        m = _CANDIDATES.search(err)
        return (code == 0 and m is not None and int(m.group(1)) == found
                and digest(out) == expected_out)
    return check


def load_oracle(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read the pinned oracle {path}: {e}") from e


def _doc(root: Path, stem: str) -> Path:
    path = root / "catalog" / f"{stem}.json"
    if not path.is_file():
        raise BenchError(f"catalog document {path} is missing")
    return path


# --- catalog ---------------------------------------------------------------

def catalog_kinds(root: Path) -> dict[str, str]:
    """Document kind of every shipped catalog file, keyed by file stem."""
    return {p.stem: document_kind(p) for p in sorted((root / "catalog").glob("*.json"))}


def build_catalog(rb, root: Path, seed: int, work: Path, oracle: dict) -> list[Op]:
    """verify every shipped document, roundtrip every rb-2term and rb-hom,
    then every construct and compose that succeeds at the seed commit (the
    oracle lists them with the digest of their output)."""
    kinds = catalog_kinds(root)
    ops = [Op(("verify", str(_doc(root, s))), _clean) for s in kinds]
    ops += [Op(("roundtrip", str(_doc(root, s))), _clean)
            for s, kind in kinds.items() if kind in ("rb-2term", "rb-hom")]
    ops += [Op(("construct", name, str(_doc(root, s))), _stdout_digest(d))
            for name, s, d in oracle["construct"]]
    ops += [Op(("compose", str(_doc(root, f)), str(_doc(root, g))),
               _stdout_digest(d))
            for f, g, d in oracle["compose"]]
    return ops


# --- mutants ---------------------------------------------------------------

def _linf_sites(get):
    return (("l1", lambda o: get(o).complex.l1), ("l2_00", lambda o: get(o).l2_00),
            ("l2_01", lambda o: get(o).l2_01), ("l3", lambda o: get(o).l3))


def _cm_sites(get):
    return (("bracket0", lambda o: get(o).g0.bracket),
            ("bracket1", lambda o: get(o).g1.bracket),
            ("d", lambda o: get(o).d), ("rho", lambda o: get(o).rho))


# Tensor names `rblie mutate` accepts for each mutable document kind, with
# the accessor of the tensor each name edits.
SITES = {
    "lie": (("bracket", lambda o: o.bracket),),
    "rb-lie": (("bracket", lambda o: o.base.bracket), ("r", lambda o: o.r)),
    "prelie": (("mult", lambda o: o.mult),),
    "2term": _linf_sites(lambda o: o),
    "rb-2term": _linf_sites(lambda o: o.linf) + (
        ("r0", lambda o: o.rb.r0), ("r1", lambda o: o.rb.r1), ("r2", lambda o: o.rb.r2)),
    "hom": (("phi0", lambda o: o.phi0), ("phi1", lambda o: o.phi1),
            ("phi2", lambda o: o.phi2)),
    "rb-hom": (("phi0", lambda o: o.hom.phi0), ("phi1", lambda o: o.hom.phi1),
               ("phi2", lambda o: o.hom.phi2), ("phi3", lambda o: o.phi3)),
    "crossed-lie": _cm_sites(lambda o: o),
    "crossed-rb": _cm_sites(lambda o: o.base) + (
        ("t0", lambda o: o.t0), ("t1", lambda o: o.t1)),
    "crossed-prelie": (("mult0", lambda o: o.p0.mult), ("mult1", lambda o: o.p1.mult),
                       ("delta", lambda o: o.delta), ("l_act", lambda o: o.l_act),
                       ("r_act", lambda o: o.r_act)),
}


def tensor_sites(t):
    """Every index tuple `mutate` accepts for tensor `t`.  A skew bilinear
    map contributes each unordered pair once (its partner entry moves with
    it) and an alternating trilinear map each strictly increasing triple."""
    if isinstance(t, tuple):  # an action: one matrix per basis element
        return [(x, r, c) for x, m in enumerate(t)
                for r in range(m.rows) for c in range(m.cols)]
    if hasattr(t, "entries"):
        return [(r, c) for r in range(t.rows) for c in range(t.cols)]
    if hasattr(t, "dim_a"):
        return [(k, i, j) for k in range(t.dim_out) for i in range(t.dim_a)
                for j in range(t.dim_b) if not t.skew or i < j]
    return [(l, i, j, k) for l in range(t.dim_out) for i in range(t.dim)
            for j in range(t.dim) for k in range(t.dim)
            if not t.alt or i < j < k]


def document_kind(path: Path) -> str:
    return json.loads(path.read_text(encoding="utf-8"))["kind"]


def mutant_pool(rb, path: Path) -> list[tuple[str, str]]:
    """All (site, delta) mutants of one document, in a fixed order that the
    oracle's verdict list follows."""
    obj = rb.serialize.load(path)
    return [(f"{name},{','.join(map(str, idx))}", delta)
            for name, get in SITES[document_kind(path)]
            for idx in tensor_sites(get(obj))
            for delta in DELTAS]


def build_mutants(rb, root: Path, seed: int, work: Path, oracle: dict) -> list[Op]:
    """Per document, the seed draws MUTANTS_PER_DOC sites and deltas from
    the pool of mutants whose verdict the oracle pins.  Each mutant is two
    operations: `mutate ... -o <tmp>`, then `verify <tmp>`."""
    rng = random.Random(f"mutants-{seed}")
    verdicts = oracle["mutants"]
    ops = []
    for stem in MUTANT_DOCS:
        path = _doc(root, stem)
        pool = mutant_pool(rb, path)
        pinned = verdicts.get(stem, "").split()
        if len(pinned) != len(pool):
            raise BenchError(f"oracle pins {len(pinned)} mutants of {stem}, "
                             f"the site enumeration gives {len(pool)}")
        # "-" marks mutants that exit 2 (for example a structure the bracket
        # functor rejects); they are never drawn.
        valid = [(m, v) for m, v in zip(pool, pinned) if v != "-"]
        count = MUTANTS_PER_DOC.get(document_kind(path), MUTANTS_DEFAULT)
        for k, ((site, delta), verdict) in enumerate(rng.sample(valid, count)):
            out = work / f"{stem}.{k}.json"
            ops.append(Op(("mutate", str(path), "--site", site,
                                     f"--delta={delta}", "-o", str(out)), _clean))
            ops.append(Op(("verify", str(out)), _verdict(verdict)))
    return ops


# --- dense -----------------------------------------------------------------

def unimodular(rb, n: int, rng: random.Random):
    """A dense integer matrix of determinant 1 and its exact inverse.

    P = P0 Q: P0 is a fixed unit lower times unit upper triangular matrix
    with +-1 entries off the diagonal, and the seed picks the signed
    permutation Q.  Q only relabels and flips basis vectors, so every seed
    yields a different document with the same amount of arithmetic.
    """
    LinearMap, tensors = rb.tensors.LinearMap, rb.tensors
    fixed = random.Random(f"dense-basis-{n}")
    lower = [[1 if r == c else (fixed.choice((-1, 1)) if r > c else 0) for c in range(n)]
             for r in range(n)]
    upper = [[1 if r == c else (fixed.choice((-1, 1)) if r < c else 0) for c in range(n)]
             for r in range(n)]
    p0 = LinearMap.from_rows(lower).compose(LinearMap.from_rows(upper))
    perm = rng.sample(range(n), n)
    p = LinearMap.from_columns([tensors.vscale(tensors.frac(rng.choice((-1, 1))),
                                               p0.column(perm[i])) for i in range(n)],
                               rows=n)
    inv_cols = [tensors.solve_exact(p, tensors.vbasis(n, i)) for i in range(n)]
    return p, LinearMap.from_columns(inv_cols, rows=n)


def rebase(rb, rba, p, p_inv):
    """The operator algebra in the basis given by the columns of `p`:
    bracket P^-1[P., P.] and operator P^-1 R P."""
    n = rba.dim
    cols = [p.column(i) for i in range(n)]
    values = {(i, j): p_inv.apply(rba.base.bracket_vec(cols[i], cols[j]))
              for i in range(n) for j in range(n) if i != j}
    bracket = rb.tensors.BilinearMap.from_map(n, n, n, values, skew=True)
    return rb.liealg.RotaBaxterLieAlgebra(rb.liealg.LieAlgebra(n, bracket),
                                          p_inv.compose(rba.r).compose(p))


def dense_structures(rb, seed: int) -> dict[str, object]:
    """Seeded basis changes of catalog structures.  A basis change keeps
    every identity exactly, so each result must verify with 0 violations."""
    rng = random.Random(f"dense-{seed}")
    cat, la = rb.catalog, rb.liealg

    def rebased(rba):
        return rebase(rb, rba, *unimodular(rb, rba.dim, rng))

    def semidirect(name):
        return la.semidirect_product(la.adjoint_representation(cat.RB_ALGEBRAS[name]))

    return {
        "sl2-rb-tri-adj2term": cat.adjoint_rb_two_term(rebased(cat.RB_ALGEBRAS["sl2-rb-tri"])),
        "aff1-semi-adj2term": cat.adjoint_rb_two_term(rebased(semidirect("aff1-rb-shift"))),
        "sl2-rb-tri-semi": rebased(semidirect("sl2-rb-tri")),
        "heis3-rb-center-semi": rebased(semidirect("heis3-rb-center")),
        "solv4-rb-zero-semi": rebased(semidirect("solv4-rb-zero")),
    }


def check_dense(rb, structures: dict[str, object]) -> None:
    """Fail loudly when a generated structure is wrong: operator algebras
    get the full verifier, two-term structures every chain-level check (the
    diagram checks are what the timed `verify` operations run)."""
    tt, report = rb.twoterm, rb.report
    for name, obj in structures.items():
        if isinstance(obj, tt.TwoTermRBLInfinity):
            result = report.run_checks(tt.two_term_checks(obj.linf) + tt.rb_triple_checks(obj))
        else:
            result = rb.cli.verify_structure(obj)
        if not result.ok:
            raise BenchError(f"generated dense input {name} does not verify: "
                             f"{result.lines()[:3]}")


def build_dense(rb, root: Path, seed: int, work: Path, oracle: dict) -> list[Op]:
    ops = []
    for name, obj in dense_structures(rb, seed).items():
        path = work / f"dense-{name}.json"
        path.write_text(rb.serialize.dumps(obj), encoding="utf-8")
        ops.append(Op(("verify", str(path)), _clean))
    return ops


# --- search ----------------------------------------------------------------

def build_search(rb, root: Path, seed: int, work: Path, oracle: dict) -> list[Op]:
    """search-rb over {-1,0,1}; the inputs are fixed and ignore the seed.
    aff1 must reproduce the golden catalog document byte for byte."""
    golden = (root / "catalog" / "aff1-rb-search.json").read_text(encoding="utf-8")
    ops = [Op(("search-rb", str(_doc(root, "aff1")), SEARCH_COEFFS),
              lambda code, out, err: code == 0 and out == golden)]
    for name in SEARCH_ALGEBRAS[1:]:
        found, out_digest = oracle["search"][name]
        ops.append(Op(("search-rb", str(_doc(root, name)), SEARCH_COEFFS),
                      _found(out_digest, found)))
    return ops


BUILDERS = {
    "catalog": build_catalog,
    "mutants": build_mutants,
    "dense": build_dense,
    "search": build_search,
}
