"""Command-line surface: verify, construct, roundtrip, search-rb, mutate,
compose.

Exit codes: 0 all checks pass, 1 violations found, 2 usage or document
errors.  Violation lines are machine-parseable and sorted:

    VIOLATION <condition-id> <index-tuple> <residual>

Every verification runs its checks serially in one pass over one check
list; the `rbh3` chain residual is evaluated once per pair and feeds the
`rbh3` check, the `cohm` diagram check (`rbh3` minus the phi3 bracket
term) and the `cohm-vs-rbh3` cross-check.  Constructed documents go to -o
or stdout.

The argument parser is built on the first `main` call and reused by every
later call in the same process; parsing leaves no state on it.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .crossed import (LieCrossedModule, PreLieCrossedModule,
                      RBLieCrossedModule, crossed_semidirect, crossed_to_strict,
                      derived_crossed, lie_crossed_checks,
                      prelie_crossed_checks, prelie_crossed_to_lie_crossed,
                      rb_crossed_checks, rb_crossed_to_prelie_crossed,
                      strict_to_crossed)
from .errors import StructureError
from .liealg import (LieAlgebra, PreLieAlgebra, RBRepresentation,
                     RotaBaxterLieAlgebra, adjoint_representation,
                     dual_representation, lie_checks, prelie_checks,
                     prelie_from_rb, rb_checks, representation_checks,
                     semidirect_product, subadjacent_lie)
from .lie2 import (coherence_checks, hom_coherence_checks,
                   jacobiator_coherence_checks, roundtrip_hom,
                   roundtrip_structure)
from .report import Check, VerificationReport, prefix_checks, run_checks
from .search import SearchSpec, enumerate_rb_operators, mutate
from .serialize import (SearchResults, dumps, load, parse_rational, save)
from .twoterm import (LInfinityHom, RBLInfinityHom, TwoTermLInfinity,
                      TwoTermRBLInfinity, compose_rb_homs, rb_hom_checks,
                      hom_checks, two_term_checks, rb_triple_checks)


def structure_checks(obj) -> list[Check]:
    """The full check list for the object's kind: the one place that knows
    which check families make up a whole document.  Operator-carrying
    two-term structures and homomorphisms include the diagram-level
    coherence checks, so exit 0 certifies both layers."""
    if isinstance(obj, RotaBaxterLieAlgebra):
        return lie_checks(obj.base) + rb_checks(obj)
    if isinstance(obj, LieAlgebra):
        return lie_checks(obj)
    if isinstance(obj, PreLieAlgebra):
        return prelie_checks(obj)
    if isinstance(obj, RBRepresentation):
        alg = obj.algebra
        return (prefix_checks("alg-", lie_checks(alg.base) + rb_checks(alg))
                + representation_checks(obj))
    if isinstance(obj, TwoTermRBLInfinity):
        return (two_term_checks(obj.linf) + rb_triple_checks(obj)
                + coherence_checks(obj) + jacobiator_coherence_checks(obj))
    if isinstance(obj, TwoTermLInfinity):
        return two_term_checks(obj)
    if isinstance(obj, RBLInfinityHom):
        rb_hom = rb_hom_checks(obj)
        return (prefix_checks("src-", two_term_checks(obj.source.linf)
                              + rb_triple_checks(obj.source))
                + prefix_checks("tgt-", two_term_checks(obj.target.linf)
                                + rb_triple_checks(obj.target))
                + hom_checks(obj.hom) + rb_hom + hom_coherence_checks(obj, rb_hom))
    if isinstance(obj, LInfinityHom):
        return (prefix_checks("src-", two_term_checks(obj.source))
                + prefix_checks("tgt-", two_term_checks(obj.target))
                + hom_checks(obj))
    if isinstance(obj, RBLieCrossedModule):
        return rb_crossed_checks(obj)
    if isinstance(obj, LieCrossedModule):
        return lie_crossed_checks(obj)
    if isinstance(obj, PreLieCrossedModule):
        return prelie_crossed_checks(obj)
    if isinstance(obj, SearchResults):
        checks = lie_checks(obj.algebra)
        for pos, op in enumerate(obj.operators):
            checks += prefix_checks(f"op{pos}-",
                                    rb_checks(RotaBaxterLieAlgebra(obj.algebra, op)))
        return checks
    raise StructureError(f"no verifier for {type(obj).__name__}")


def verify_structure(obj) -> VerificationReport:
    """Run every check of the object's kind in one serial pass."""
    return run_checks(structure_checks(obj))


def _emit(report: VerificationReport) -> int:
    for line in report.lines():
        print(line)
    print(f"checked {report.checked} conditions, "
          f"{len(report.violations)} violations", file=sys.stderr)
    return 0 if report.ok else 1


def _output(obj, path) -> None:
    if path:
        save(obj, path)
    else:
        sys.stdout.write(dumps(obj))


def cmd_verify(args) -> int:
    return _emit(verify_structure(load(args.file)))


_CONSTRUCTIONS = {
    "prelie": (RotaBaxterLieAlgebra, prelie_from_rb),
    "subadjacent": (PreLieAlgebra, subadjacent_lie),
    "dual": (RBRepresentation, dual_representation),
    "adjoint": (RotaBaxterLieAlgebra, adjoint_representation),
    "semidirect": (RBRepresentation, semidirect_product),
    "crossed-to-strict": (RBLieCrossedModule, crossed_to_strict),
    "strict-to-crossed": (TwoTermRBLInfinity, strict_to_crossed),
    "rb-to-prelie-cm": (RBLieCrossedModule, rb_crossed_to_prelie_crossed),
    "prelie-to-lie-cm": (PreLieCrossedModule, prelie_crossed_to_lie_crossed),
    "derived-cm": (RBLieCrossedModule, derived_crossed),
    "cm-semidirect": (RBLieCrossedModule, crossed_semidirect),
}


def cmd_construct(args) -> int:
    want, fn = _CONSTRUCTIONS[args.name]
    obj = load(args.file)
    if not isinstance(obj, want):
        print(f"error: {args.name} expects a {want.__name__} document", file=sys.stderr)
        return 2
    report = verify_structure(obj)
    if not report.ok:
        return _emit(report)
    _output(fn(obj), args.out)
    return 0


def cmd_roundtrip(args) -> int:
    obj = load(args.file)
    if isinstance(obj, TwoTermRBLInfinity):
        return _emit(roundtrip_structure(obj))
    if isinstance(obj, RBLInfinityHom):
        return _emit(roundtrip_hom(obj))
    print("error: roundtrip expects an rb-2term or rb-hom document", file=sys.stderr)
    return 2


def cmd_search_rb(args) -> int:
    alg = load(args.file)
    if not isinstance(alg, LieAlgebra):
        print("error: search-rb expects a lie document", file=sys.stderr)
        return 2
    report = verify_structure(alg)
    if not report.ok:
        return _emit(report)
    coeffs = tuple(parse_rational(c) for c in args.coeffs.split(","))
    spec = SearchSpec(alg, coeffs, budget=args.budget)
    found = enumerate_rb_operators(spec)
    results = SearchResults(alg, spec.coeffs, tuple(rba.r for rba in found))
    _output(results, args.out)
    print(f"{len(found)} operators out of {spec.candidate_count()} candidates",
          file=sys.stderr)
    return 0


def cmd_mutate(args) -> int:
    obj = load(args.file)
    parts = args.site.split(",")
    try:
        site = (parts[0],) + tuple(int(p) for p in parts[1:])
    except ValueError:
        print(f"error: site indices must be integers: {args.site!r}", file=sys.stderr)
        return 2
    _output(mutate(obj, site, parse_rational(args.delta)), args.out)
    return 0


def cmd_compose(args) -> int:
    f, g = load(args.f), load(args.g)
    if not isinstance(f, RBLInfinityHom) or not isinstance(g, RBLInfinityHom):
        print("error: compose expects two rb-hom documents", file=sys.stderr)
        return 2
    _output(compose_rb_homs(g, f), args.out)  # f first, then g
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    p = argparse.ArgumentParser(
        prog="rblie",
        description="Exact verification and constructions for Rota-Baxter "
                    "structures, their two-term homotopy versions, and "
                    "crossed modules.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run every defining identity of a document")
    v.add_argument("file")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("construct", help="apply a construction to a document")
    c.add_argument("name", choices=sorted(_CONSTRUCTIONS))
    c.add_argument("file")
    c.add_argument("-o", "--out")
    c.set_defaults(fn=cmd_construct)

    r = sub.add_parser("roundtrip",
                       help="extract a structure back out of its categorified "
                            "view and compare entrywise")
    r.add_argument("file")
    r.set_defaults(fn=cmd_roundtrip)

    s = sub.add_parser("search-rb", help="enumerate operators over a coefficient grid")
    s.add_argument("file")
    s.add_argument("--coeffs", default="-1,0,1",
                   help="comma-separated rationals; use --coeffs=-1,0,1 "
                        "when the list starts with a minus sign")
    s.add_argument("--budget", type=int, default=SearchSpec.budget,
                   help="largest grid to search: refuse (exit 2) when the "
                        "coefficient count to the power of the free entries "
                        "exceeds it (default %(default)s)")
    s.add_argument("-o", "--out")
    s.set_defaults(fn=cmd_search_rb)

    m = sub.add_parser("mutate", help="change one tensor entry (plus symmetry partners)")
    m.add_argument("file")
    m.add_argument("--site", required=True,
                   help="tensor name and indices, e.g. bracket,0,0,1")
    m.add_argument("--delta", required=True, help="rational, e.g. 1 or -2/3")
    m.add_argument("-o", "--out")
    m.set_defaults(fn=cmd_mutate)

    k = sub.add_parser("compose", help="compose two operator homomorphisms (first, then second)")
    k.add_argument("f")
    k.add_argument("g")
    k.add_argument("-o", "--out")
    k.set_defaults(fn=cmd_compose)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StructureError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
