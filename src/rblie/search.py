"""Brute-force enumeration of Rota-Baxter operators over finite coefficient
grids, and single-site mutation of verified structures.

Enumeration is exhaustive and deterministic: coefficients are sorted
ascending and candidate matrices are visited in lexicographic row-major
order in one serial pass, so re-runs produce the same list.  Candidates
are rejected at the first violated bracket pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .errors import BadSite, BudgetExceeded
from .liealg import LieAlgebra, RotaBaxterLieAlgebra
from .serialize import KIND_OF_CLASS, get_at, put_at
from .tensors import LinearMap, frac, from_cells, perm_sign, vadd, vbasis


@dataclass(frozen=True)
class SearchSpec:
    target: LieAlgebra
    coeffs: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1))
    mask: tuple[tuple[bool, ...], ...] | None = None  # True = entry is free
    budget: int = 10_000_000

    def __post_init__(self):
        if not self.coeffs:
            raise BadSite("coefficient set must be non-empty")
        n = self.target.dim
        if self.mask is not None and (
                len(self.mask) != n or any(len(r) != n for r in self.mask)):
            raise BadSite("mask must be an n x n boolean grid")

    def free_sites(self) -> list[tuple[int, int]]:
        n = self.target.dim
        return [(r, c) for r in range(n) for c in range(n)
                if self.mask is None or self.mask[r][c]]

    def candidate_count(self) -> int:
        return len(set(self.coeffs)) ** len(self.free_sites())


def _is_rb(alg: LieAlgebra, r: LinearMap) -> bool:
    n = alg.dim
    for i, j in combinations(range(n), 2):
        x, y = vbasis(n, i), vbasis(n, j)
        lhs = alg.bracket_vec(r.column(i), r.column(j))
        rhs = r.apply(vadd(alg.bracket_vec(r.column(i), y),
                           alg.bracket_vec(x, r.column(j))))
        if lhs != rhs:
            return False
    return True


def enumerate_rb_operators(spec: SearchSpec) -> list[RotaBaxterLieAlgebra]:
    """All operators over the coefficient grid that satisfy the weight-zero
    identity, in lexicographic matrix order."""
    count = spec.candidate_count()
    if count > spec.budget:
        raise BudgetExceeded(
            f"{count} candidates exceed the budget of {spec.budget}", count)
    alg = spec.target
    n = alg.dim
    coeffs = tuple(sorted(set(spec.coeffs)))
    sites = spec.free_sites()
    found = []
    for assignment in product(coeffs, repeat=len(sites)):
        candidate = from_cells((n, n), dict(zip(sites, assignment)))
        if _is_rb(alg, candidate):
            found.append(RotaBaxterLieAlgebra(alg, candidate))
    return found


def mutate(value, site: tuple, delta) -> object:
    """Return a copy with one tensor entry changed by `delta` (plus the
    partner entries demanded by a skew/alternating flag).  `site` is the
    document key of the tensor followed by its indices.  The result is
    unverified."""
    delta = frac(delta)
    name, idx = site[0], tuple(site[1:])
    kind = KIND_OF_CLASS.get(type(value))
    if kind is None or not kind.mutable:
        raise BadSite(f"cannot mutate a {type(value).__name__}")
    field = next((f for f in kind.fields
                  if f.key == name and f.codec.tensor), None)
    if field is None:
        raise BadSite(f"unknown tensor {name!r} for {type(value).__name__}")
    codec, tensor = field.codec, get_at(value, field.path)
    shape, flag = codec.shape(tensor), codec.flag(tensor)
    if len(idx) != len(shape):
        raise BadSite(f"{name} sites take {len(shape)} indices")
    if not all(0 <= i < bound for i, bound in zip(idx, shape)):
        raise BadSite(f"index {idx} outside the {'x'.join(map(str, shape))} tensor {name}")
    out, args = idx[:1], idx[1:]
    if flag and len(set(args)) < len(args):
        raise BadSite(f"{name} is skew/alternating: repeated indices are pinned to zero")
    # a flagged tensor moves every permutation of the arguments with its sign
    moves = permutations(range(len(args))) if flag else [tuple(range(len(args)))]
    entries = codec.cells(tensor)
    for p in moves:
        at = out + tuple(args[q] for q in p)
        entries[at] = entries.get(at, 0) + perm_sign(p) * delta
    return put_at(value, field.path, codec.build(shape, entries, flag))
