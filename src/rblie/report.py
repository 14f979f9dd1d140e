"""Verification reports: localized violations with exact residuals.

Verifiers never return bare booleans.  Each check evaluates one condition
at one basis index tuple and yields a residual vector; a nonzero residual
becomes a `Violation`.  Reports are sorted by (condition, indices) so their
line rendering is stable across runs, whatever order the checks come in.

A check builder returns `Checks`, a sum of `family` values: a condition
id, a residual of basis indices, a maker of its index tuples and their
number.  No check exists before `run_checks` iterates them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial, total_ordering
from itertools import combinations, combinations_with_replacement, product, repeat
from math import comb, prod
from typing import Callable, Iterable, Iterator

from .errors import InternalInvariantBroken
from .value import Value

Residual = tuple[int | Fraction, ...]  # exact coordinates, never float
# (condition id, basis index tuple, thunk computing the residual)
Check = tuple[str, tuple[int, ...], Callable[[], Residual]]


def _fmt_tuple(xs) -> str:
    return "(" + ",".join(str(x) for x in xs) + ")"


@total_ordering
class Violation(Value):
    condition: str
    indices: tuple[int, ...]
    residual: Residual

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) < other._compared(other)

    def line(self) -> str:
        return f"VIOLATION {self.condition} {_fmt_tuple(self.indices)} {_fmt_tuple(self.residual)}"


class VerificationReport(Value):
    checked: int
    violations: tuple[Violation, ...]

    def __post_init__(self):
        object.__setattr__(self, "violations",
                           tuple(sorted(self.violations,
                                        key=lambda v: (v.condition, v.indices))))

    @property
    def ok(self) -> bool:
        return not self.violations

    def conditions(self) -> frozenset[str]:
        return frozenset(v.condition for v in self.violations)

    def lines(self) -> list[str]:
        return [v.line() for v in self.violations]

    def require_ok(self, what: str) -> None:
        """Raise `InternalInvariantBroken` when a construction's output
        failed its verifier."""
        if not self.ok:
            raise InternalInvariantBroken(
                f"{what} failed verification: " + "; ".join(self.lines()[:4]))

    def at(self, condition: str, indices: tuple[int, ...]) -> Violation | None:
        for v in self.violations:
            if v.condition == condition and v.indices == indices:
                return v
        return None


class Checks:
    """Families (condition id, residual, index tuples, count), iterated as
    checks made one by one; a vector residual is read by one shared thunk."""
    __slots__ = ("families",)

    def __init__(self, families: tuple):
        self.families = families

    def __add__(self, other: "Checks") -> "Checks":
        return Checks(self.families + other.families)

    def prefixed(self, prefix: str) -> "Checks":
        return Checks(tuple((prefix + cond, *rest) for cond, *rest in self.families))

    @property
    def count(self) -> int:
        return sum(fam[3] for fam in self.families)

    def __iter__(self) -> Iterator[Check]:
        for cond, residual, tuples, count in self.families:
            shared = None if callable(residual) else repeat(residual).__next__
            for idx in tuples() if count else ():
                yield cond, idx, shared or partial(residual, *idx)


def family(condition: str, residual, tuples, count: int) -> Checks:
    """`condition` at each of the `count` tuples that `tuples()` makes, each
    thunk `residual(*idx)` bound by `partial` to its own tuple."""
    return Checks(((condition, residual, tuples, count),))


@cache
def grid(*bounds: int) -> tuple:
    """(maker, count) of the tuples below `bounds`, in lexicographic order."""
    return partial(product, *map(range, bounds)), prod(bounds)


@cache
def choose(n: int, k: int, repeat: bool = False) -> tuple:
    """(maker, count) of the sorted `k`-tuples (k >= 1) of distinct indices
    below `n`, or of indices with repeats when `repeat`."""
    pick = combinations_with_replacement if repeat else combinations
    return partial(pick, range(n), k), comb(n + k - 1 if repeat else n, k)


def run_checks(checks: Iterable[Check], workers: int = 1) -> VerificationReport:
    """Evaluate every check serially, in one pass over `checks`, counting
    them and keeping only the violations.  `workers` is ignored; it stays
    only because the benchmark's tracer passes it positionally."""
    checked, violations = 0, []
    for checked, (cond, idx, fn) in enumerate(checks, 1):
        res = fn()
        if any(res):
            violations.append(Violation(cond, idx, res))
    return VerificationReport(checked=checked, violations=tuple(violations))
