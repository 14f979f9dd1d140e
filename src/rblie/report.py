"""Verification reports: localized violations with exact residuals.

Verifiers never return bare booleans.  Each check evaluates one condition
at one basis index tuple and yields a residual vector; a nonzero residual
becomes a `Violation`.  Reports are sorted by (condition, indices) so their
line rendering is stable across runs, whatever order the checks come in.

A check builder is a sum of `family` lists: one condition id, a residual
function of basis indices and the index tuples it is checked at, each
bound with `functools.partial`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, total_ordering
from typing import Callable, Iterable

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


def family(condition: str, residual: Callable[..., Residual],
           indices: Iterable[tuple[int, ...]]) -> list[Check]:
    """`condition` at each tuple of `indices`, its thunk `residual(*idx)`
    bound by `partial`, so each thunk keeps its own tuple."""
    return [(condition, idx, partial(residual, *idx)) for idx in indices]


def run_checks(checks: Iterable[Check], workers: int = 1) -> VerificationReport:
    """Evaluate every check serially, in one pass over `checks`, counting
    them and keeping only the violations.  `workers` is accepted for
    compatibility and ignored."""
    checked, violations = 0, []
    for checked, (cond, idx, fn) in enumerate(checks, 1):
        res = fn()
        if any(res):
            violations.append(Violation(cond, idx, res))
    return VerificationReport(checked=checked, violations=tuple(violations))


def prefix_checks(prefix: str, checks: Iterable[Check]) -> list[Check]:
    return [(f"{prefix}{cond}", idx, fn) for cond, idx, fn in checks]
