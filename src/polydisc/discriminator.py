"""Brute-force discriminator oracle.

D_f(n) is the least positive m under which f(1), ..., f(n) are pairwise
distinct mod m, or nonexistent when the values themselves collide. Each
search computes the exact values f(1..n) once and checks every candidate m
by reducing those integers mod m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .poly import Polynomial


class BoundViolationError(RuntimeError):
    """A caller-supplied upper bound was exhausted although a value exists."""


@dataclass(frozen=True)
class SearchBounds:
    """Candidate-modulus window: inclusive lower, exclusive upper (None = unbounded)."""

    lower: int = 1
    upper: Optional[int] = None

    def __post_init__(self):
        if self.lower < 1:
            raise ValueError("lower bound must be >= 1")
        if self.upper is not None and self.upper <= self.lower:
            raise ValueError("inconsistent bounds: upper must exceed lower")


@dataclass(frozen=True)
class DiscriminatorResult:
    """Minimal discriminating modulus (None = nonexistent) plus search stats."""

    value: Optional[int]
    n: int
    candidates_tested: int

    @property
    def exists(self) -> bool:
        return self.value is not None


def is_discriminating(values: Sequence[int], m: int) -> bool:
    """True iff the integers in `values` are pairwise distinct mod m.

    Exits on the first repeated residue; memory grows with len(values),
    never with m.
    """
    if not values or m < 1:
        raise ValueError("values must be nonempty and m must be >= 1")
    seen = set()
    for v in values:
        r = v % m
        if r in seen:
            return False
        seen.add(r)
    return True


def trivial_upper_bound(values: Sequence[int]) -> Optional[int]:
    """max - min + 1 of `values` when they are distinct, else None.

    Any m at or above the spread fits the distinct values into distinct
    residues, so the minimal discriminating m exists at or below this bound.
    """
    if not values:
        raise ValueError("values must be nonempty")
    if len(set(values)) < len(values):
        return None
    return max(values) - min(values) + 1


def _least_modulus(values: Sequence[int], lower: int, upper: int) -> DiscriminatorResult:
    """The least m in [lower, upper) under which `values` are pairwise distinct."""
    for m in range(lower, upper):
        if is_discriminating(values, m):
            return DiscriminatorResult(m, len(values), m - lower + 1)
    raise BoundViolationError(f"no discriminating modulus in [{lower}, {upper}) at n={len(values)}")


def compute(
    f: Polynomial,
    n: int,
    bounds: Optional[SearchBounds] = None,
) -> DiscriminatorResult:
    """Ascending scan for the minimal discriminating modulus.

    Without bounds the scan starts at n (pigeonhole lower bound) and is
    capped by the trivial spread bound, so it always terminates. Explicit
    bounds are validated: exhausting a caller-supplied upper raises
    BoundViolationError, since the trivial bound proves a value exists.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values = f.values(n)
    tub = trivial_upper_bound(values)
    if tub is None:
        return DiscriminatorResult(None, n, 0)
    if bounds is None:
        return _least_modulus(values, n, tub + 1)
    upper = bounds.upper if bounds.upper is not None else max(tub + 1, bounds.lower + 1)
    return _least_modulus(values, bounds.lower, upper)


def scan(
    f: Polynomial,
    n_max: int,
    upper_bound: Optional[Callable[[int], int]] = None,
) -> list[DiscriminatorResult]:
    """compute(f, n) for n = 1..n_max with monotone warm starts.

    D_f(n) >= D_f(n-1), so each search resumes at the previous value.
    `upper_bound`, when given, maps n to an inclusive cap on D_f(n) that the
    caller guarantees (e.g. the p^ceil(log_p n) bound for x(p^r x - 1)).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    results: list[DiscriminatorResult] = []
    values: list[int] = []  # f(1..n), grown in place
    seen_values: set[int] = set()
    vmin = vmax = None
    collided = False
    prev = 1
    for n in range(1, n_max + 1):
        v = f.evaluate(n)
        values.append(v)
        if v in seen_values:
            collided = True
        seen_values.add(v)
        vmin = v if vmin is None else min(vmin, v)
        vmax = v if vmax is None else max(vmax, v)
        if collided:
            results.append(DiscriminatorResult(None, n, 0))
            continue
        hi = vmax - vmin + 2
        if upper_bound is not None:
            hi = min(hi, upper_bound(n) + 1)
        result = _least_modulus(values, max(prev, n), hi)
        results.append(result)
        prev = result.value
    return results
