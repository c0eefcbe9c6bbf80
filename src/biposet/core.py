"""Ground sets, relations, and relation pairs.

A binary poset carries an ordered pair of relations (r1, r2) on one ground
set, written as a diamond. The two predicates everything else builds on are
chain membership, chain(d, a, b, c) = r1[a][b] and r2[b][c], and the
two-component comparison diamond_leq(d, a, b) = r1[a][b] and r2[a][b].

Elements are dense indices 0..n-1 internally; labels exist only at the I/O
boundary. Relations are stored as per-row integer bitmasks so that axiom
checks and enumeration reduce to machine-word operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class UsageError(ValueError):
    """Bad arguments at an API or CLI boundary. The CLI maps this to exit 2."""


@dataclass(frozen=True, slots=True)
class GroundSet:
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise UsageError("ground set must be non-empty")
        if any(not lab for lab in self.labels):
            raise UsageError("element labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("element labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UsageError(f"unknown element {label!r}") from None


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_index(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise UsageError(f"element index {i} out of range for n={n}")


@dataclass(frozen=True, slots=True)
class Rel:
    """Binary relation on {0..n-1}; bit j of rows[i] set iff (i, j) related."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError("relation dimension must be at least 1")
        if len(self.rows) != self.n:
            raise UsageError("row count does not match dimension")
        mask = (1 << self.n) - 1
        if any(r & ~mask for r in self.rows):
            raise UsageError("row mask has bits outside the ground set")

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        rows = [0] * n
        for i, j in pairs:
            _check_index(i, n)
            _check_index(j, n)
            rows[i] |= 1 << j
        return Rel(n, tuple(rows))

    @staticmethod
    def from_predicate(n: int, pred) -> "Rel":
        return Rel.from_pairs(n, ((i, j) for i in range(n) for j in range(n) if pred(i, j)))

    @staticmethod
    def identity(n: int) -> "Rel":
        return Rel(n, tuple(1 << i for i in range(n)))

    @staticmethod
    def full(n: int) -> "Rel":
        mask = (1 << n) - 1
        return Rel(n, (mask,) * n)

    def has(self, i: int, j: int) -> bool:
        _check_index(i, self.n)
        _check_index(j, self.n)
        return bool((self.rows[i] >> j) & 1)

    def col(self, j: int) -> int:
        """Column mask: bit i set iff (i, j) related."""
        _check_index(j, self.n)
        out = 0
        for i in range(self.n):
            out |= ((self.rows[i] >> j) & 1) << i
        return out

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            row = self.rows[i]
            while row:
                j = (row & -row).bit_length() - 1
                yield (i, j)
                row &= row - 1

    def transpose(self) -> "Rel":
        cols = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in bits(row):
                cols[j] |= 1 << i
        return Rel(self.n, tuple(cols))

    def __and__(self, other: "Rel") -> "Rel":
        if self.n != other.n:
            raise UsageError("relation dimensions differ")
        return Rel(self.n, tuple(a & b for a, b in zip(self.rows, other.rows)))

    @property
    def code(self) -> int:
        """Row-major bit encoding; total order on same-dimension relations."""
        out = 0
        for i, row in enumerate(self.rows):
            out |= row << (i * self.n)
        return out


@dataclass(frozen=True, slots=True)
class Diamond:
    r1: Rel
    r2: Rel

    def __post_init__(self) -> None:
        if self.r1.n != self.r2.n:
            raise UsageError("relation pair dimensions differ")

    @property
    def n(self) -> int:
        return self.r1.n

    @property
    def code(self) -> tuple[int, int]:
        return (self.r1.code, self.r2.code)

    def leq_rows(self) -> tuple[int, ...]:
        """Row masks of the two-component comparison r1 & r2."""
        return tuple(a & b for a, b in zip(self.r1.rows, self.r2.rows))


def chain(d: Diamond, a: int, b: int, c: int) -> bool:
    """True iff a r1 b and b r2 c."""
    n = d.n
    _check_index(a, n)
    _check_index(b, n)
    _check_index(c, n)
    return bool((d.r1.rows[a] >> b) & (d.r2.rows[b] >> c) & 1)


def diamond_leq(d: Diamond, a: int, b: int) -> bool:
    """True iff a relates to b in both components at once."""
    n = d.n
    _check_index(a, n)
    _check_index(b, n)
    return bool((d.r1.rows[a] >> b) & (d.r2.rows[a] >> b) & 1)


@dataclass(frozen=True)
class BiPoset:
    """Ground set plus diamond; certificate is set once validation has run."""

    ground: GroundSet
    d: Diamond
    certificate: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ground.n != self.d.n:
            raise UsageError("ground set and relation dimensions differ")

    @property
    def n(self) -> int:
        return self.ground.n


@dataclass(frozen=True, slots=True)
class Check:
    """Boolean verdict carrying the least witness when it fails."""

    ok: bool
    witness: Optional[tuple] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def biposet(labels: Iterable[str], r1_pairs: Iterable[tuple[int, int]],
            r2_pairs: Iterable[tuple[int, int]]) -> BiPoset:
    """Convenience constructor from label list and index pair lists."""
    ground = GroundSet(tuple(labels))
    n = ground.n
    return BiPoset(ground, Diamond(Rel.from_pairs(n, r1_pairs), Rel.from_pairs(n, r2_pairs)))
