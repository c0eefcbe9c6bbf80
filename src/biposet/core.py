"""Ground sets, relations, and relation pairs.

A binary poset carries an ordered pair of relations (r1, r2) on one ground
set, written as a diamond. The two predicates everything else builds on are
chain membership, chain(d, a, b, c) = r1[a][b] and r2[b][c], and the
two-component comparison diamond_leq(d, a, b) = r1[a][b] and r2[a][b].

Elements are dense indices 0..n-1 internally; labels exist only at the I/O
boundary. Relations are stored as per-row integer bitmasks so that axiom
checks and enumeration reduce to machine-word operations.

Every other module reads masks through three primitives here: bits(mask),
the one set-bit extractor; lsb(mask), the one lowest-bit index; and
prepare(rows), the one prepared view of a relation (set-bit tuples, column
masks, reflexive flag, symmetric part), whose [1] is every column mask in
the package. bits picks its method from the mask: below 256, one lookup in
BYTE_BITS; a single set bit, its bit_length; at least one set bit in 32, a
selection from one shared tuple of index ints by the reversed binary
digits (itertools.compress), so a set bit costs one pointer; sparser, a
lowest-bit peel per set bit, cheaper there than reading every digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
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


# the set bits of each v < 256; v + 2**b has those of v < 2**b, then b
BYTE_BITS = reduce(lambda t, b: t + tuple(bs + (b,) for bs in t), range(8), ((),))
_BIN01 = bytes.maketrans(b"01", b"\0\1")
# 0, 1, 2, ...: replaced by a longer tuple that keeps its ints, never
# extended in place, so a concurrent caller keeps the tuple it read
_INDEX = tuple(range(256))


def bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending; the module docstring says
    how the method is picked."""
    global _INDEX
    if mask < 256:
        return BYTE_BITS[mask]
    width = mask.bit_length()
    count = mask.bit_count()
    if count == 1:   # as every row of a partial order's symmetric part
        return (width - 1,)
    if count << 5 >= width:
        index = _INDEX
        if len(index) < width:
            index = _INDEX = index + tuple(range(len(index), max(width, 2 * len(index))))
        return tuple(compress(index, bin(mask)[:1:-1].encode().translate(_BIN01)))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def lsb(mask: int) -> int:
    """Index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


# (bits, cols, reflexive, sym), a plain tuple: check_axioms unpacks two per
# call, and a tuple subclass unpacks several times slower
Prepared = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], bool, tuple[int, ...]]
_PREPARED: dict[tuple[int, ...], Prepared] = {}


def prepare(rows: tuple[int, ...]) -> Prepared:
    """The prepared view of a relation given by its row masks: bits[a] =
    bits(rows[a]), cols[c] = {a : rows[a] has c} built with one OR per set
    bit, reflexive iff every a relates to itself, sym[a] = rows[a] & cols[a].
    Memoised on the row tuple for reflexive relations on at most 4 elements,
    at most 1 + 4 + 64 + 4,096 = 4,165 entries."""
    prep = _PREPARED.get(rows)
    if prep is None:
        rbits = tuple(map(bits, rows))
        cols = [0] * len(rows)
        refl = True
        for a, cs in enumerate(rbits):
            bit = 1 << a
            for c in cs:
                cols[c] |= bit
            if not rows[a] & bit:
                refl = False
        prep = rbits, tuple(cols), refl, tuple(r & c for r, c in zip(rows, cols))
        if refl and len(rows) <= 4:
            _PREPARED[rows] = prep
    return prep


def preimage_rows(rows: tuple[int, ...], img: tuple[int, ...]) -> tuple[int, ...]:
    """Row masks read back through a map: bit i of out[k] is set iff img[i]
    is in rows[k]. The fibres of img are built once, so a call costs one OR
    per set bit of rows."""
    fibres = [0] * len(rows)
    for i, v in enumerate(img):
        fibres[v] |= 1 << i
    return tuple(reduce(or_, map(fibres.__getitem__, bits(row)), 0) for row in rows)


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
        if min(self.rows) < 0 or max(self.rows) >> self.n:
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

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in bits(row):
                yield (i, j)

    def transpose(self) -> "Rel":
        return Rel(self.n, prepare(self.rows)[1])

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
