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
masks, symmetric part), whose [1] is every column mask in the package.
bits picks its method from the mask: below 256, one lookup in BYTE_BITS;
a single set bit, its bit_length; at least one set bit in 32, a selection
from one shared tuple of index ints by the reversed binary digits
(itertools.compress), so a set bit costs one pointer; sparser, a
lowest-bit peel per set bit, cheaper there than reading every digit.

Small relations are shared. A reflexive relation on at most SMALL_N = 4
elements (is_small) is built once by Rel and prepared once by prepare,
each keyed on the row tuple in a table of at most 1 + 4 + 64 + 4,096 =
4,165 entries (_RELS, _PREPARED), so `is` may hold between equal small
Rels. A Rel on at most SMALL_N points carries its two axiom signatures
(_signatures, the bit layout in axioms.py's docstring), built with it:
axioms.check_axioms and the enumeration decide a small structure from
them, so deciding prepares nothing, and prepare's memo fills only as the
witnesses of failing verdicts are read. That memo keeps its own table
because most of its hits in a pass of the claims are the leq rows of
galois.find_adjoint and is_galois, which belong to no Rel. Every argument
check of Rel runs on every call, cached or not.

GroundSet, Rel, Diamond, Check, BiPoset and the value classes of the other
modules (Mapping, GaloisPair, AdjointReport, ExtremalReport, Finding) are
written by hand on one small base, _Value, rather than generated by
@dataclass at import: each CLI call would otherwise import dataclasses,
with inspect, and spend a few milliseconds making their methods. They keep
what a frozen slotted dataclass gives (repr, ==, hash, pickling, and
__match_args__, which names their fields), and every assignment or
deletion raises FrozenInstanceError, a field or not. _replace(**changes)
is a copy with some fields changed, as a namedtuple's. dataclasses.fields,
replace, asdict, astuple, is_dataclass and pprint apply to them as well:
the two attributes those read are built on first use (_DataclassTwin), so
only their callers import dataclasses. Only a _Value's __new__ or __init__
sets a field.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Iterator, Optional


class UsageError(ValueError):
    """Bad arguments at an API or CLI boundary. The CLI maps this to exit 2."""


class _DataclassTwin:
    """__dataclass_fields__ or __dataclass_params__ of a _Value subclass, the
    attributes that the dataclasses functions and pprint read. The first
    read on a class makes a frozen dataclass from the class's signature (its
    fields with their defaults) and caches both of that dataclass's
    attributes on the class, where they shadow this descriptor. _Value
    itself has neither, so it is no dataclass."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, cls: type):
        if cls is _Value:
            raise AttributeError(self.name)
        from dataclasses import make_dataclass
        from inspect import Parameter, signature
        twin = make_dataclass(cls.__qualname__, [
            (p.name, p.annotation) if p.default is Parameter.empty
            else (p.name, p.annotation, p.default)
            for p in signature(cls).parameters.values()], frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return getattr(twin, self.name)


class _Value:
    """An immutable value whose fields are its __match_args__, in order:
    repr, ==, hash, pickling and match arguments as a frozen slotted
    dataclass has them. A subclass's __init__ (Rel's __new__) checks its
    arguments and sets each slot with object.__setattr__, taking the fields
    in order as its parameters; pickling, copying and _replace call the
    class again."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassTwin()
    __dataclass_params__ = _DataclassTwin()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def _replace(self, **changes):
        """A copy with the named fields changed; an unknown name is a
        TypeError."""
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class GroundSet(_Value):
    __match_args__ = __slots__ = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        if not isinstance(labels, tuple) or not all(isinstance(lab, str) for lab in labels):
            raise UsageError("element labels must be a tuple of str")
        if not labels:
            raise UsageError("ground set must be non-empty")
        if any(not lab for lab in labels):
            raise UsageError("element labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise UsageError("element labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)

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


# (bits, cols, sym), a plain tuple: check_axioms unpacks two per call past
# SMALL_N points, and a tuple subclass unpacks several times slower
Prepared = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]
_PREPARED: dict[tuple[int, ...], Prepared] = {}

# the largest ground set whose reflexive relations are shared
SMALL_N = 4
_DIAGONAL = tuple(1 << a for a in range(SMALL_N))


def is_small(rows: tuple[int, ...]) -> bool:
    """rows is a reflexive relation on at most SMALL_N elements: a row tuple
    that prepare memoises and Rel shares."""
    return 0 < len(rows) <= SMALL_N and all(map(and_, rows, _DIAGONAL))


def prepare(rows: tuple[int, ...]) -> Prepared:
    """The prepared view of a relation given by its row masks: bits[a] =
    bits(rows[a]), cols[c] = {a : rows[a] has c} built with one OR per set
    bit, sym[a] = rows[a] & cols[a]. Memoised on the row tuple where
    is_small(rows)."""
    prep = _PREPARED.get(rows)
    if prep is None:
        rbits = tuple(map(bits, rows))
        cols = [0] * len(rows)
        for a, cs in enumerate(rbits):
            bit = 1 << a
            for c in cs:
                cols[c] |= bit
        prep = rbits, tuple(cols), tuple(r & c for r, c in zip(rows, cols))
        if is_small(rows):
            _PREPARED[rows] = prep
    return prep


# the signature bits that are no triple or pair, laid out as axioms.py's docstring says
_DIAGONAL_TRIPLES = 1 | 1 << 21 | 1 << 42 | 1 << 63      # (a, a, a) at 21a
_R1_BROKEN = 1 << 80    # r1 is not reflexive
_R2_BROKEN = 1 << 81    # r2 is not a preorder
_NOT_REFLEXIVE = (_R1_BROKEN | _R2_BROKEN,) * 2


def _signatures(rows: tuple[int, ...]) -> tuple[int, int]:
    """(sig1, sig2), a relation's roles as r1 and as r2, laid out as axioms.py's
    docstring says; _NOT_REFLEXIVE itself where not is_small(rows)."""
    if not is_small(rows):
        return _NOT_REFLEXIVE
    cols = [0] * len(rows)
    for a, row in enumerate(rows):
        for c in BYTE_BITS[row]:
            cols[c] |= 1 << a
    anti1 = anti2 = first1 = first2 = intransitive = 0
    for a, row in enumerate(rows):
        for b in BYTE_BITS[row & cols[a]]:
            anti1 |= row << (16 * a + 4 * b)
        for b, rowb in enumerate(rows):
            anti2 |= (row & rowb & cols[b]) << (16 * a + 4 * b)
            if row & rowb:
                first2 |= 1 << (4 * a + b)
        for c in BYTE_BITS[cols[a]]:
            first1 |= (row & ~rows[c]) << (4 * a)
        for c in BYTE_BITS[row]:
            if rows[c] & ~row:
                intransitive = _R2_BROKEN
    return (anti1 & ~_DIAGONAL_TRIPLES | first1 << 64 | _R2_BROKEN,
            anti2 | first2 << 64 | _R1_BROKEN | intransitive)


def preimage_rows(rows: tuple[int, ...], img: tuple[int, ...]) -> tuple[int, ...]:
    """Row masks read back through a map: bit i of out[k] is set iff img[i]
    is in rows[k]. The fibres of img are built once, so a call costs one OR
    per set bit of rows."""
    fibres = [0] * len(rows)
    for i, v in enumerate(img):
        fibres[v] |= 1 << i
    return tuple(reduce(or_, map(fibres.__getitem__, bits(row)), 0) for row in rows)


def _check_int(value: int, name: str) -> None:
    """value is an int, not a bool (a bool is an int to Python)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an int, not {type(value).__name__}")


def _check_size(n: int, name: str, low: int, high: int) -> None:
    """n is an int, not a bool, from low to high."""
    _check_int(n, name)
    if not low <= n <= high:
        raise UsageError(f"{name} must be between {low} and {high}")


def _check_index(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise UsageError(f"element index {i} out of range for n={n}")


_INT = frozenset((int,))
# the one Rel of each small row tuple
_RELS: dict[tuple[int, ...], Rel] = {}


def _check_ints(values: tuple[int, ...], name: str, item: str) -> None:
    """values, called name, is a tuple of exact ints, each called item: a
    bool or a numpy integer equals an int, so a shared Rel would otherwise
    take whichever came first, and a list would leave a value unhashable
    and open to change."""
    if type(values) is not tuple:
        raise UsageError(f"{name} must be a tuple, not {type(values).__name__}")
    if not {*map(type, values)} <= _INT:
        odd = next(v for v in values if type(v) is not int)
        raise UsageError(f"{item} must be an int, not {type(odd).__name__}")


class Rel(_Value):
    """Binary relation on {0..n-1}; bit j of rows[i] set iff (i, j) related.
    One instance per small row tuple (is_small), built on its first call."""

    __match_args__ = ("n", "rows")
    # and, on at most SMALL_N points, _signatures(rows): slots that are no fields
    __slots__ = (*__match_args__, "_sig1", "_sig2")

    def __new__(cls, n: int, rows: tuple[int, ...]) -> "Rel":
        _check_int(n, "relation dimension")
        _check_ints(rows, "relation rows", "relation row mask")
        # only small row tuples are stored, and a wide one is slow to hash
        shared = _RELS.get(rows) if len(rows) <= SMALL_N else None
        if shared is not None and shared.n == n:
            return shared
        if n < 1:
            raise UsageError("relation dimension must be at least 1")
        if len(rows) != n:
            raise UsageError("row count does not match dimension")
        if min(rows) < 0 or max(rows) >> n:
            raise UsageError("row mask has bits outside the ground set")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        if n > SMALL_N:
            return self
        sigs = _signatures(rows)
        object.__setattr__(self, "_sig1", sigs[0])
        object.__setattr__(self, "_sig2", sigs[1])
        # setdefault once both slots are set: two threads building equal rows get one Rel
        return self if sigs is _NOT_REFLEXIVE else _RELS.setdefault(rows, self)

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
        rows = []
        for i in range(n):
            row = 0
            for j in range(n):
                if pred(i, j):
                    row |= 1 << j
            rows.append(row)
        return Rel(n, tuple(rows))

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


class Diamond(_Value):
    __match_args__ = __slots__ = ("r1", "r2")

    def __init__(self, r1: Rel, r2: Rel) -> None:
        if type(r1) is not Rel or type(r2) is not Rel:
            raise UsageError(f"Diamond takes two Rels, not {type(r1).__name__} and "
                             f"{type(r2).__name__}")
        if r1.n != r2.n:
            raise UsageError("relation pair dimensions differ")
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)

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


class BiPoset(_Value):
    """Ground set plus diamond; certificate is set once validation has run."""

    __match_args__ = __slots__ = ("ground", "d", "certificate")

    def __init__(self, ground: GroundSet, d: Diamond, certificate: Optional[str] = None) -> None:
        if type(ground) is not GroundSet or type(d) is not Diamond:
            raise UsageError(f"BiPoset takes a GroundSet and a Diamond, not "
                             f"{type(ground).__name__} and {type(d).__name__}")
        if ground.n != d.n:
            raise UsageError("ground set and relation dimensions differ")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "certificate", certificate)

    @property
    def n(self) -> int:
        return self.ground.n


class Check(_Value):
    """Boolean verdict carrying the least witness when it fails."""

    __match_args__ = __slots__ = ("ok", "witness", "reason")

    def __init__(self, ok: bool, witness: Optional[tuple] = None,
                 reason: Optional[str] = None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def biposet(labels: Iterable[str], r1_pairs: Iterable[tuple[int, int]],
            r2_pairs: Iterable[tuple[int, int]]) -> BiPoset:
    """Convenience constructor from label list and index pair lists."""
    ground = GroundSet(tuple(labels))
    n = ground.n
    return BiPoset(ground, Diamond(Rel.from_pairs(n, r1_pairs), Rel.from_pairs(n, r2_pairs)))
