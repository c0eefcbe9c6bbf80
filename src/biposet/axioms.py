"""Axiom checkers.

check_axioms decides the three diamond axioms:

  reflexive      a r1 a and a r2 a for every a
  antisymmetric  chain(a,b,c) and chain(b,a,c) and chain(a,c,b) force a=b=c
  transitive     chain(a,b,c) and chain(b,d,c) and c r2 e force
                 chain(a,d,c) and chain(a,b,e)

check_classical_por decides the usual single-relation partial order axioms.
Both return an AxiomVerdict: one core.Check(ok, witness, reason) per axiom,
the type every other predicate returns, read in axiom order by items(). A
failing Check carries the lexicographically least violating tuple, so
verdicts are deterministic and directly comparable across implementations;
a transitivity failure's reason says which conclusion breaks: "first",
"second" or "both".

A structure on at most SMALL_N = 4 points is decided by one AND. The
axioms are universal Horn sentences (Horn, J. Symb. Logic 16, 1951) in
which r1 and r2 meet only through shared indices, so each failure splits
into a set read from r1 alone and a set read from r2 alone, and the axiom
fails iff the two meet. _signatures packs them into two ints per relation,
sig1 for its role as r1 and sig2 for its role as r2; the structure is valid
iff sig1(r1) & sig2(r2) == 0. Bit 16a + 4b + c holds a triple, bit
64 + 4b + d a pair:

  antisymmetry   (a, b, c) other than (a, a, a) with b in sym1[a] and c in
                 r1[a] (sig1), and c in r2[a] and in sym2[b] (sig2)
  transitivity,  (b, d) with a r1 b, b r1 d and not a r1 d for some a
  first          (sig1), and r2[b] & r2[d] non-empty (sig2): a reflexive
                 r2 gives its c the e that c r2 e asks for
  transitivity,  a = b = d meets every r1 premise of a reflexive r1, so
  second         it fails iff r2 is not transitive: bit 81, set in every
                 sig1 and in the sig2 of an r2 that is not a preorder
  reflexivity    bit 80, set in every sig2 and in the sig1 of an r1 that
                 is not reflexive; bit 81 in the sig2 of such an r2

The signatures of a small relation (core.is_small) are built from its rows
once and kept, at most 4,165 entries; a relation outside that domain is
not reflexive and gets the two bits alone. A structure with more points is
read through core.prepare: the set-bit indices of every row as tuples, the
column masks and the symmetric part sym[a] = rows[a] & cols[a]. Every
search iterates those tuples instead of peeling bits off each row it
visits, and a structure whose r1 and r2 share a row tuple is prepared
once. check_classical_por reads the same view.

On more than SMALL_N points, check_axioms runs the three least-witness
searches in one pass, without stopping at the first axiom that fails, and
returns the verdict they make: every caller there reads the witnesses of
a failing verdict. Antisymmetry takes b from sym1[a], where the premise
needs a r1 b and b r1 a. Transitivity first finds the least failing
pair (a, b), per b with one union over the c in row2[b], so a valid
structure costs O(|r1| + |r2|) word operations, and only then scans that
pair for its (c, d, e). Either way a valid structure gets the one shared verdict
_VALID. A failing structure on at most SMALL_N points gets a deferred
AxiomVerdict holding its two row tuples: ok is False at once, and the
first read of any Check prepares both relations (core memoises a small
relation's view), runs the same three searches and keeps them; only error
and refutation paths read them. The signatures are cross-checked against
the searches exhaustively at n <= 3 and against the enumeration at n = 4.
Batches that need validity alone go to the enumeration's bit-plane kernel
(enumeration.validity_kernel).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Optional

from .core import (BYTE_BITS, SMALL_N, BiPoset, Check, Diamond, Rel, UsageError, bits, is_small,
                   lsb, prepare)


_AXIOMS = ("reflexive", "antisymmetric", "transitive")


class AxiomVerdict:
    """One Check per axiom; items() is the one place the axiom order lives.

    Built from three Checks, or by check_axioms as a deferred verdict of a
    failing structure on at most SMALL_N points: ok is False at once, and
    the first read of any Check searches all three least witnesses, then
    keeps them. The Checks and ok are read-only properties; ok is fixed
    when the verdict is built, so reading it calls no Check."""

    __slots__ = ("_checks", "_rows", "_ok")

    def __init__(self, reflexive: Check, antisymmetric: Check, transitive: Check) -> None:
        self._checks = (reflexive, antisymmetric, transitive)
        self._ok = all(self._checks)

    def _resolved(self) -> tuple[Check, Check, Check]:
        if self._checks is None:
            checks = _axiom_checks(*self._rows)
            if all(checks):
                raise RuntimeError("axiom decision and witness searches disagree")
            self._checks = checks
        return self._checks

    reflexive = property(lambda self: self._resolved()[0])
    antisymmetric = property(lambda self: self._resolved()[1])
    transitive = property(lambda self: self._resolved()[2])

    def items(self) -> Iterator[tuple[str, Check]]:
        """(axiom name, Check) pairs in axiom order."""
        return zip(_AXIOMS, self._resolved())

    # a deferred verdict is never ok: check_axioms returns _VALID then
    ok = property(attrgetter("_ok"), doc="Whether every axiom holds.")

    def __bool__(self) -> bool:
        return self._ok

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._resolved() == other._resolved()

    def __hash__(self) -> int:
        return hash(self._resolved())

    def __reduce__(self) -> tuple:
        return AxiomVerdict, self._resolved()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={check!r}" for name, check in self.items())
        return f"AxiomVerdict({fields})"


_HOLDS = Check(True)
_VALID = AxiomVerdict(_HOLDS, _HOLDS, _HOLDS)


def _verdict_failure(verdict: AxiomVerdict) -> dict:
    for name, ax in verdict.items():
        if not ax.ok:
            out = {"axiom": name, "witness": ax.witness}
            if ax.reason:   # the witness key stays "detail": frozen digests hash it
                out["detail"] = ax.reason
            return out
    raise UsageError("verdict has no failure")


def _check_reflexive(rows1: tuple[int, ...], rows2: tuple[int, ...]) -> Check:
    for a, (row1a, row2a) in enumerate(zip(rows1, rows2)):
        if not ((row1a & row2a) >> a) & 1:
            return Check(False, (a,))
    return _HOLDS


def _antisymmetric(rows1: tuple[int, ...], sym1: tuple[int, ...],
                   rows2: tuple[int, ...], sym2: tuple[int, ...]) -> Check:
    for a, sym in enumerate(sym1):
        # the premise needs a r1 b and b r1 a, so b ranges over sym1[a]
        base = rows1[a] & rows2[a]
        if not base:
            continue
        for b in bits(sym):
            cmask = base & sym2[b]
            if a == b:
                cmask &= ~(1 << a)
            if cmask:
                return Check(False, (a, b, lsb(cmask)))
    return _HOLDS


def _transitive_pair(rows1: tuple[int, ...], bits1: tuple[tuple[int, ...], ...],
                     rows2: tuple[int, ...], bits2: tuple[tuple[int, ...], ...],
                     cols2: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The least (a, b) with a violating (c, d, e), or None."""
    # Over the c in row2[b] whose d set row1[b] & col2[c] and e set row2[c]
    # are both non-empty, U[b] is the union of the d sets and E[b] that of
    # the e values outside row2[b]; (a, b) has a violating c iff
    # (U[b] & ~row1[a]) | E[b] is non-empty. A non-empty E[b] fails every a,
    # so it is stored as U[b] = -1, which leaves U[b] & ~row1[a] non-zero.
    # U[b] is built on first use, so an early failure stays cheap.
    U: list[Optional[int]] = [None] * len(rows1)
    for a, bs in enumerate(bits1):
        outside = ~rows1[a]
        for b in bs:
            u = U[b]
            if u is None:
                row1b = rows1[b]
                u = e = 0
                for c in bits2[b]:
                    row2c = rows2[c]
                    if row2c and row1b & cols2[c]:
                        u |= cols2[c]
                        e |= row2c
                u = U[b] = -1 if e & ~rows2[b] else u & row1b
            if u & outside:
                return a, b
    return None


def _transitive(rows1: tuple[int, ...], bits1: tuple[tuple[int, ...], ...],
                rows2: tuple[int, ...], bits2: tuple[tuple[int, ...], ...],
                cols2: tuple[int, ...]) -> Check:
    pair = _transitive_pair(rows1, bits1, rows2, bits2, cols2)
    if pair is None:
        return _HOLDS
    # the least violating (c, d, e) of the least failing pair (a, b)
    a, b = pair
    row1a, row1b, row2b = rows1[a], rows1[b], rows2[b]
    for c in bits2[b]:
        dmask = row1b & cols2[c]
        emask = rows2[c]
        if not dmask or not emask:
            continue
        dbad = dmask & ~row1a   # d values breaking the first conclusion
        ebad = emask & ~row2b   # e values breaking the second
        if not dbad and not ebad:
            continue
        d0 = lsb(dmask)
        if dbad >> d0 & 1:
            e0 = lsb(emask)
            return Check(False, (a, b, c, d0, e0), "both" if ebad >> e0 & 1 else "first")
        if ebad:
            return Check(False, (a, b, c, d0, lsb(ebad)), "second")
        return Check(False, (a, b, c, lsb(dbad), lsb(emask)), "first")
    raise RuntimeError("transitivity decision and witness scan disagree")


def _axiom_checks(rows1: tuple[int, ...], rows2: tuple[int, ...]) -> tuple[Check, Check, Check]:
    """The three least-witness Checks, with a row tuple that r1 and r2
    share prepared once."""
    bits1, _, sym1 = prep1 = prepare(rows1)
    bits2, cols2, sym2 = prep1 if rows2 == rows1 else prepare(rows2)
    return (_check_reflexive(rows1, rows2), _antisymmetric(rows1, sym1, rows2, sym2),
            _transitive(rows1, bits1, rows2, bits2, cols2))


# the signature bits that are no triple or pair, laid out as the module docstring says
_DIAGONAL_TRIPLES = 1 | 1 << 21 | 1 << 42 | 1 << 63      # (a, a, a) at 21a
_R1_BROKEN = 1 << 80    # r1 is not reflexive
_R2_BROKEN = 1 << 81    # r2 is not a preorder
_NOT_REFLEXIVE = (_R1_BROKEN | _R2_BROKEN,) * 2
# (sig1, sig2) of each small row tuple
_SIGNATURES: dict[tuple[int, ...], tuple[int, int]] = {}


def _signatures(rows: tuple[int, ...]) -> tuple[int, int]:
    """(sig1, sig2) of a relation on at most SMALL_N points, its roles as r1
    and as r2, laid out as the module docstring says; built from the rows
    and memoised where is_small(rows)."""
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
    sig = (anti1 & ~_DIAGONAL_TRIPLES | first1 << 64 | _R2_BROKEN,
           anti2 | first2 << 64 | _R1_BROKEN | intransitive)
    _SIGNATURES[rows] = sig
    return sig


def check_axioms(d: Diamond) -> AxiomVerdict:
    """Decide the three diamond axioms. Past SMALL_N points the verdict
    holds its least witnesses; on fewer, a failing verdict searches them
    when it is first read."""
    rows1, rows2 = d.r1.rows, d.r2.rows
    if len(rows1) > SMALL_N:
        checks = _axiom_checks(rows1, rows2)
        return _VALID if all(checks) else AxiomVerdict(*checks)
    if not (_SIGNATURES.get(rows1) or _signatures(rows1))[0] & (
            _SIGNATURES.get(rows2) or _signatures(rows2))[1]:
        return _VALID
    verdict = object.__new__(AxiomVerdict)
    verdict._checks, verdict._rows, verdict._ok = None, (rows1, rows2), False
    return verdict


def check_classical_por(r: Rel) -> AxiomVerdict:
    """Classical partial-order verdict for a single relation."""
    rows = r.rows
    rbits, _, sym = prepare(rows)
    anti = trans = _HOLDS
    for a, s in enumerate(sym):
        m = s & ~(1 << a)
        if m:
            anti = Check(False, (a, lsb(m)))
            break

    for a, rowa in enumerate(rows):
        for b in rbits[a]:
            bad = rows[b] & ~rowa
            if bad:
                trans = Check(False, (a, b, lsb(bad)))
                break
        if not trans:
            break

    return AxiomVerdict(reflexive=_check_reflexive(rows, rows), antisymmetric=anti,
                        transitive=trans)


def _fmt_witness(labels: tuple[str, ...], ax: Check) -> str:
    """A failing Check's witness in element labels, with its reason."""
    parts = " ".join(labels[i] for i in ax.witness)
    return parts + (f" ({ax.reason})" if ax.reason else "")


def validated(bp: BiPoset) -> BiPoset:
    """Return bp with a validity certificate, checking axioms if needed.

    Raises UsageError when the structure fails an axiom; callers with a
    validity precondition funnel through here. The error names the first
    failing axiom, but reading it searches all three least witnesses: on an
    invalid input that is what `biposet check` pays on the same input.
    """
    if bp.certificate == "valid":
        return bp
    verdict = check_axioms(bp.d)
    for name, ax in verdict.items():
        if not ax.ok:
            raise UsageError(f"structure fails the {name} axiom at "
                             f"{_fmt_witness(bp.ground.labels, ax)}")
    return BiPoset(bp.ground, bp.d, certificate="valid")
