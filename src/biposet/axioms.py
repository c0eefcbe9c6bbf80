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

Everything works on the row masks of Rel, with the r2 columns built once
and shared. Transitivity is decided before any witness is searched: per b,
one union over the c in row2[b] says which a fail, so a valid structure
costs O(|r1| + |r2|) word operations, and the c, d, e search runs only
inside the first failing pair (a, b), which keeps the least witness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import BiPoset, Check, Diamond, Rel, UsageError, bits, transpose_rows


def _lsb(x: int) -> int:
    return (x & -x).bit_length() - 1


@dataclass(frozen=True, slots=True)
class AxiomVerdict:
    """One Check per axiom; items() is the one place the axiom order lives."""

    reflexive: Check
    antisymmetric: Check
    transitive: Check

    def items(self) -> Iterator[tuple[str, Check]]:
        """(axiom name, Check) pairs in axiom order."""
        for field in dataclasses.fields(self):
            yield field.name, getattr(self, field.name)

    @property
    def ok(self) -> bool:
        return self.reflexive.ok and self.antisymmetric.ok and self.transitive.ok

    def __bool__(self) -> bool:
        return self.ok


_HOLDS = Check(True)


def _check_reflexive(rows1: tuple[int, ...], rows2: tuple[int, ...]) -> Check:
    for a, (row1a, row2a) in enumerate(zip(rows1, rows2)):
        if not ((row1a & row2a) >> a) & 1:
            return Check(False, (a,))
    return _HOLDS


def _check_antisymmetric(rows1: tuple[int, ...], rows2: tuple[int, ...],
                         cols2: tuple[int, ...]) -> Check:
    for a, row1a in enumerate(rows1):
        base = row1a & rows2[a]
        if not base:
            continue
        # premise needs a r1 b and b r1 a before any c can qualify; the
        # lowest-bit loop is bits() inlined, as this runs once per structure
        todo = row1a
        while todo:
            low = todo & -todo
            todo ^= low
            b = low.bit_length() - 1
            if not ((rows1[b] >> a) & 1):
                continue
            cmask = base & rows2[b] & cols2[b]
            if a == b:
                cmask &= ~low
            if cmask:
                return Check(False, (a, b, _lsb(cmask)))
    return _HOLDS


def _check_transitive(rows1: tuple[int, ...], rows2: tuple[int, ...],
                      cols2: tuple[int, ...]) -> Check:
    # Decide per b before searching. Over the c in row2[b] whose d set
    # row1[b] & col2[c] and e set row2[c] are both non-empty, U[b] is the
    # union of the d sets and E[b] that of the e values outside row2[b];
    # (a, b) has a violating c iff (U[b] & ~row1[a]) | E[b] is non-empty.
    # U[b] and E[b] are built on first use, so an early failure stays cheap.
    n = len(rows1)
    U: list[Optional[int]] = [None] * n
    E = [0] * n
    for a, row1a in enumerate(rows1):
        todo = row1a
        while todo:
            low = todo & -todo
            todo ^= low
            b = low.bit_length() - 1
            u = U[b]
            if u is None:
                row1b, row2b = rows1[b], rows2[b]
                u = e = 0
                for c in bits(row2b):
                    if rows2[c] and row1b & cols2[c]:
                        u |= cols2[c]
                        e |= rows2[c]
                u = U[b] = u & row1b
                E[b] = e & ~row2b
            if E[b] or u & ~row1a:
                return _transitive_witness(a, b, rows1, rows2, cols2)
    return _HOLDS


def _transitive_witness(a: int, b: int, rows1: tuple[int, ...], rows2: tuple[int, ...],
                        cols2: tuple[int, ...]) -> Check:
    """Least violating (c, d, e) for a pair (a, b) known to hold one."""
    row1a = rows1[a]
    row1b, row2b = rows1[b], rows2[b]
    for c in bits(row2b):
        dmask = row1b & cols2[c]
        emask = rows2[c]
        if not dmask or not emask:
            continue
        dbad = dmask & ~row1a   # d values breaking the first conclusion
        ebad = emask & ~row2b   # e values breaking the second
        if not dbad and not ebad:
            continue
        d0 = _lsb(dmask)
        if (dbad >> d0) & 1:
            e0 = _lsb(emask)
            reason = "both" if (ebad >> e0) & 1 else "first"
            return Check(False, (a, b, c, d0, e0), reason)
        if ebad:
            return Check(False, (a, b, c, d0, _lsb(ebad)), "second")
        return Check(False, (a, b, c, _lsb(dbad), _lsb(emask)), "first")
    raise RuntimeError("transitivity decision and witness scan disagree")


def _holds(rows1: tuple[int, ...], rows2: tuple[int, ...], cols2: tuple[int, ...]) -> bool:
    """Validity alone: stops at the first failing axiom and builds no verdict."""
    return (_check_reflexive(rows1, rows2) is _HOLDS
            and _check_antisymmetric(rows1, rows2, cols2) is _HOLDS
            and _check_transitive(rows1, rows2, cols2) is _HOLDS)


def check_axioms(d: Diamond) -> AxiomVerdict:
    """Evaluate all three diamond axioms with least witnesses."""
    rows1, rows2 = d.r1.rows, d.r2.rows
    cols2 = transpose_rows(rows2)
    return AxiomVerdict(
        reflexive=_check_reflexive(rows1, rows2),
        antisymmetric=_check_antisymmetric(rows1, rows2, cols2),
        transitive=_check_transitive(rows1, rows2, cols2),
    )


def check_classical_por(r: Rel) -> AxiomVerdict:
    """Classical partial-order verdict for a single relation."""
    rows = r.rows
    anti = trans = _HOLDS
    for a, (row, col) in enumerate(zip(rows, transpose_rows(rows))):
        m = row & col & ~(1 << a)
        if m:
            anti = Check(False, (a, _lsb(m)))
            break

    for a, rowa in enumerate(rows):
        for b in bits(rowa):
            bad = rows[b] & ~rowa
            if bad:
                trans = Check(False, (a, b, _lsb(bad)))
                break
        if not trans:
            break

    return AxiomVerdict(reflexive=_check_reflexive(rows, rows), antisymmetric=anti,
                        transitive=trans)


def validated(bp: BiPoset) -> BiPoset:
    """Return bp with a validity certificate, checking axioms if needed.

    Raises UsageError when the structure fails an axiom; callers with a
    validity precondition funnel through here.
    """
    if bp.certificate == "valid":
        return bp
    verdict = check_axioms(bp.d)
    for name, ax in verdict.items():
        if not ax.ok:
            raise UsageError(f"structure fails the {name} axiom at witness {ax.witness}")
    return dataclasses.replace(bp, certificate="valid")
