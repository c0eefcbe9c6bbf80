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

Each relation is read once, through core.prepare: the set-bit indices of
every row as tuples, the column masks, the reflexive flag and the
symmetric part sym[a] = rows[a] & cols[a]. Every later decision and search
iterates those tuples instead of peeling bits off each row it visits. core
memoises the view of a small relation (core.is_small): the n = 4 draws
and enumerations check many structures built from these few relations,
and 89 % of the n = 4 benchmark draws end on antisymmetry, read from sym
alone. A structure whose r1 and r2 share a row tuple is prepared
once, and check_classical_por reads the same view.

check_axioms decides reflexivity from the flags, then antisymmetry and
transitivity, in that order, stopping at the first axiom that fails and
building no Check. Antisymmetry takes b from sym1[a], where the premise
needs a r1 b and b r1 a. Transitivity is decided per b with one union over
the c in row2[b], so a valid structure costs O(|r1| + |r2|) word operations
and gets the one shared verdict _VALID. A failing structure gets a
deferred AxiomVerdict holding the two prepared relations: ok is False at
once, and the first read of any Check searches all three least witnesses
on them and keeps them; only error and refutation paths read them. Batches
that need validity alone go to the enumeration's bit-plane kernel
(enumeration.validity_kernel).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional

from .core import BYTE_BITS, BiPoset, Check, Diamond, Rel, UsageError, bits, lsb, prepare


_AXIOMS = ("reflexive", "antisymmetric", "transitive")


class AxiomVerdict:
    """One Check per axiom; items() is the one place the axiom order lives.

    Built from three Checks, or by check_axioms as a deferred verdict of a
    failing structure: ok is False at once, and the first read of any Check
    searches all three least witnesses, then keeps them. The Checks are
    read-only properties."""

    __slots__ = ("_checks", "_prep")

    def __init__(self, reflexive: Check, antisymmetric: Check, transitive: Check) -> None:
        self._checks = (reflexive, antisymmetric, transitive)
        self._prep = None

    def _resolved(self) -> tuple[Check, Check, Check]:
        if self._checks is None:
            rows1, (bits1, _, _, sym1), rows2, (bits2, cols2, _, sym2) = self._prep
            checks = (_check_reflexive(rows1, rows2),
                      _antisymmetric(rows1, sym1, rows2, sym2),
                      _transitive(rows1, bits1, rows2, bits2, cols2))
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

    @property
    def ok(self) -> bool:
        # a deferred verdict is never ok: check_axioms returns _VALID then
        return self._checks is not None and all(self._checks)

    def __bool__(self) -> bool:
        return self.ok

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


def _antisymmetric_witness(rows1: tuple[int, ...], sym1: tuple[int, ...],
                           rows2: tuple[int, ...], sym2: tuple[int, ...]) -> Optional[tuple]:
    """The least violating (a, b, c), or None."""
    for a, sym in enumerate(sym1):
        # the premise needs a r1 b and b r1 a, so b ranges over sym1[a]
        base = rows1[a] & rows2[a]
        if not base:
            continue
        for b in BYTE_BITS[sym] if sym < 256 else bits(sym):
            cmask = base & sym2[b]
            if a == b:
                cmask &= ~(1 << a)
            if cmask:
                return a, b, lsb(cmask)
    return None


def _antisymmetric(rows1: tuple[int, ...], sym1: tuple[int, ...],
                   rows2: tuple[int, ...], sym2: tuple[int, ...]) -> Check:
    witness = _antisymmetric_witness(rows1, sym1, rows2, sym2)
    return _HOLDS if witness is None else Check(False, witness)


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


def check_axioms(d: Diamond) -> AxiomVerdict:
    """Decide the three diamond axioms; a failing verdict searches the
    least witnesses when it is first read."""
    rows1, rows2 = d.r1.rows, d.r2.rows
    prep1 = prepare(rows1)
    prep2 = prep1 if rows2 == rows1 else prepare(rows2)
    bits1, _, refl1, sym1 = prep1
    bits2, cols2, refl2, sym2 = prep2
    if (not (refl1 and refl2) or _antisymmetric_witness(rows1, sym1, rows2, sym2)
            or _transitive_pair(rows1, bits1, rows2, bits2, cols2)):
        verdict = object.__new__(AxiomVerdict)
        verdict._checks, verdict._prep = None, (rows1, prep1, rows2, prep2)
        return verdict
    return _VALID


def check_classical_por(r: Rel) -> AxiomVerdict:
    """Classical partial-order verdict for a single relation."""
    rows = r.rows
    rbits, _, _, sym = prepare(rows)
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
    return dataclasses.replace(bp, certificate="valid")
