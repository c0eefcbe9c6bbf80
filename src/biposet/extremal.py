"""Extremal elements of a binary poset.

Four one-sided extremes exist: the r1-greatest x, the r2-greatest y, the
r1-least u and the r2-least v. The two-sided extremes are taken over the
diamond comparison: g_max = sup{x,y}, g_min = inf{x,y}, l_max = sup{u,v},
l_min = inf{u,v}. A structure is bounded when g_max and l_min both exist.

A single relation component need not be antisymmetric on its own, so a side
can have several qualifying elements; that is reported as an anomaly rather
than silently picking one.
"""

from __future__ import annotations

from typing import Optional

from .axioms import validated
from .core import BiPoset, Diamond, UsageError, _Value, bits, diamond_leq


class ExtremalReport(_Value):
    __match_args__ = __slots__ = ("x", "y", "g_max", "g_min", "u", "v", "l_max", "l_min",
                                  "bounded", "notes")

    def __init__(self, x: Optional[int], y: Optional[int], g_max: Optional[int],
                 g_min: Optional[int], u: Optional[int], v: Optional[int],
                 l_max: Optional[int], l_min: Optional[int], bounded: bool,
                 notes: tuple[str, ...]) -> None:
        for name, value in zip(self.__slots__,
                               (x, y, g_max, g_min, u, v, l_max, l_min, bounded, notes)):
            object.__setattr__(self, name, value)


def sided_extreme(bp: BiPoset, component: int, direction: str) -> list[int]:
    """All elements that are greatest (or least) in one relation component.

    Returns every qualifier in ascending index order; more than one entry
    means the component ties several elements at the extreme.
    """
    bp = validated(bp)
    if component not in (1, 2):
        raise UsageError("component must be 1 or 2")
    if direction not in ("greatest", "least"):
        raise UsageError("direction must be 'greatest' or 'least'")
    rows = (bp.d.r1 if component == 1 else bp.d.r2).rows
    full = (1 << bp.n) - 1
    if direction == "least":
        return [x for x, row in enumerate(rows) if row == full]
    # x is greatest when its column is full, that is when it lies in every row
    every = full
    for row in rows:
        every &= row
    return list(bits(every))


def _bound(d: Diamond, p: int, q: int, want_sup: bool) -> Optional[int]:
    """sup (or inf) of an r1 extreme p and an r2 extreme q of one direction
    on a valid structure, None if incomparable. q < p cannot happen: it
    breaks antisymmetry at (q, q, p) for greatest and (q, p, p) for least."""
    if p == q:
        return p
    if diamond_leq(d, p, q):
        return q if want_sup else p
    return None


def two_sided_values(d: Diamond, firsts: list[int], seconds: list[int],
                     want_sup: bool) -> set[int]:
    """Set of sup (or inf) values over every qualifier combination."""
    out: set[int] = set()
    for p in firsts:
        for q in seconds:
            val = _bound(d, p, q, want_sup)
            if val is not None:
                out.add(val)
    return out


def extremal_report(bp: BiPoset) -> ExtremalReport:
    bp = validated(bp)
    labels = bp.ground.labels
    notes: list[str] = []

    sides = {}
    for key, comp, direction in (("x", 1, "greatest"), ("y", 2, "greatest"),
                                 ("u", 1, "least"), ("v", 2, "least")):
        quals = sided_extreme(bp, comp, direction)
        if len(quals) > 1:
            names = " ".join(labels[i] for i in quals)
            notes.append(f"component-{comp} {direction} is not unique: {names}")
        sides[key] = quals

    def pick(key: str) -> Optional[int]:
        quals = sides[key]
        return quals[0] if len(quals) == 1 else None

    x, y, u, v = pick("x"), pick("y"), pick("u"), pick("v")

    def pair_bounds(p: Optional[int], q: Optional[int],
                    what: str) -> tuple[Optional[int], Optional[int]]:
        if p is None or q is None:
            return None, None
        sup = _bound(bp.d, p, q, True)
        inf = _bound(bp.d, p, q, False)
        if sup is None:
            notes.append(f"{what} pair incomparable: {labels[p]} {labels[q]}")
        return sup, inf

    g_max, g_min = pair_bounds(x, y, "greatest")
    l_max, l_min = pair_bounds(u, v, "least")

    return ExtremalReport(
        x=x, y=y, g_max=g_max, g_min=g_min,
        u=u, v=v, l_max=l_max, l_min=l_min,
        bounded=(g_max is not None and l_min is not None),
        notes=tuple(notes),
    )
