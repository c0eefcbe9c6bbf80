"""Galois connections between binary posets.

A pair (f: P->Q, g: Q->P) is a Galois connection when

    diamond_leq(Q, f(a), b)  <=>  diamond_leq(P, a, g(b))    for all a, b.

The antitone variant flips the Q side to diamond_leq(Q, b, f(a)).

is_galois and find_adjoint compare row masks of leq = r1 & r2 read back
through a map with `core.preimage_rows`: per a in is_galois, per b in
find_adjoint, at O(|leq_P| + |leq_Q|) word operations. A right adjoint of
f is its left adjoint between the opposite orders (Erne, Koslowski, Melton
and Strecker, "A primer on Galois connections", 1993), so find_adjoint's
right side runs the left side's code on the columns of both leq
relations, the columns `core.prepare` reads; equal leq relations are
transposed once.

The oracle finds the Galois pairs it counts and composes through
find_adjoint alone: the right adjoints of f are the g paired with f, and
the left adjoints of g the f paired with g.
"""

from __future__ import annotations

import itertools
import math

from .constructions import divisibility_biposet, powerset_biposet
from .core import (BiPoset, Check, Diamond, GroundSet, Rel, UsageError, _Value, diamond_leq,
                   lsb, preimage_rows, prepare)
from .morphisms import Mapping, is_isotone

MODES = ("hetero", "antitone")

ADJOINT_SPACE_CAP = 10_000_000


class GaloisPair(_Value):
    __match_args__ = __slots__ = ("f", "g")

    def __init__(self, f: Mapping, g: Mapping) -> None:
        for m in (f, g):
            if type(m) is not Mapping:
                raise UsageError(f"pair maps must be Mapping, not {type(m).__name__}")
        if f.src_n != g.dst_n or f.dst_n != g.src_n:
            raise UsageError("pair dimensions do not mirror each other")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


class AdjointReport(_Value):
    __match_args__ = __slots__ = ("f_isotone", "g_isotone", "unit_holds", "counit_holds")

    def __init__(self, f_isotone: bool, g_isotone: bool, unit_holds: bool,
                 counit_holds: bool) -> None:
        object.__setattr__(self, "f_isotone", f_isotone)
        object.__setattr__(self, "g_isotone", g_isotone)
        object.__setattr__(self, "unit_holds", unit_holds)
        object.__setattr__(self, "counit_holds", counit_holds)

    @property
    def all_hold(self) -> bool:
        return self.f_isotone and self.g_isotone and self.unit_holds and self.counit_holds


def _check_pair_dims(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> None:
    if pair.f.src_n != P.n or pair.f.dst_n != Q.n:
        raise UsageError("pair dimensions do not match the structures")


def is_galois(pair: GaloisPair, P: BiPoset, Q: BiPoset, mode: str = "hetero") -> Check:
    """Decide the Galois biconditional; least violating (a, b) on failure.

    Per a, the leq_Q row of f(a) (its column when antitone) is compared with
    {b : leq_P(a, g b)}, row a of leq_P read back through g."""
    if mode not in MODES:
        raise UsageError(f"mode must be one of {', '.join(MODES)}")
    _check_pair_dims(pair, P, Q)
    leq_q = Q.d.leq_rows()
    if mode == "antitone":
        leq_q = prepare(leq_q)[1]
    back = preimage_rows(P.d.leq_rows(), pair.g.img)
    for a, fa in enumerate(pair.f.img):
        diff = leq_q[fa] ^ back[a]
        if diff:
            return Check(False, (a, lsb(diff)))
    return Check(True)


def check_adjoint_properties(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> AdjointReport:
    """The four adjunction indicators: isotonicity both ways, unit, counit."""
    _check_pair_dims(pair, P, Q)
    f, g = pair.f, pair.g
    return AdjointReport(
        f_isotone=bool(is_isotone(f, P.d, Q.d)),
        g_isotone=bool(is_isotone(g, Q.d, P.d)),
        unit_holds=all(diamond_leq(P.d, a, g(f(a))) for a in range(P.n)),
        counit_holds=all(diamond_leq(Q.d, f(g(b)), b) for b in range(Q.n)),
    )


def compose_galois(first: GaloisPair, second: GaloisPair) -> GaloisPair:
    """Compose connections P->Q and Q->R into P->R."""
    if first.f.dst_n != second.f.src_n:
        raise UsageError("pair dimensions do not chain")
    return GaloisPair(second.f.after(first.f), first.g.after(second.g))


def find_adjoint(f: Mapping, P: BiPoset, Q: BiPoset, side: str = "right") -> list[Mapping]:
    """Every g making (f, g) (right) or (g, f) (left) a Galois connection.

    The biconditional constrains each g(b) on its own: a right adjoint may
    send b to any x whose leq_P column {a : leq_P(a, x)} equals
    {a : leq_Q(f(a), b)}, and a left adjoint to any x whose leq_P row equals
    {a : leq_Q(b, f(a))}, the column (or row) b of leq_Q read back through f.
    The result is the product of those candidate lists, in
    image-lexicographic order. Adjoint uniqueness predicts at most
    one entry, and returning the whole list is what lets a violation
    surface. On a valid P, leq_P is antisymmetric, so distinct elements have
    distinct leq_P rows and columns and every list has at most one entry.
    Inputs are not validated, so elsewhere the lists can be longer; the
    cap refuses inputs whose product, the number of adjoints to list,
    exceeds ADJOINT_SPACE_CAP, before any Mapping is built.
    """
    if side not in ("right", "left"):
        raise UsageError("side must be 'right' or 'left'")
    if f.src_n != P.n or f.dst_n != Q.n:
        raise UsageError("mapping dimensions do not match the structures")
    leq_p, leq_q = P.d.leq_rows(), Q.d.leq_rows()
    if side == "right":
        # a right adjoint is a left adjoint between the opposite orders
        same = leq_q == leq_p
        leq_p = prepare(leq_p)[1]
        leq_q = leq_p if same else prepare(leq_q)[1]
    # x may be g(b) when its leq_P mask equals the mask of b read back through f
    by_mask: dict[int, list[int]] = {}
    for x, t in enumerate(leq_p):
        by_mask.setdefault(t, []).append(x)
    choices = [by_mask.get(key, []) for key in preimage_rows(leq_q, f.img)]
    if math.prod(map(len, choices)) > ADJOINT_SPACE_CAP:
        raise UsageError("too many adjoints to list")
    return [Mapping(Q.n, P.n, pick) for pick in itertools.product(*choices)]


def example_identity() -> tuple[GaloisPair, BiPoset, BiPoset]:
    """Identity pair on the divisibility structure over {1,2,3}."""
    bp = divisibility_biposet(3)
    ident = Mapping.identity(3)
    return GaloisPair(ident, ident), bp, bp


def example_floor() -> tuple[GaloisPair, BiPoset, BiPoset]:
    """Embedding of {0..5} into the half-integer grid, with integer part back.

    Both structures carry the numeric order in both components; comparisons
    are exact rational arithmetic.
    """
    from fractions import Fraction  # only this example needs it; it pulls in decimal

    ints = [Fraction(v) for v in range(6)]
    halves = sorted(
        {Fraction(p, q) for q in (1, 2) for p in range(0, 5 * q + 1)}
    )

    def frac_label(fr: Fraction) -> str:
        return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}_{fr.denominator}"

    p_ground = GroundSet(tuple(frac_label(v) for v in ints))
    q_ground = GroundSet(tuple(frac_label(v) for v in halves))
    p_le = Rel.from_predicate(len(ints), lambda i, j: ints[i] <= ints[j])
    q_le = Rel.from_predicate(len(halves), lambda i, j: halves[i] <= halves[j])
    P = BiPoset(p_ground, Diamond(p_le, p_le))
    Q = BiPoset(q_ground, Diamond(q_le, q_le))

    f = Mapping(len(ints), len(halves), tuple(halves.index(v) for v in ints))
    g = Mapping(len(halves), len(ints), tuple(int(v) for v in halves))
    return GaloisPair(f, g), P, Q


def example_singleton(good: bool = True) -> tuple[GaloisPair, BiPoset, BiPoset]:
    """Powerset of a one-element set against a one-point structure.

    f collapses everything to the point. The adjoint g must send the point
    to the full set; good=False selects the empty set instead, which breaks
    the biconditional at a = {0}.
    """
    P = powerset_biposet(1)
    point = Rel.identity(1)
    Q = BiPoset(GroundSet(("q0",)), Diamond(point, point), certificate="valid")
    f = Mapping(2, 1, (0, 0))
    g = Mapping(1, 2, (1,) if good else (0,))
    return GaloisPair(f, g), P, Q
