"""Galois connections between binary posets.

A pair (f: P->Q, g: Q->P) is a Galois connection when

    diamond_leq(Q, f(a), b)  <=>  diamond_leq(P, a, g(b))    for all a, b.

The antitone variant flips the Q side to diamond_leq(Q, b, f(a)). The
monotone mode is the same biconditional as the plain one; it exists so
callers can state intent when both structures carry one relation pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .constructions import divisibility_biposet, powerset_biposet
from .core import BiPoset, Check, Diamond, GroundSet, Rel, UsageError, diamond_leq
from .morphisms import Mapping, is_isotone

MODES = ("hetero", "monotone", "antitone")

ADJOINT_SPACE_CAP = 10_000_000


@dataclass(frozen=True, slots=True)
class GaloisPair:
    f: Mapping
    g: Mapping

    def __post_init__(self) -> None:
        if self.f.src_n != self.g.dst_n or self.f.dst_n != self.g.src_n:
            raise UsageError("pair dimensions do not mirror each other")


@dataclass(frozen=True, slots=True)
class AdjointReport:
    f_isotone: bool
    g_isotone: bool
    unit_holds: bool
    counit_holds: bool

    @property
    def all_hold(self) -> bool:
        return self.f_isotone and self.g_isotone and self.unit_holds and self.counit_holds


def _check_pair_dims(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> None:
    if pair.f.src_n != P.n or pair.f.dst_n != Q.n:
        raise UsageError("pair dimensions do not match the structures")


def is_galois(pair: GaloisPair, P: BiPoset, Q: BiPoset, mode: str = "hetero") -> Check:
    """Decide the Galois biconditional; least violating (a, b) on failure."""
    if mode not in MODES:
        raise UsageError(f"mode must be one of {', '.join(MODES)}")
    _check_pair_dims(pair, P, Q)
    f, g = pair.f, pair.g
    for a in range(P.n):
        for b in range(Q.n):
            if mode == "antitone":
                left = diamond_leq(Q.d, b, f(a))
            else:
                left = diamond_leq(Q.d, f(a), b)
            if left != diamond_leq(P.d, a, g(b)):
                return Check(False, (a, b))
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
    {a : leq_Q(b, f(a))}. The result is the product of those candidate
    lists, in image-lexicographic order. Adjoint uniqueness predicts at most
    one entry, and returning the whole list is what lets a violation
    surface. Inputs are not validated, so on a structure whose leq_P is not
    antisymmetric the list can hold up to |P|^|Q| entries; the cap refuses
    inputs where that bound exceeds ADJOINT_SPACE_CAP.
    """
    if side not in ("right", "left"):
        raise UsageError("side must be 'right' or 'left'")
    if f.src_n != P.n or f.dst_n != Q.n:
        raise UsageError("mapping dimensions do not match the structures")
    if P.n ** Q.n > ADJOINT_SPACE_CAP:
        raise UsageError("candidate space too large to exhaust")
    leq_p = P.d.leq_rows()
    leq_q = Q.d.leq_rows()
    img = f.img
    if side == "right":
        # keys[b] = {a : leq_Q(f a, b)}; targets[x] = column x of leq_P
        keys = [sum(((leq_q[fa] >> b) & 1) << a for a, fa in enumerate(img)) for b in range(Q.n)]
        targets = Rel(P.n, leq_p).transpose().rows
    else:
        # keys[b] = {a : leq_Q(b, f a)}; targets[x] = row x of leq_P
        keys = [sum(((leq_q[b] >> fa) & 1) << a for a, fa in enumerate(img)) for b in range(Q.n)]
        targets = leq_p
    choices = [[x for x, t in enumerate(targets) if t == key] for key in keys]
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
