"""The oracle's numpy batch code, the one module of the package that imports numpy.

validity_kernel and duality_sample pack numpy batches into the planes of
oracle._plane_kernel. _relabelling tabulates how each permutation moves
the structures on n elements, and _iso_classes reads the classes off it.
Rows are (S, 2, n) uint8 masks (_np_rows), read through maps (_preimage)
and packed into int64 keys r1.code << n^2 | r2.code (_key), the
enumeration order. The oracle imports this module only inside _iso_cases.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Optional

import numpy as np

from .axioms import check_axioms
from .constructions import dual
from .core import Diamond, UsageError, lsb
from .oracle import (MAX_ENUM_N, _offcells, _plane_kernel, _rel_from_offcode, _ser_diamond,
                     _structures, _verdict_failure)


def _packed(bits: np.ndarray) -> int:
    """The int whose bit k is bits[k], bits being a 1-d bool array (np.packbits
    reads any other dtype several times slower)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def validity_kernel(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Axiom validity for a batch of diamonds given as (B, n, n) bool arrays.

    Packs each cell (i, j) of each relation across the batch into one
    Python int, bit k for diamond k (np.packbits), and decides all three
    axioms with big-integer word operations over those planes
    (_plane_kernel); no witnesses.
    """
    if R1.shape != R2.shape or R1.ndim != 3 or R1.shape[1] != R1.shape[2]:
        raise UsageError("expected matching (B, n, n) arrays")
    B, n, _ = R1.shape
    R1, R2 = np.asarray(R1, dtype=bool), np.asarray(R2, dtype=bool)
    planes = [[[_packed(R[:, i, j]) for j in range(n)] for i in range(n)] for R in (R1, R2)]
    ok = _plane_kernel(*planes, (1 << B) - 1)
    ok_bytes = np.frombuffer(ok.to_bytes((B + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(ok_bytes, count=B, bitorder="little").astype(bool)


# ---------------------------------------------------------------------------
# numpy batch helpers: row masks (_np_rows), read back through maps
# (_preimage) and packed into int64 keys (_key)


def _np_rows(structs: tuple[Diamond, ...], n: int) -> np.ndarray:
    """(S, 2, n) uint8 row masks, r2 then r1, so that _key of the flattened
    rows is the structure key r1.code << n^2 | r2.code. A row has n bits, so
    n <= 8; the oracle enumerates n <= MAX_ENUM_N = 4."""
    return np.fromiter(itertools.chain.from_iterable(d.r2.rows + d.r1.rows for d in structs),
                       dtype=np.uint8, count=2 * n * len(structs)).reshape(-1, 2, n)


def _preimage(rows: np.ndarray, img: np.ndarray) -> np.ndarray:
    """Batch form of core.preimage_rows: bit b of out[..., k, i] is set iff
    img[k, b] is in rows[..., k, i], img being (K, m), or (m,) for one map.
    rows are uint8 masks (_np_rows) and out is uint8 too, in the memory
    layout of rows (read in order), so m <= 8 as well as n <= 8."""
    img = img.astype(rows.dtype)
    out = 0
    for b in range(img.shape[-1]):
        out = out | (rows >> img[..., b, None] & 1) << b
    return out


def _key(masks: np.ndarray, width: int) -> np.ndarray:
    """Pack the last axis into one int64, field t at bit width * t, casting
    one field at a time so that masks stay in their narrow dtype."""
    key = np.zeros(masks.shape[:-1], dtype=np.int64)
    for t in range(masks.shape[-1]):
        key |= masks[..., t].astype(np.int64) << (width * t)
    return key


# ---------------------------------------------------------------------------
# relabelling and isomorphism classes


@cache
def _relabelling(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The permutations of range(n) and how each moves _structures(n).

    Returns (perms, image): image[k, s] is the index of perms[k](s), the
    structure s with element i renamed perms[k][i] in r1 and r2 together,
    so perms[k] is an isomorphism from structure s onto structure
    image[k, s], looked up by key. image is int32 and filled one permutation
    at a time: the working set is the row masks, image and one key each.
    """
    rows = _np_rows(_structures(n), n)
    S = len(rows)
    own = _key(rows.reshape(S, -1), n)
    perms = tuple(itertools.permutations(range(n)))
    image = np.empty((len(perms), S), dtype=np.int32)
    for k, inv in enumerate(map(np.argsort, perms)):
        # f(s) is s pulled back through f^-1: row i is row f^-1(i) read back through f^-1
        moved = _key(_preimage(rows[:, :, inv], inv).reshape(S, -1), n)
        image[k] = np.minimum(np.searchsorted(own, moved), S - 1)
        if not np.array_equal(own[image[k]], moved):
            raise RuntimeError("a relabelled structure is missing from the enumeration")
    return perms, image


@cache
def _iso_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Isomorphism classes of _structures(n) under relabelling r1 and r2 together.

    Returns (cls, reps, weights): the class index of every structure, the
    least index in each class (its representative, so the first member in
    enumeration order; classes are numbered in representative order), and
    each class's orbit size. All three are read off _relabelling(n).
    """
    least = _relabelling(n)[1].min(axis=0)
    reps, cls, weights = np.unique(least, return_inverse=True, return_counts=True)
    return cls, reps, weights


# ---------------------------------------------------------------------------
# duality sampling at n=4


def duality_sample(n: int = 4, budget: int = 1_000_000, seed: int = 0) -> dict:
    """Sampled dual-validity sweep over the reflexive space at size n.

    Draws budget structures uniformly (with replacement) and decides them
    in one batch with the bit-plane kernel, one plane per cell packed from
    the drawn codes. A dual's relations are the transposes, so the dual
    batch is the same planes with i and j swapped, decided with the valid
    draws as its live candidates; the counts are the set bits of the two
    results. Returns counts plus the first violating structure in draw
    order, already re-verified through check_axioms.
    """
    if not 2 <= n <= MAX_ENUM_N:
        raise UsageError(f"n must be between 2 and {MAX_ENUM_N}")
    if budget < 1:
        raise UsageError("budget must be at least 1")
    m = n * (n - 1)
    rng = np.random.default_rng(seed)
    c1s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)
    c2s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)

    live = (1 << budget) - 1
    R1 = [[live] * n for _ in range(n)]
    R2 = [[live] * n for _ in range(n)]
    for k, (i, j) in enumerate(_offcells(n)):
        R1[i][j] = _packed((c1s & (1 << k)) != 0)
        R2[i][j] = _packed((c2s & (1 << k)) != 0)
    valid = _plane_kernel(R1, R2, live)
    dual_bad = valid & ~_plane_kernel(tuple(zip(*R1)), tuple(zip(*R2)), valid)

    first: Optional[dict] = None
    if dual_bad:
        k = lsb(dual_bad)
        d = Diamond(_rel_from_offcode(n, int(c1s[k])), _rel_from_offcode(n, int(c2s[k])))
        if not check_axioms(d).ok:
            raise RuntimeError("kernel called a structure valid that is not")
        dual_verdict = check_axioms(dual(d))
        if dual_verdict.ok:
            raise RuntimeError("kernel called a dual invalid that is not")
        first = {
            "structure": _ser_diamond(d),
            "dual": _ser_diamond(dual(d)),
            "failed": _verdict_failure(dual_verdict),
        }
    return {
        "n": n,
        "sampled": budget,
        "valid": valid.bit_count(),
        "dual_invalid": dual_bad.bit_count(),
        "seed": seed,
        "first": first,
    }
