"""The numpy batch code, the one module of the package that imports numpy.

validity_kernel and duality_sample pack numpy batches into the planes of
the enumeration's kernel (enumeration._plane_kernel). No claim imports this
module.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .axioms import _verdict_failure, check_axioms
from .constructions import dual
from .core import MAX_BUDGET, Diamond, UsageError, _check_draws, _check_size, lsb
from .enumeration import MAX_ENUM_N, _offcells, _plane_kernel, _rel_from_offcode, _ser_diamond


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
# duality sampling at n=4


def duality_sample(n: int = 4, budget: int = MAX_BUDGET, seed: int = 0) -> dict:
    """Sampled dual-validity sweep over the reflexive space at size n.

    Draws budget structures uniformly (with replacement) and decides them
    in one batch with the bit-plane kernel, one plane per cell packed from
    the drawn codes. A dual's relations are the transposes, so the dual
    batch is the same planes with i and j swapped, decided with the valid
    draws as its live candidates; the counts are the set bits of the two
    results. Returns counts plus the first violating structure in draw
    order, already re-verified through check_axioms. A budget or seed that
    is not an int, or is a bool, a budget outside 1..MAX_BUDGET and a seed
    below 0 are UsageErrors.
    """
    _check_size(n, "n", 2, MAX_ENUM_N)
    _check_draws(budget, seed)     # numpy reads a None seed as unseeded
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
