"""The oracle's numpy batch code, the one module of the package that imports numpy.

validity_kernel and duality_sample pack numpy batches into the planes of
oracle._plane_kernel. _relabelling tabulates how each permutation moves
the structures on n elements, _iso_classes reads the classes off it, and
_thm11_sweep, shared by three claims, walks their representatives. Rows are
(S, 2, n) uint8 masks (_np_rows), read through maps (_preimage) and packed
into int64 keys r1.code << n^2 | r2.code (_key), the enumeration order.
The oracle imports this module only inside _iso_cases and _claim_thm11.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from functools import cache, partial
from typing import TYPE_CHECKING, Optional

import numpy as np

from .axioms import check_axioms
from .constructions import dual
from .core import Diamond, UsageError, lsb
from .oracle import (MAX_ENUM_N, _offcells, _parse_galois_pair, _plane_kernel, _rel_from_offcode,
                     _replay_adjoint, _replay_thm11, _ser_diamond, _ser_mapping, _structures,
                     _verdict_failure)

if TYPE_CHECKING:
    from .morphisms import Mapping


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


def _all_maps(src_n: int, dst_n: int) -> np.ndarray:
    """(dst_n^src_n, src_n) images in lexicographic order, uint8 like the row
    masks that they index and shift."""
    return np.array(list(itertools.product(range(dst_n), repeat=src_n)), dtype=np.uint8)


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
# the Galois adjunction sweep (shared by three claims)


def _scale_pairs(n_cap: int) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in range(1, n_cap + 1) for b in range(1, n_cap + 1)]
    pairs.sort(key=lambda t: (max(t), t[0], t[1]))
    return pairs


@cache
def _thm11_sweep(n_cap: int) -> dict:
    """Exhaustive adjunction sweep over all structure pairs up to n_cap.

    For every ordered structure pair (P, Q) and every mapping pair (f, g) it
    evaluates the Galois biconditional, the four adjunction flags and
    adjoint multiplicity.

    Galois by rows: (f, g) is Galois iff each comparison row f(a) of Q is
    P's comparison row a read back through g, one key per map on each side.
    Isotone by edges: on reflexive structures a map preserves chains iff it
    preserves the r1 and r2 edges, so f is isotone iff P's structure key
    lies inside the key of Q's rows read back through f; likewise g.

    Class reduction: relabelling P and Q (and carrying f and g along) leaves
    every count and flag unchanged, so the tables and the vectorised
    (Q, f, g) blocks cover only isomorphism-class representatives
    (_iso_classes: 1 / 7 / 126 classes at n = 1 / 2 / 3, so 126^2 instead
    of 653^2 structure pairs at (3, 3)).
    Each representative pair adds weight_P * weight_Q times its Galois-pair
    count, the weights being orbit sizes. Instance totals are the full
    |structures(nP)| * |structures(nQ)| * mapping-pair products.

    Witness order: the first violation in canonical order, that is scale
    pairs as in _scale_pairs, then structure pairs (p, q) in enumeration
    order, then f and g in image-lexicographic order; adjoint multiplicity
    is one (CQ, MF + MG) array per P representative, f columns (two right
    adjoints) first. A pair (p, q) violates a claim exactly when its class
    pair does, and each representative is the first member of its class
    with classes numbered in representative order, so the first violating
    (p, q) is the representative pair of the first violating class pair.
    Each step decides one P representative's (j, f, g) block, every Q class
    j, f and g; steps run in representative order and a block's row-major
    order is (j, f, g), so the first hit of the sweep is the canonical
    witness. One loop re-verifies the three witnesses through the pure API.

    Working set: one (CQ, MF, MG) block at a time, 126 x 27 x 27 cells at
    (3, 3), next to the per-scale-pair tables.
    """
    from .galois import check_adjoint_properties
    from .morphisms import Mapping
    res: dict = {
        "instances": 0,
        "galois_pairs": 0,
        "adjoint_instances": 0,
        "fwd": None,
        "bwd": None,
        "adjoint": None,
    }

    # per size: the class representatives' tables, in representative order
    per_n: dict[int, dict] = {}
    for n in range(1, n_cap + 1):
        structs = _structures(n)
        _, reps, weights = _iso_classes(n)
        reps = tuple(structs[r] for r in reps)
        rows = _np_rows(reps, n)
        per_n[n] = {
            "count": len(structs),
            "reps": reps,
            "weights": weights,
            "rows": rows,                           # [C, r, a]: row a of r2, r1
            "leq": rows[:, 0] & rows[:, 1],         # [C, a]: comparison row a
            "keys": _key(rows.reshape(len(reps), -1), n),
        }

    for nP, nQ in _scale_pairs(n_cap):
        P = per_n[nP]
        Q = per_n[nQ]
        fimg = _all_maps(nP, nQ)          # (MF, nP) values in Q
        gimg = _all_maps(nQ, nP)          # (MG, nQ) values in P
        MF, MG = len(fimg), len(gimg)
        CP, CQ = len(P["reps"]), len(Q["reps"])
        res["instances"] += P["count"] * Q["count"] * MF * MG
        res["adjoint_instances"] += P["count"] * Q["count"] * (MF + MG)

        # Galois keys: per a, the comparison row of f(a) in Q against
        # {b : a <= g(b)}, P's comparison row a read back through g
        kf_key = _key(Q["leq"][:, fimg], nQ)                        # (CQ, MF)
        hk_key = _key(_preimage(P["leq"][:, None], gimg), nQ)       # (CP, MG)

        # unit: each g(f(a)) in comparison row a of P; counit: each b in
        # comparison row f(g(b)) of Q. The element axis leads, so every
        # operation runs over whole (MF, MG) planes.
        comp_gf = gimg.T[fimg.T]                    # (nP, MF, MG): g(f(a))
        comp_fg = fimg.T[gimg.T].swapaxes(1, 2)     # (nQ, MF, MG): f(g(b))
        b = np.arange(nQ, dtype=np.uint8)[:, None, None]
        unit = ((P["leq"][:, :, None, None] >> comp_gf) & 1).all(1)     # (CP, MF, MG)
        counit = ((Q["leq"][:, comp_fg] >> b) & 1).all(1)               # (CQ, MF, MG)

        # structure keys of Q's rows read back through every f, (CQ, MF), and
        # of P's through every g, (CP, MG): row a of r holds {b : f(a) r f(b)}
        mfq = _key(_preimage(Q["rows"][:, :, fimg], fimg).swapaxes(1, 2).reshape(CQ, MF, -1), nP)
        mgp = _key(_preimage(P["rows"][:, :, gimg], gimg).swapaxes(1, 2).reshape(CP, MG, -1), nQ)

        q_keys = Q["keys"][:, None]
        galois = np.empty((CP, CQ), dtype=np.int64)     # Galois pairs per class pair
        for i, p_key in enumerate(P["keys"]):
            f_iso = (mfq & p_key) == p_key                          # (CQ, MF)
            g_iso = (mgp[i] & q_keys) == q_keys                     # (CQ, MG)
            flags = unit[i] & counit & f_iso[:, :, None] & g_iso[:, None, :]   # (CQ, MF, MG)
            G = kf_key[:, :, None] == hk_key[i]                     # (CQ, MF, MG)

            # adjoints counted by einsum in int32: a bool .sum casts through
            # int64 and takes about twice as long
            right = np.einsum("jfg->jf", G, dtype=np.int32)     # right adjoints of each f
            left = np.einsum("jfg->jg", G, dtype=np.int32)      # left adjoints of each g
            galois[i] = right.sum(axis=1)

            # fwd: Galois without all four flags; bwd: all four, not Galois
            for key, have, lack in (("fwd", G, flags), ("bwd", flags, G)):
                if res[key] is None and (viol := have > lack).any():
                    j, fi, gi = np.argwhere(viol)[0]
                    wit = res[key] = _sweep_witness(
                        P, Q, i, j, Mapping(nP, nQ, tuple(fimg[fi].tolist())),
                        g=_ser_mapping(Mapping(nQ, nP, tuple(gimg[gi].tolist()))))
                    report = check_adjoint_properties(*_parse_galois_pair(wit))
                    wit["flags"] = {**asdict(report), "is_galois": key == "fwd"}
            # per Q class, each f with two right adjoints, then each g with two left ones
            if res["adjoint"] is None and (many := np.hstack((right, left)) > 1).any():
                j, k = np.argwhere(many)[0]
                m = (Mapping(nP, nQ, tuple(fimg[k].tolist())) if k < MF
                     else Mapping(nQ, nP, tuple(gimg[k - MF].tolist())))
                res["adjoint"] = _sweep_witness(P, Q, i, j, m,
                                                side="right" if k < MF else "left")
        res["galois_pairs"] += int(P["weights"] @ galois @ Q["weights"])

    # violations are re-verified by their claims' replayers, from the witness text
    for key, replay in (("fwd", partial(_replay_thm11, True)),
                        ("bwd", partial(_replay_thm11, False)), ("adjoint", _replay_adjoint)):
        if res[key] is not None and not replay(res[key]):
            raise RuntimeError(f"sweep flagged a non-violation ({key})")
    return res


def _sweep_witness(P: dict, Q: dict, i: int, j: int, f: Mapping, **rest: str) -> dict:
    """Witness text of a sweep violation at class pair (i, j), that is at
    their representatives: scale, P, Q and f, then rest (g for the THM11
    claims, side for ADJOINT_UNIQUE)."""
    dP, dQ = P["reps"][int(i)], Q["reps"][int(j)]
    return {"scale": (dP.n, dQ.n), "P": _ser_diamond(dP), "Q": _ser_diamond(dQ),
            "f": _ser_mapping(f), **rest}


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
