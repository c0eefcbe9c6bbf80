"""Exhaustive small-model enumeration and the claim registry.

Two independent implementations of the axioms live here next to the fast
one in axioms.py: a direct-quantifier checker (naive_check_axioms, plain
nested loops, no bit tricks) used as the agreement oracle, and a batched
numpy kernel (validity_kernel, no witnesses) used for wide sweeps. The
claim runner verifies every registered claim at desk scale or produces a
minimal, replayable counterexample.

Counterexample minimization: smallest structure scale first, then
structure codes ascending, then mapping images in lexicographic order.
Sweeps that find a violation re-evaluate it through the public API before
reporting, so a kernel bug cannot fabricate a finding.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .axioms import AxiomCheck, AxiomVerdict, ClassicalVerdict, check_axioms
from .constructions import dual, dual_biposet, intersect_many, powerset_biposet
from .core import BiPoset, Diamond, GroundSet, Rel, UsageError
from .extremal import sided_extreme, two_sided_values
from .galois import (
    GaloisPair,
    check_adjoint_properties,
    compose_galois,
    example_singleton,
    find_adjoint,
    is_galois,
)
from .morphisms import Mapping, is_isomorphism, is_isotone

MAX_ENUM_N = 4

GOLDEN_COUNTS = {1: 1, 2: 11, 3: 653}

CLAIM_IDS = (
    "INTERSECT_CLOSURE",
    "UNIQUE_GMAX",
    "UNIQUE_GMIN",
    "UNIQUE_LMAX",
    "UNIQUE_LMIN",
    "POWERSET_VALID",
    "ISO_IFF_ISOTONE",
    "DUALITY_PRINCIPLE",
    "POWERSET_SELF_DUAL",
    "DOUBLE_DUAL",
    "GALOIS_THM11_FWD",
    "GALOIS_THM11_BWD",
    "GALOIS_COMPOSE",
    "ADJOINT_UNIQUE",
    "GALOIS_ASYMMETRY",
)

CLAIM_DESCRIPTIONS = {
    "INTERSECT_CLOSURE": "intersections of valid structures are valid",
    "UNIQUE_GMAX": "the maximal greatest element is unique when defined",
    "UNIQUE_GMIN": "the minimal greatest element is unique when defined",
    "UNIQUE_LMAX": "the maximal least element is unique when defined",
    "UNIQUE_LMIN": "the minimal least element is unique when defined",
    "POWERSET_VALID": "powerset structures satisfy the axioms",
    "ISO_IFF_ISOTONE": "a bijection is an isomorphism iff it and its inverse are isotone",
    "DUALITY_PRINCIPLE": "the dual of a valid structure is valid",
    "POWERSET_SELF_DUAL": "powerset structures are self-dual via complement",
    "DOUBLE_DUAL": "the double dual is the original structure",
    "GALOIS_THM11_FWD": "a Galois pair is isotone both ways with unit and counit",
    "GALOIS_THM11_BWD": "isotone both ways with unit and counit implies Galois",
    "GALOIS_COMPOSE": "Galois connections compose",
    "ADJOINT_UNIQUE": "adjoints are unique when they exist",
    "GALOIS_ASYMMETRY": "some Galois pair does not survive swapping its roles",
}

VERIFIED = "verified-at-scale"
REFUTED = "counterexample"


@dataclass(frozen=True)
class Finding:
    claim: str
    scale: tuple[int, ...]
    verdict: str
    witness: Optional[dict] = None
    instances_checked: int = 0
    seed: Optional[int] = None
    budget: Optional[int] = None
    notes: tuple[str, ...] = ()

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED


# ---------------------------------------------------------------------------
# independent direct-quantifier checkers


def naive_check_axioms(d: Diamond) -> AxiomVerdict:
    """Reference checker: plain quantifier loops, first hit is the witness."""
    n = d.n
    r1 = d.r1.has
    r2 = d.r2.has

    def ch(a: int, b: int, c: int) -> bool:
        return r1(a, b) and r2(b, c)

    refl = AxiomCheck(True)
    for a in range(n):
        if not (r1(a, a) and r2(a, a)):
            refl = AxiomCheck(False, (a,))
            break

    anti = AxiomCheck(True)
    found = False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if ch(a, b, c) and ch(b, a, c) and ch(a, c, b) and not (a == b == c):
                    anti = AxiomCheck(False, (a, b, c))
                    found = True
                    break
            if found:
                break
        if found:
            break

    trans = AxiomCheck(True)
    found = False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    for e in range(n):
                        if ch(a, b, c) and ch(b, dd, c) and r2(c, e):
                            first = ch(a, dd, c)
                            second = ch(a, b, e)
                            if first and second:
                                continue
                            detail = "both" if not first and not second else ("first" if not first else "second")
                            trans = AxiomCheck(False, (a, b, c, dd, e), detail)
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found:
            break

    return AxiomVerdict(reflexive=refl, antisymmetric=anti, transitive=trans)


def naive_check_classical(r: Rel) -> ClassicalVerdict:
    n = r.n
    refl = AxiomCheck(True)
    for a in range(n):
        if not r.has(a, a):
            refl = AxiomCheck(False, (a,))
            break

    anti = AxiomCheck(True)
    found = False
    for a in range(n):
        for b in range(n):
            if r.has(a, b) and r.has(b, a) and a != b:
                anti = AxiomCheck(False, (a, b))
                found = True
                break
        if found:
            break

    trans = AxiomCheck(True)
    found = False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if r.has(a, b) and r.has(b, c) and not r.has(a, c):
                    trans = AxiomCheck(False, (a, b, c))
                    found = True
                    break
            if found:
                break
        if found:
            break

    return ClassicalVerdict(reflexive=refl, antisymmetric=anti, transitive=trans)


# ---------------------------------------------------------------------------
# batched validity kernel (no witnesses)


def validity_kernel(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Axiom validity for a batch of diamonds given as (B, n, n) bool arrays."""
    if R1.shape != R2.shape or R1.ndim != 3 or R1.shape[1] != R1.shape[2]:
        raise UsageError("expected matching (B, n, n) arrays")
    B, n, _ = R1.shape
    if B == 0:
        return np.zeros(0, dtype=bool)
    idx = np.arange(n)

    refl = R1[:, idx, idx].all(axis=1) & R2[:, idx, idx].all(axis=1)

    R1t = R1.transpose(0, 2, 1)
    R2t = R2.transpose(0, 2, 1)
    DL = R1 & R2
    T_ab = R1 & R1t                      # a r1 b and b r1 a
    S2 = R2 & R2t                        # b r2 c and c r2 b
    premise = T_ab[:, :, :, None] & DL[:, :, None, :] & S2[:, None, :, :]
    eq3 = np.zeros((n, n, n), dtype=bool)
    eq3[idx, idx, idx] = True
    anti_bad = (premise & ~eq3).any(axis=(1, 2, 3))

    CH = R1[:, :, :, None] & R2[:, None, :, :]          # [B, a, b, c] and also [B, b, d, c]
    hasD = CH.any(axis=2)                               # [B, b, c]
    hasE = R2.any(axis=2)                               # [B, c]
    NR1 = (~R1).astype(np.uint8)
    Dpart = CH.astype(np.uint8)
    # hasDbad[a,b,c] = exists d: (b r1 d and d r2 c) and not a r1 d
    hasDbad = np.einsum("zad,zbdc->zabc", NR1, Dpart).astype(bool)
    NR2 = (~R2).astype(np.uint8)
    # hasEbad[b,c] = exists e: c r2 e and not b r2 e
    hasEbad = np.einsum("zbe,zce->zbc", NR2, R2.astype(np.uint8)).astype(bool)
    trans_bad = (
        CH
        & hasD[:, None, :, :]
        & hasE[:, None, None, :]
        & (hasDbad | hasEbad[:, None, :, :])
    ).any(axis=(1, 2, 3))

    return refl & ~anti_bad & ~trans_bad


# ---------------------------------------------------------------------------
# enumeration


def _off_positions(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _rel_from_offcode(n: int, code: int) -> Rel:
    rows = [1 << i for i in range(n)]
    for k, (i, j) in enumerate(_off_positions(n)):
        if (code >> k) & 1:
            rows[i] |= 1 << j
    return Rel(n, tuple(rows))


def enumerate_biposets(n: int) -> Iterator[Diamond]:
    """All valid diamonds on n elements in ascending (code1, code2) order.

    Reflexivity is imposed structurally, shrinking the candidate space to
    2^(2n(n-1)). Small sizes run through check_axioms directly; n=4 streams
    chunks through the batched kernel.
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise UsageError(f"n must be between 1 and {MAX_ENUM_N}")
    m = n * (n - 1)
    if n <= 3:
        for c1 in range(1 << m):
            r1 = _rel_from_offcode(n, c1)
            for c2 in range(1 << m):
                d = Diamond(r1, _rel_from_offcode(n, c2))
                if check_axioms(d).ok:
                    yield d
        return

    offs = _off_positions(n)
    total = 1 << (2 * m)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        c1 = codes >> m
        c2 = codes & ((1 << m) - 1)
        B = stop - start
        R1 = np.zeros((B, n, n), dtype=bool)
        R2 = np.zeros((B, n, n), dtype=bool)
        di = np.arange(n)
        R1[:, di, di] = True
        R2[:, di, di] = True
        for k, (i, j) in enumerate(offs):
            R1[:, i, j] = (c1 >> k) & 1
            R2[:, i, j] = (c2 >> k) & 1
        ok = validity_kernel(R1, R2)
        for pos in np.flatnonzero(ok):
            yield Diamond(
                _rel_from_offcode(n, int(c1[pos])),
                _rel_from_offcode(n, int(c2[pos])),
            )


_STRUCT_CACHE: dict[int, tuple[Diamond, ...]] = {}


def _structures(n: int) -> tuple[Diamond, ...]:
    if n not in _STRUCT_CACHE:
        _STRUCT_CACHE[n] = tuple(enumerate_biposets(n))
    return _STRUCT_CACHE[n]


def _generic_bp(d: Diamond) -> BiPoset:
    ground = GroundSet(tuple(f"e{i}" for i in range(d.n)))
    return BiPoset(ground, d, certificate="valid")


def _ser_diamond(d: Diamond) -> str:
    from .io_cli import serialize_structure

    ground = GroundSet(tuple(f"e{i}" for i in range(d.n)))
    return serialize_structure(BiPoset(ground, d))


def _ser_mapping(m: Mapping) -> str:
    from .io_cli import serialize_mapping

    src = GroundSet(tuple(f"e{i}" for i in range(m.src_n)))
    dst = GroundSet(tuple(f"e{i}" for i in range(m.dst_n)))
    return serialize_mapping(m, src, dst)


def _parse_diamond(text: str) -> Diamond:
    from .io_cli import parse_structure

    return parse_structure(text).d


def _parse_mapping(text: str, src_n: int, dst_n: int) -> Mapping:
    from .io_cli import parse_mapping

    src = GroundSet(tuple(f"e{i}" for i in range(src_n)))
    dst = GroundSet(tuple(f"e{i}" for i in range(dst_n)))
    return parse_mapping(text, src, dst)


# ---------------------------------------------------------------------------
# numpy sweep helpers


def _np_rel(structs: tuple[Diamond, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array([d.r1.rows + d.r2.rows for d in structs], dtype=np.int64).reshape(-1, 2, n)
    bits = ((rows[..., None] >> np.arange(n)) & 1).astype(bool)     # (S, 2, i, j)
    return np.ascontiguousarray(bits[:, 0]), np.ascontiguousarray(bits[:, 1])


def _chain_flat(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    S, n, _ = R1.shape
    CH = R1[:, :, :, None] & R2[:, None, :, :]
    return CH.reshape(S, n * n * n)


def _pack_bits(arr: np.ndarray) -> np.ndarray:
    """Pack the last bool axis into one int64 per row (axis length <= 62)."""
    T = arr.shape[-1]
    weights = (np.int64(1) << np.arange(T, dtype=np.int64))
    return arr.astype(np.int64) @ weights


def _all_maps(src_n: int, dst_n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(dst_n), repeat=src_n)), dtype=np.int64)


# ---------------------------------------------------------------------------
# the Galois adjunction sweep (shared by three claims)


_THM11_CACHE: dict[int, dict] = {}
_CLASS_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _iso_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Isomorphism classes of _structures(n) under relabelling r1 and r2 together.

    Returns (cls, reps, weights): the class index of every structure, the
    index of each class's first structure in enumeration order (its
    representative), and each class's orbit size.
    """
    if n not in _CLASS_CACHE:
        R1, R2 = _np_rel(_structures(n), n)
        S = len(R1)

        def codes(A: np.ndarray, B: np.ndarray) -> np.ndarray:
            # (code1, code2) packed into one integer, so that integer order is
            # the enumeration order
            return (_pack_bits(A.reshape(S, -1)) << (n * n)) | _pack_bits(B.reshape(S, -1))

        own = codes(R1, R2)
        perms = [list(p) for p in itertools.permutations(range(n))]
        least = np.min([codes(R1[:, p][:, :, p], R2[:, p][:, :, p]) for p in perms], axis=0)
        first = np.searchsorted(own, least)
        if not np.array_equal(own[first], least):
            raise RuntimeError("a relabelled structure is missing from the enumeration")
        reps, cls, weights = np.unique(first, return_inverse=True, return_counts=True)
        _CLASS_CACHE[n] = (cls, reps, weights)
    return _CLASS_CACHE[n]


def _scale_pairs(n_cap: int) -> list[tuple[int, int]]:
    pairs = [(a, b) for a in range(1, n_cap + 1) for b in range(1, n_cap + 1)]
    pairs.sort(key=lambda t: (max(t), t[0], t[1]))
    return pairs


def _thm11_sweep(n_cap: int) -> dict:
    """Exhaustive adjunction sweep over all structure pairs up to n_cap.

    For every ordered structure pair (P, Q) and every mapping pair (f, g) it
    evaluates the Galois biconditional, the four adjunction flags and
    adjoint multiplicity.

    Class reduction: relabelling P and Q (and carrying f and g along) leaves
    every count and flag unchanged, so the vectorised (P, Q, f, g) block runs
    only over pairs of isomorphism-class representatives (_iso_classes:
    1 / 7 / 126 classes at n = 1 / 2 / 3, so 126^2 instead of 653^2
    structure pairs at (3, 3)).
    Each representative pair adds weight_P * weight_Q times its Galois-pair
    count, the weights being orbit sizes. Instance totals are the full
    |structures(nP)| * |structures(nQ)| * mapping-pair products.

    Witness order: the first violation in canonical order, that is scale
    pairs as in _scale_pairs, then structure pairs (p, q) in enumeration
    order, then f and g in image-lexicographic order (right adjoints before
    left ones for adjoint multiplicity). A pair (p, q) violates a claim
    exactly when its class pair does, and each representative is the first
    member of its class with classes numbered in representative order, so
    the first violating (p, q) is the representative pair of the first
    violating class pair in row-major order: the first hit of the
    representative sweep is the canonical witness. Violations are
    re-verified through the pure API.
    """
    if n_cap in _THM11_CACHE:
        return _THM11_CACHE[n_cap]

    res: dict = {
        "instances": 0,
        "galois_pairs": 0,
        "adjoint_instances": 0,
        "fwd": None,
        "bwd": None,
        "adjoint": None,
    }

    per_n: dict[int, dict] = {}
    for n in range(1, n_cap + 1):
        structs = _structures(n)
        R1, R2 = _np_rel(structs, n)
        DL = R1 & R2
        chflat = _chain_flat(R1, R2)
        _, reps, weights = _iso_classes(n)
        per_n[n] = {
            "structs": structs,
            "DL": DL,
            "dlpack": _pack_bits(DL),     # [S, a] -> row mask over b
            "chflat": chflat,
            "chpack": _pack_bits(chflat),
            "reps": reps,
            "weights": weights,
        }

    for nP, nQ in _scale_pairs(n_cap):
        P = per_n[nP]
        Q = per_n[nQ]
        SP, SQ = len(P["structs"]), len(Q["structs"])
        fimg = _all_maps(nP, nQ)          # (MF, nP) values in Q
        gimg = _all_maps(nQ, nP)          # (MG, nQ) values in P
        MF, MG = len(fimg), len(gimg)
        res["instances"] += SP * SQ * MF * MG
        res["adjoint_instances"] += SP * SQ * (MF + MG)

        # Galois keys: f-side rows of Q's comparison vs g-pulled rows of P's
        kf = Q["dlpack"][:, fimg]                          # (SQ, MF, nP)
        hk = P["DL"][:, :, gimg].transpose(0, 2, 1, 3)     # (SP, MG, nP, nQ)
        hk = _pack_bits(hk)                                # (SP, MG, nP)
        shift = (np.int64(1) << (4 * np.arange(nP, dtype=np.int64)))
        kf_key = kf @ shift                                # (SQ, MF)
        hk_key = hk @ shift                                # (SP, MG)

        # unit depends only on (P, f, g) and counit only on (Q, f, g)
        reps_P, reps_Q = P["reps"], Q["reps"]
        comp_gf = np.take(gimg, fimg, axis=1).transpose(1, 0, 2)   # (MF, MG, nP): g(f(a))
        comp_fg = np.take(fimg, gimg, axis=1)                      # (MF, MG, nQ): f(g(b))
        unit = P["DL"][reps_P][:, np.arange(nP), comp_gf].all(-1)       # (CP, MF, MG)
        counit = Q["DL"][reps_Q][:, comp_fg, np.arange(nQ)].all(-1)     # (CQ, MF, MG)

        # chain images under every mapping, flattened over source triples
        fa = fimg[:, :, None, None]
        fb = fimg[:, None, :, None]
        fc = fimg[:, None, None, :]
        f_tri = ((fa * nQ + fb) * nQ + fc).reshape(MF, nP ** 3)
        ga = gimg[:, :, None, None]
        gb = gimg[:, None, :, None]
        gc = gimg[:, None, None, :]
        g_tri = ((ga * nP + gb) * nP + gc).reshape(MG, nQ ** 3)

        mfq = _pack_bits(Q["chflat"][:, f_tri])   # (SQ, MF) chains of Q at f-images
        mgp = _pack_bits(P["chflat"][:, g_tri])   # (SP, MG) chains of P at g-images
        chp = P["chpack"]                          # (SP,)
        chq = Q["chpack"]                          # (SQ,)

        CQ = len(reps_Q)
        pair_total = len(reps_P) * CQ
        chunk = max(1, 2_000_000 // (MF * MG))
        for start in range(0, pair_total, chunk):
            idx = np.arange(start, min(start + chunk, pair_total))
            i = idx // CQ                 # class indices
            j = idx % CQ
            pi = reps_P[i]                # structure indices
            qi = reps_Q[j]

            G = kf_key[qi][:, :, None] == hk_key[pi][:, None, :]   # (B, MF, MG)

            iso_f = (chp[pi][:, None] & ~mfq[qi]) == 0             # (B, MF)
            iso_g = (chq[qi][:, None] & ~mgp[pi]) == 0             # (B, MG)
            flags = unit[i] & counit[j] & iso_f[:, :, None] & iso_g[:, None, :]

            weight = P["weights"][i] * Q["weights"][j]
            res["galois_pairs"] += int(weight @ G.sum(axis=(1, 2)))

            if res["fwd"] is None:
                viol = G & ~flags
                if viol.any():
                    res["fwd"] = _extract_pair_violation(
                        viol, pi, qi, P, Q, fimg, gimg, nP, nQ)
            if res["bwd"] is None:
                viol = flags & ~G
                if viol.any():
                    res["bwd"] = _extract_pair_violation(
                        viol, pi, qi, P, Q, fimg, gimg, nP, nQ)
            if res["adjoint"] is None:
                rows = G.sum(axis=2) > 1
                cols = G.sum(axis=1) > 1
                if rows.any() or cols.any():
                    res["adjoint"] = _extract_adjoint_violation(
                        rows, cols, pi, qi, P, Q, fimg, gimg, nP, nQ)

    for key in ("fwd", "bwd"):
        wit = res[key]
        if wit is None:
            continue
        pair = GaloisPair(wit["_f"], wit["_g"])
        Pbp = _generic_bp(wit["_P"])
        Qbp = _generic_bp(wit["_Q"])
        galois_ok = bool(is_galois(pair, Pbp, Qbp))
        report = check_adjoint_properties(pair, Pbp, Qbp)
        if key == "fwd" and not (galois_ok and not report.all_hold):
            raise RuntimeError("sweep flagged a non-violation (fwd)")
        if key == "bwd" and not (report.all_hold and not galois_ok):
            raise RuntimeError("sweep flagged a non-violation (bwd)")
        wit["flags"] = {
            "f_isotone": report.f_isotone,
            "g_isotone": report.g_isotone,
            "unit_holds": report.unit_holds,
            "counit_holds": report.counit_holds,
            "is_galois": galois_ok,
        }

    _THM11_CACHE[n_cap] = res
    return res


def _extract_pair_violation(viol: np.ndarray, pi: np.ndarray, qi: np.ndarray, P: dict, Q: dict,
                            fimg: np.ndarray, gimg: np.ndarray, nP: int, nQ: int) -> dict:
    # viol: (B, MF, MG); row b of the chunk is the structure pair (pi[b], qi[b])
    b, fi, gi = np.unravel_index(int(np.argmax(viol)), viol.shape)
    dP = P["structs"][int(pi[b])]
    dQ = Q["structs"][int(qi[b])]
    f = Mapping(nP, nQ, tuple(int(v) for v in fimg[fi]))
    g = Mapping(nQ, nP, tuple(int(v) for v in gimg[gi]))
    return {
        "scale": (nP, nQ),
        "P": _ser_diamond(dP),
        "Q": _ser_diamond(dQ),
        "f": _ser_mapping(f),
        "g": _ser_mapping(g),
        "_P": dP, "_Q": dQ, "_f": f, "_g": g,
    }


def _extract_adjoint_violation(rows: np.ndarray, cols: np.ndarray, pi: np.ndarray,
                               qi: np.ndarray, P: dict, Q: dict, fimg: np.ndarray,
                               gimg: np.ndarray, nP: int, nQ: int) -> dict:
    # rows: (B, MF) right-adjoint multiplicity; cols: (B, MG) left side.
    # The first pair with either wins; within it the right side comes first.
    b = int(np.argmax(rows.any(axis=1) | cols.any(axis=1)))
    if rows[b].any():
        side = "right"
        m = Mapping(nP, nQ, tuple(int(v) for v in fimg[int(np.argmax(rows[b]))]))
    else:
        side = "left"
        m = Mapping(nQ, nP, tuple(int(v) for v in gimg[int(np.argmax(cols[b]))]))
    dP = P["structs"][int(pi[b])]
    dQ = Q["structs"][int(qi[b])]
    return {
        "scale": (nP, nQ),
        "P": _ser_diamond(dP),
        "Q": _ser_diamond(dQ),
        "f": _ser_mapping(m),
        "side": side,
        "_P": dP, "_Q": dQ, "_f": m,
    }


# ---------------------------------------------------------------------------
# duality sampling at n=4


def duality_sample(n: int = 4, budget: int = 1_000_000, seed: int = 0) -> dict:
    """Sampled dual-validity sweep over the reflexive space at size n.

    Draws budget structures uniformly (with replacement), keeps the valid
    ones, and checks their duals with the kernel. Returns counts plus the
    first violating structure in draw order, already re-verified through
    check_axioms.
    """
    if not 2 <= n <= MAX_ENUM_N:
        raise UsageError(f"n must be between 2 and {MAX_ENUM_N}")
    m = n * (n - 1)
    rng = np.random.default_rng(seed)
    c1s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)
    c2s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)
    offs = _off_positions(n)
    di = np.arange(n)

    valid_count = 0
    dual_invalid = 0
    first: Optional[dict] = None
    chunk = 1 << 17
    for startpos in range(0, budget, chunk):
        stop = min(startpos + chunk, budget)
        c1 = c1s[startpos:stop]
        c2 = c2s[startpos:stop]
        B = stop - startpos
        R1 = np.zeros((B, n, n), dtype=bool)
        R2 = np.zeros((B, n, n), dtype=bool)
        R1[:, di, di] = True
        R2[:, di, di] = True
        for k, (i, j) in enumerate(offs):
            R1[:, i, j] = (c1 >> k) & 1
            R2[:, i, j] = (c2 >> k) & 1
        ok = validity_kernel(R1, R2)
        vidx = np.flatnonzero(ok)
        valid_count += len(vidx)
        if len(vidx) == 0:
            continue
        dual_ok = validity_kernel(
            R1[vidx].transpose(0, 2, 1), R2[vidx].transpose(0, 2, 1))
        bad = np.flatnonzero(~dual_ok)
        dual_invalid += len(bad)
        if first is None and len(bad):
            pos = int(vidx[bad[0]])
            d = Diamond(_rel_from_offcode(n, int(c1[pos])),
                        _rel_from_offcode(n, int(c2[pos])))
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
        "valid": valid_count,
        "dual_invalid": dual_invalid,
        "seed": seed,
        "first": first,
    }


def _verdict_failure(verdict: AxiomVerdict) -> dict:
    for name in ("reflexive", "antisymmetric", "transitive"):
        ax: AxiomCheck = getattr(verdict, name)
        if not ax.ok:
            out = {"axiom": name, "witness": ax.witness}
            if ax.detail:
                out["detail"] = ax.detail
            return out
    raise UsageError("verdict has no failure")


# ---------------------------------------------------------------------------
# claim implementations


def _claim_intersect(n_max: int, budget: Optional[int], seed: int) -> Finding:
    checked = 0
    notes = []
    for n in range(1, min(n_max, 2) + 1):
        structs = _structures(n)
        for d1 in structs:
            for d2 in structs:
                checked += 1
                bad = _closure_violation([d1, d2])
                if bad:
                    return replace(bad, instances_checked=checked)
        notes.append(f"n={n}: exhaustive over {len(structs)}^2 ordered pairs")

    used_seed = None
    used_budget = None
    if n_max >= 3:
        structs = _structures(3)
        used_budget = budget or 20_000
        used_seed = seed
        rng = random.Random(seed)
        half = used_budget // 2
        for count, arity in ((half, 2), (used_budget - half, 3)):
            for _ in range(count):
                ds = [structs[rng.randrange(len(structs))] for _ in range(arity)]
                checked += 1
                bad = _closure_violation(ds)
                if bad:
                    return replace(bad, instances_checked=checked)
        notes.append(f"n=3: {half} sampled pairs and {used_budget - half} sampled triples")
        if n_max > 3:
            notes.append("scales above 3 are not swept")
    return Finding(
        claim="INTERSECT_CLOSURE", scale=(min(n_max, 3),), verdict=VERIFIED,
        instances_checked=checked, seed=used_seed, budget=used_budget,
        notes=tuple(notes),
    )


def _closure_violation(ds: list[Diamond]) -> Optional[Finding]:
    inter = intersect_many(ds)
    verdict = check_axioms(inter)
    if verdict.ok:
        return None
    return Finding(
        claim="INTERSECT_CLOSURE", scale=(ds[0].n,), verdict=REFUTED,
        witness={
            "inputs": tuple(_ser_diamond(d) for d in ds),
            "intersection": _ser_diamond(inter),
            "failed": _verdict_failure(verdict),
        },
    )


_UNIQUE_SIDES = {
    "UNIQUE_GMAX": ("greatest", True),
    "UNIQUE_GMIN": ("greatest", False),
    "UNIQUE_LMAX": ("least", True),
    "UNIQUE_LMIN": ("least", False),
}


def _claim_unique(claim: str, n_max: int) -> Finding:
    direction, want_sup = _UNIQUE_SIDES[claim]
    checked = 0
    cap = min(n_max, 3)
    for n in range(1, cap + 1):
        for d in _structures(n):
            bp = _generic_bp(d)
            firsts = sided_extreme(bp, 1, direction)
            seconds = sided_extreme(bp, 2, direction)
            values = two_sided_values(d, firsts, seconds, want_sup)
            checked += 1
            if len(values) > 1:
                return Finding(
                    claim=claim, scale=(n,), verdict=REFUTED,
                    witness={
                        "structure": _ser_diamond(d),
                        "component1": tuple(firsts),
                        "component2": tuple(seconds),
                        "values": tuple(sorted(values)),
                    },
                    instances_checked=checked,
                )
    return Finding(claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _claim_powerset_valid(n_max: int) -> Finding:
    checked = 0
    for k in range(0, min(n_max, 3) + 1):
        try:
            powerset_biposet(k)
        except UsageError as exc:
            return Finding(
                claim="POWERSET_VALID", scale=(k,), verdict=REFUTED,
                witness={"k": k, "failed": str(exc)}, instances_checked=checked + 1,
            )
        checked += 1
    return Finding(
        claim="POWERSET_VALID", scale=(min(n_max, 3),), verdict=VERIFIED,
        instances_checked=checked,
    )


def _claim_powerset_self_dual(n_max: int) -> Finding:
    checked = 0
    for k in range(0, min(n_max, 3) + 1):
        bp = powerset_biposet(k)
        size = 1 << k
        comp = Mapping(size, size, tuple((size - 1) ^ m for m in range(size)))
        ok = is_isomorphism(comp, bp, dual_biposet(bp))
        checked += 1
        if not ok:
            return Finding(
                claim="POWERSET_SELF_DUAL", scale=(k,), verdict=REFUTED,
                witness={
                    "k": k,
                    "mapping": _ser_mapping(comp),
                    "violation": ok.witness,
                    "reason": ok.reason,
                },
                instances_checked=checked,
            )
    return Finding(
        claim="POWERSET_SELF_DUAL", scale=(min(n_max, 3),), verdict=VERIFIED,
        instances_checked=checked,
    )


def _claim_double_dual(n_max: int) -> Finding:
    checked = 0
    cap = min(n_max, 3)
    for n in range(1, cap + 1):
        for d in _structures(n):
            dd = dual(dual(d))
            checked += 1
            if dd.code != d.code or not is_isomorphism(Mapping.identity(n), _generic_bp(d), BiPoset(_generic_bp(d).ground, dd)):
                return Finding(
                    claim="DOUBLE_DUAL", scale=(n,), verdict=REFUTED,
                    witness={"structure": _ser_diamond(d), "double_dual": _ser_diamond(dd)},
                    instances_checked=checked,
                )
    return Finding(claim="DOUBLE_DUAL", scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _claim_duality(n_max: int, budget: Optional[int], seed: int) -> Finding:
    checked = 0
    for n in range(1, min(n_max, 3) + 1):
        for d in _structures(n):
            checked += 1
            verdict = check_axioms(dual(d))
            if not verdict.ok:
                return Finding(
                    claim="DUALITY_PRINCIPLE", scale=(n,), verdict=REFUTED,
                    witness={
                        "structure": _ser_diamond(d),
                        "dual": _ser_diamond(dual(d)),
                        "failed": _verdict_failure(verdict),
                    },
                    instances_checked=checked,
                    notes=("scan stopped at the first counterexample scale",),
                )
    if n_max >= 4:
        used_budget = budget or 1_000_000
        sample = duality_sample(4, used_budget, seed)
        checked += sample["valid"]
        if sample["dual_invalid"]:
            first = sample["first"]
            return Finding(
                claim="DUALITY_PRINCIPLE", scale=(4,), verdict=REFUTED,
                witness=first, instances_checked=checked, seed=seed, budget=used_budget,
                notes=("n=4 counterexample is first in sample order, not globally minimal",),
            )
        return Finding(
            claim="DUALITY_PRINCIPLE", scale=(4,), verdict=VERIFIED,
            instances_checked=checked, seed=seed, budget=used_budget,
            notes=(f"n=4 sampled: {sample['valid']} valid structures from {used_budget} draws",),
        )
    return Finding(
        claim="DUALITY_PRINCIPLE", scale=(min(n_max, 3),), verdict=VERIFIED,
        instances_checked=checked,
    )


def _claim_iso_iff_isotone(n_max: int) -> Finding:
    checked = 0
    cap = min(n_max, 3)
    for n in range(1, cap + 1):
        structs = _structures(n)
        S = len(structs)
        R1, R2 = _np_rel(structs, n)
        ch = _chain_flat(R1, R2)
        perms = list(itertools.permutations(range(n)))
        grid = np.indices((n, n, n))
        v_per_perm = []
        for perm in perms:
            parr = np.array(perm)
            pidx = ((parr[grid[0]] * n + parr[grid[1]]) * n + parr[grid[2]]).reshape(-1)
            inv = np.argsort(parr)
            pidx_inv = ((inv[grid[0]] * n + inv[grid[1]]) * n + inv[grid[2]]).reshape(-1)
            mfq = ch[:, pidx]
            mfp_inv = ch[:, pidx_inv]
            eq = ~((ch[:, None, :] ^ mfq[None, :, :]).any(-1))
            sub_f = ~((ch[:, None, :] & ~mfq[None, :, :]).any(-1))
            sub_g = ~((ch[None, :, :] & ~mfp_inv[:, None, :]).any(-1))
            v_per_perm.append(eq ^ (sub_f & sub_g))
            checked += S * S
        any_v = np.zeros((S, S), dtype=bool)
        for v in v_per_perm:
            any_v |= v
        if any_v.any():
            p, q = np.unravel_index(int(np.argmax(any_v)), any_v.shape)
            for k, v in enumerate(v_per_perm):
                if v[p, q]:
                    f = Mapping(n, n, perms[k])
                    src = _generic_bp(structs[p])
                    dst = _generic_bp(structs[q])
                    iso = is_isomorphism(f, src, dst)
                    fwd = is_isotone(f, structs[p], structs[q])
                    bwd = is_isotone(f.inverse(), structs[q], structs[p])
                    if bool(iso) == (bool(fwd) and bool(bwd)):
                        raise RuntimeError("sweep flagged a non-violation (iso)")
                    return Finding(
                        claim="ISO_IFF_ISOTONE", scale=(n,), verdict=REFUTED,
                        witness={
                            "P": _ser_diamond(structs[p]),
                            "Q": _ser_diamond(structs[q]),
                            "f": _ser_mapping(f),
                            "is_isomorphism": bool(iso),
                            "isotone": bool(fwd),
                            "inverse_isotone": bool(bwd),
                        },
                        instances_checked=checked,
                    )
    return Finding(claim="ISO_IFF_ISOTONE", scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _galois_pairs_between(P: BiPoset, Q: BiPoset) -> list[GaloisPair]:
    out = []
    for fimg in itertools.product(range(Q.n), repeat=P.n):
        f = Mapping(P.n, Q.n, fimg)
        out.extend(GaloisPair(f, g) for g in find_adjoint(f, P, Q))
    return out


def _claim_compose(n_max: int) -> Finding:
    cap = min(n_max, 2)
    sizes = range(1, cap + 1)
    checked = 0
    bps = {n: [_generic_bp(d) for d in _structures(n)] for n in sizes}
    for nP in sizes:
        for nQ in sizes:
            for nR in sizes:
                for P in bps[nP]:
                    for Q in bps[nQ]:
                        first_pairs = _galois_pairs_between(P, Q)
                        if not first_pairs:
                            continue
                        for R in bps[nR]:
                            second_pairs = _galois_pairs_between(Q, R)
                            for pr1 in first_pairs:
                                for pr2 in second_pairs:
                                    composed = compose_galois(pr1, pr2)
                                    checked += 1
                                    ok = is_galois(composed, P, R)
                                    if not ok:
                                        return Finding(
                                            claim="GALOIS_COMPOSE", scale=(nP, nQ, nR),
                                            verdict=REFUTED,
                                            witness={
                                                "P": _ser_diamond(P.d),
                                                "Q": _ser_diamond(Q.d),
                                                "R": _ser_diamond(R.d),
                                                "first_f": _ser_mapping(pr1.f),
                                                "first_g": _ser_mapping(pr1.g),
                                                "second_f": _ser_mapping(pr2.f),
                                                "second_g": _ser_mapping(pr2.g),
                                                "violation": ok.witness,
                                            },
                                            instances_checked=checked,
                                        )
    return Finding(
        claim="GALOIS_COMPOSE", scale=(cap, cap, cap), verdict=VERIFIED,
        instances_checked=checked,
    )


def _claim_asymmetry(n_max: int) -> Finding:
    pair, P, Q = example_singleton(good=True)
    fwd = is_galois(pair, P, Q)
    swapped = GaloisPair(pair.g, pair.f)
    rev = is_galois(swapped, Q, P)
    if fwd and not rev:
        return Finding(
            claim="GALOIS_ASYMMETRY", scale=(P.n, Q.n), verdict=VERIFIED,
            witness={
                "P": _ser_diamond(P.d),
                "Q": _ser_diamond(Q.d),
                "f": _ser_mapping(pair.f),
                "g": _ser_mapping(pair.g),
                "swapped_violation": rev.witness,
            },
            instances_checked=1,
            notes=("existence claim: the witness is the exhibiting pair",),
        )
    # canned exhibit failed; hunt the whole small space before giving up
    cap = min(n_max, 2)
    checked = 1
    for nP in range(1, cap + 1):
        for nQ in range(1, cap + 1):
            for dP in _structures(nP):
                for dQ in _structures(nQ):
                    Pb, Qb = _generic_bp(dP), _generic_bp(dQ)
                    for cand in _galois_pairs_between(Pb, Qb):
                        checked += 1
                        if not is_galois(GaloisPair(cand.g, cand.f), Qb, Pb):
                            return Finding(
                                claim="GALOIS_ASYMMETRY", scale=(nP, nQ), verdict=VERIFIED,
                                witness={
                                    "P": _ser_diamond(dP), "Q": _ser_diamond(dQ),
                                    "f": _ser_mapping(cand.f), "g": _ser_mapping(cand.g),
                                },
                                instances_checked=checked,
                                notes=("existence claim: the witness is the exhibiting pair",),
                            )
    return Finding(
        claim="GALOIS_ASYMMETRY", scale=(cap, cap), verdict=REFUTED,
        witness=None, instances_checked=checked,
        notes=("every Galois pair at this scale stays Galois when swapped",),
    )


def _claim_thm11(claim: str, n_max: int) -> Finding:
    cap = min(n_max, 3)
    res = _thm11_sweep(cap)
    notes = []
    if n_max > 3:
        notes.append("scales above 3 are not swept")
    key = {"GALOIS_THM11_FWD": "fwd", "GALOIS_THM11_BWD": "bwd", "ADJOINT_UNIQUE": "adjoint"}[claim]
    wit = res[key]
    instances = res["adjoint_instances"] if claim == "ADJOINT_UNIQUE" else res["instances"]
    if wit is None:
        return Finding(
            claim=claim, scale=(cap, cap), verdict=VERIFIED,
            instances_checked=instances,
            notes=tuple(notes + [f"galois pairs seen: {res['galois_pairs']}"]),
        )
    # deep copy: the witness must not alias the nested values of the cached sweep
    public = copy.deepcopy({k: v for k, v in wit.items() if not k.startswith("_")})
    return Finding(
        claim=claim, scale=wit["scale"], verdict=REFUTED,
        witness=public, instances_checked=instances, notes=tuple(notes),
    )


def verify_claim(claim: str, n_max: int, budget: Optional[int] = None, seed: int = 0) -> Finding:
    """Run one registered claim at the given scale.

    Deterministic given (claim, n_max, budget, seed). Exhaustive wherever
    the instance space fits; sampled with the recorded seed otherwise.
    """
    if claim not in CLAIM_IDS:
        raise UsageError(f"unknown claim {claim!r}")
    if not 1 <= n_max <= MAX_ENUM_N:
        raise UsageError(f"n_max must be between 1 and {MAX_ENUM_N}")

    if claim == "INTERSECT_CLOSURE":
        return _claim_intersect(n_max, budget, seed)
    if claim in _UNIQUE_SIDES:
        return _claim_unique(claim, n_max)
    if claim == "POWERSET_VALID":
        return _claim_powerset_valid(n_max)
    if claim == "POWERSET_SELF_DUAL":
        return _claim_powerset_self_dual(n_max)
    if claim == "DOUBLE_DUAL":
        return _claim_double_dual(n_max)
    if claim == "DUALITY_PRINCIPLE":
        return _claim_duality(n_max, budget, seed)
    if claim == "ISO_IFF_ISOTONE":
        return _claim_iso_iff_isotone(n_max)
    if claim == "GALOIS_COMPOSE":
        return _claim_compose(n_max)
    if claim == "GALOIS_ASYMMETRY":
        return _claim_asymmetry(n_max)
    return _claim_thm11(claim, n_max)


# ---------------------------------------------------------------------------
# replay


def replay_finding(finding: Finding) -> bool:
    """Re-run the recorded violation through the public API.

    True when the stored witness still produces the recorded phenomenon.
    Verified findings without a witness replay vacuously.
    """
    wit = finding.witness
    if wit is None:
        return True
    claim = finding.claim

    if claim == "INTERSECT_CLOSURE":
        ds = [_parse_diamond(t) for t in wit["inputs"]]
        return not check_axioms(intersect_many(ds)).ok

    if claim in _UNIQUE_SIDES:
        direction, want_sup = _UNIQUE_SIDES[claim]
        d = _parse_diamond(wit["structure"])
        bp = _generic_bp(d)
        values = two_sided_values(
            d, sided_extreme(bp, 1, direction), sided_extreme(bp, 2, direction), want_sup)
        return len(values) > 1

    if claim == "POWERSET_VALID":
        try:
            powerset_biposet(wit["k"])
        except UsageError:
            return True
        return False

    if claim == "POWERSET_SELF_DUAL":
        bp = powerset_biposet(wit["k"])
        m = _parse_mapping(wit["mapping"], bp.n, bp.n)
        return not is_isomorphism(m, bp, dual_biposet(bp))

    if claim == "DOUBLE_DUAL":
        d = _parse_diamond(wit["structure"])
        return dual(dual(d)).code != d.code

    if claim == "DUALITY_PRINCIPLE":
        d = _parse_diamond(wit["structure"])
        return check_axioms(d).ok and not check_axioms(dual(d)).ok

    if claim == "ISO_IFF_ISOTONE":
        dP = _parse_diamond(wit["P"])
        dQ = _parse_diamond(wit["Q"])
        f = _parse_mapping(wit["f"], dP.n, dQ.n)
        iso = bool(is_isomorphism(f, _generic_bp(dP), _generic_bp(dQ)))
        both = bool(is_isotone(f, dP, dQ)) and bool(is_isotone(f.inverse(), dQ, dP))
        return iso != both

    if claim in ("GALOIS_THM11_FWD", "GALOIS_THM11_BWD"):
        dP = _parse_diamond(wit["P"])
        dQ = _parse_diamond(wit["Q"])
        f = _parse_mapping(wit["f"], dP.n, dQ.n)
        g = _parse_mapping(wit["g"], dQ.n, dP.n)
        pair = GaloisPair(f, g)
        P, Q = _generic_bp(dP), _generic_bp(dQ)
        galois_ok = bool(is_galois(pair, P, Q))
        flags = check_adjoint_properties(pair, P, Q).all_hold
        if claim == "GALOIS_THM11_FWD":
            return galois_ok and not flags
        return flags and not galois_ok

    if claim == "ADJOINT_UNIQUE":
        dP = _parse_diamond(wit["P"])
        dQ = _parse_diamond(wit["Q"])
        P, Q = _generic_bp(dP), _generic_bp(dQ)
        if wit["side"] == "right":
            f = _parse_mapping(wit["f"], dP.n, dQ.n)
            return len(find_adjoint(f, P, Q, "right")) > 1
        f = _parse_mapping(wit["f"], dQ.n, dP.n)
        return len(find_adjoint(f, Q, P, "left")) > 1

    if claim == "GALOIS_COMPOSE":
        dP = _parse_diamond(wit["P"])
        dQ = _parse_diamond(wit["Q"])
        dR = _parse_diamond(wit["R"])
        p1 = GaloisPair(_parse_mapping(wit["first_f"], dP.n, dQ.n),
                        _parse_mapping(wit["first_g"], dQ.n, dP.n))
        p2 = GaloisPair(_parse_mapping(wit["second_f"], dQ.n, dR.n),
                        _parse_mapping(wit["second_g"], dR.n, dQ.n))
        return not is_galois(compose_galois(p1, p2), _generic_bp(dP), _generic_bp(dR))

    if claim == "GALOIS_ASYMMETRY":
        dP = _parse_diamond(wit["P"])
        dQ = _parse_diamond(wit["Q"])
        f = _parse_mapping(wit["f"], dP.n, dQ.n)
        g = _parse_mapping(wit["g"], dQ.n, dP.n)
        P, Q = _generic_bp(dP), _generic_bp(dQ)
        return bool(is_galois(GaloisPair(f, g), P, Q)) and not is_galois(
            GaloisPair(g, f), Q, P)

    raise UsageError(f"no replay rule for claim {claim!r}")
