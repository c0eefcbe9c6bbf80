"""Exhaustive small-model enumeration and the claim registry.

Two independent implementations of the axioms live here next to the fast
one in axioms.py: a direct-quantifier checker (naive_check_axioms, plain
nested loops, no bit tricks) used as the agreement oracle, and a batched
bitmask kernel (validity_kernel, no witnesses) used for wide sweeps. The
claim runner verifies every registered claim at desk scale or produces a
minimal, replayable counterexample. Each claim is one row of _CLAIMS: its
description, runner, replayer and the largest scale the runner sweeps.

Validity is decided before any witness is built: the n <= 3 enumeration
asks the short-circuiting boolean checker (axioms._holds) and builds a
Diamond only for valid pairs, and INTERSECT_CLOSURE looks each
intersection up in the set of enumerated structures, calling check_axioms
only on a miss.

numpy is imported inside the batch paths only (the kernel, n=4
enumeration, duality_sample and the vectorised sweeps), so importing the
package and the per-structure paths never load it.

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
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

from .axioms import AxiomCheck, AxiomVerdict, _holds, check_axioms
from .constructions import dual, dual_biposet, intersect_many, powerset_biposet
from .core import BiPoset, Diamond, GroundSet, Rel, UsageError, transpose_rows
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

if TYPE_CHECKING:
    import numpy as np

MAX_ENUM_N = 4

GOLDEN_COUNTS = {1: 1, 2: 11, 3: 653}

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


def naive_check_classical(r: Rel) -> AxiomVerdict:
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

    return AxiomVerdict(reflexive=refl, antisymmetric=anti, transitive=trans)


# ---------------------------------------------------------------------------
# batched validity kernel (no witnesses)


def _mask_dtype(n: int):
    """Smallest unsigned dtype holding n bits; Python ints beyond 64."""
    import numpy as np

    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n <= 8 * np.dtype(dt).itemsize:
            return dt
    return object


def _code_masks(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, B) row and column masks of the reflexive relations whose
    off-diagonal cells, in row-major order, are the bits of codes."""
    import numpy as np

    codes = np.asarray(codes, dtype=np.int64)
    rows = np.empty((n, len(codes)), dtype=_mask_dtype(n))
    field = (1 << (n - 1)) - 1
    for i in range(n):
        # row i owns n-1 code bits; open a gap for the diagonal at bit i
        f = (codes >> (i * (n - 1))) & field
        low = f & ((1 << i) - 1)
        rows[i] = low | (1 << i) | ((f ^ low) << 1)
    cols = np.zeros_like(rows)
    for i in range(n):
        for j in range(n):
            cols[j] |= ((rows[i] >> j) & 1) << i
    return rows, cols


def _mask_kernel(row1: np.ndarray, col1: np.ndarray, row2: np.ndarray,
                 col2: np.ndarray) -> np.ndarray:
    """Axiom validity of B diamonds given as (n, B) row and column masks.

    Reflexivity is n bit tests. Antisymmetry is n^2 (a, b) tests: with
    a r1 b and b r1 a, any c in row1[a] & row2[a] & row2[b] & col2[b]
    other than a = b = c breaks it. Transitivity is factorised by b: with
    I_b the intersection of row1[a] over a in col1[b], the pair (b, c) for
    c in row2[b] fails iff (dmask & ~I_b) | (row2[c] & ~row2[b]) is
    non-empty, dmask = row1[b] & col2[c] being its d set. The premise also
    needs col1[b], dmask and row2[c] non-empty; on a structure where one
    is empty, b lacks its r1 loop or c its r2 loop, reflexivity fails
    anyway, so the combined verdict needs no such guard.
    """
    import numpy as np

    n, B = row1.shape
    full = (1 << n) - 1
    bad = np.zeros(B, dtype=bool)
    for a in range(n):
        bad |= (row1[a] & row2[a] & (1 << a)) == 0

    sym2 = [row2[b] & col2[b] for b in range(n)]
    for a in range(n):
        base = row1[a] & row2[a]
        for b in range(n):
            premise = ((row1[a] & (1 << b)) != 0) & ((row1[b] & (1 << a)) != 0)
            cmask = base & sym2[b]
            if a == b:
                cmask &= full ^ (1 << a)
            bad |= premise & (cmask != 0)

    for b in range(n):
        inter = np.full(B, full, dtype=row1.dtype)
        for a in range(n):
            inter = np.where((col1[b] & (1 << a)) != 0, inter & row1[a], inter)
        out_i = full ^ inter
        out_2 = full ^ row2[b]
        for c in range(n):
            dmask = row1[b] & col2[c]
            viol = ((dmask & out_i) | (row2[c] & out_2)) != 0
            bad |= ((row2[b] & (1 << c)) != 0) & viol
    return ~bad


def validity_kernel(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Axiom validity for a batch of diamonds given as (B, n, n) bool arrays.

    Packs each relation into (n, B) row and column bitmasks of the smallest
    unsigned dtype holding n bits and decides all three axioms with word
    operations over the batch (_mask_kernel); no witnesses.
    """
    import numpy as np

    if R1.shape != R2.shape or R1.ndim != 3 or R1.shape[1] != R1.shape[2]:
        raise UsageError("expected matching (B, n, n) arrays")
    B, n, _ = R1.shape
    if B == 0:
        return np.zeros(0, dtype=bool)
    dt = _mask_dtype(n)

    def pack(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        R = np.asarray(R, dtype=bool)
        rows = np.zeros((n, B), dtype=dt)
        cols = np.zeros((n, B), dtype=dt)
        for j in range(n):
            bit = np.array(1 << j, dtype=dt)
            rows |= R[:, :, j].T * bit
            cols |= R[:, j, :].T * bit
        return rows, cols

    row1, col1 = pack(R1)
    row2, col2 = pack(R2)
    return _mask_kernel(row1, col1, row2, col2)


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


def _mask_diamond(row1: np.ndarray, row2: np.ndarray, pos: int) -> Diamond:
    n = len(row1)
    return Diamond(Rel(n, tuple(int(r) for r in row1[:, pos])),
                   Rel(n, tuple(int(r) for r in row2[:, pos])))


def enumerate_biposets(n: int) -> Iterator[Diamond]:
    """All valid diamonds on n elements in ascending (code1, code2) order.

    Reflexivity is imposed structurally, shrinking the candidate space to
    2^(2n(n-1)). Small sizes build the 2^(n(n-1)) reflexive relations and
    their column masks once, decide each pair with the short-circuiting
    boolean checker (axioms._holds, no verdicts) and build a Diamond only
    for the valid ones; n=4 streams chunks of 2^16 codes through the
    batched mask kernel, packing each chunk straight from its codes
    (_code_masks).
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise UsageError(f"n must be between 1 and {MAX_ENUM_N}")
    m = n * (n - 1)
    if n <= 3:
        rels = [_rel_from_offcode(n, c) for c in range(1 << m)]
        cols = [transpose_rows(r.rows) for r in rels]
        for r1 in rels:
            rows1 = r1.rows
            for r2, cols2 in zip(rels, cols):
                if _holds(rows1, r2.rows, cols2):
                    yield Diamond(r1, r2)
        return

    import numpy as np

    total = 1 << (2 * m)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        row1, col1 = _code_masks(n, codes >> m)
        row2, col2 = _code_masks(n, codes & ((1 << m) - 1))
        ok = _mask_kernel(row1, col1, row2, col2)
        for pos in np.flatnonzero(ok):
            yield _mask_diamond(row1, row2, pos)


_STRUCT_CACHE: dict[int, tuple[Diamond, ...]] = {}


def _structures(n: int) -> tuple[Diamond, ...]:
    if n not in _STRUCT_CACHE:
        _STRUCT_CACHE[n] = tuple(enumerate_biposets(n))
    return _STRUCT_CACHE[n]


@cache
def _ground(n: int) -> GroundSet:
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def _generic_bp(d: Diamond) -> BiPoset:
    return BiPoset(_ground(d.n), d, certificate="valid")


def _ser_diamond(d: Diamond) -> str:
    from .io_cli import serialize_structure

    return serialize_structure(BiPoset(_ground(d.n), d))


def _ser_mapping(m: Mapping) -> str:
    from .io_cli import serialize_mapping

    return serialize_mapping(m, _ground(m.src_n), _ground(m.dst_n))


def _parse_diamond(text: str) -> Diamond:
    from .io_cli import parse_structure

    return parse_structure(text).d


def _parse_mapping(text: str, src_n: int, dst_n: int) -> Mapping:
    from .io_cli import parse_mapping

    return parse_mapping(text, _ground(src_n), _ground(dst_n))


# ---------------------------------------------------------------------------
# numpy sweep helpers


def _np_rel(structs: tuple[Diamond, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    rows = np.array([d.r1.rows + d.r2.rows for d in structs], dtype=np.int64).reshape(-1, 2, n)
    bits = ((rows[..., None] >> np.arange(n)) & 1).astype(bool)     # (S, 2, i, j)
    return np.ascontiguousarray(bits[:, 0]), np.ascontiguousarray(bits[:, 1])


def _chain_flat(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    S, n, _ = R1.shape
    CH = R1[:, :, :, None] & R2[:, None, :, :]
    return CH.reshape(S, n * n * n)


def _pack_bits(arr: np.ndarray) -> np.ndarray:
    """Pack the last bool axis into one int64 per row (axis length <= 62)."""
    import numpy as np

    T = arr.shape[-1]
    weights = (np.int64(1) << np.arange(T, dtype=np.int64))
    return arr.astype(np.int64) @ weights


def _all_maps(src_n: int, dst_n: int) -> np.ndarray:
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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

    # violations are re-verified by their claims' replayers, from the witness text
    for key, forward in (("fwd", True), ("bwd", False)):
        wit = res[key]
        if wit is None:
            continue
        if not _replay_thm11(forward, wit):
            raise RuntimeError(f"sweep flagged a non-violation ({key})")
        report = check_adjoint_properties(*_parse_galois_pair(wit))
        wit["flags"] = {
            "f_isotone": report.f_isotone,
            "g_isotone": report.g_isotone,
            "unit_holds": report.unit_holds,
            "counit_holds": report.counit_holds,
            "is_galois": forward,
        }
    if res["adjoint"] is not None and not _replay_adjoint(res["adjoint"]):
        raise RuntimeError("sweep flagged a non-violation (adjoint)")

    _THM11_CACHE[n_cap] = res
    return res


def _extract_pair_violation(viol: np.ndarray, pi: np.ndarray, qi: np.ndarray, P: dict, Q: dict,
                            fimg: np.ndarray, gimg: np.ndarray, nP: int, nQ: int) -> dict:
    import numpy as np

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
    }


def _extract_adjoint_violation(rows: np.ndarray, cols: np.ndarray, pi: np.ndarray,
                               qi: np.ndarray, P: dict, Q: dict, fimg: np.ndarray,
                               gimg: np.ndarray, nP: int, nQ: int) -> dict:
    import numpy as np

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
    }


# ---------------------------------------------------------------------------
# duality sampling at n=4


def duality_sample(n: int = 4, budget: int = 1_000_000, seed: int = 0) -> dict:
    """Sampled dual-validity sweep over the reflexive space at size n.

    Draws budget structures uniformly (with replacement), keeps the valid
    ones, and checks their duals with the mask kernel: a dual's row masks
    are the structure's column masks and the other way round, so the dual
    batch is the same masks with rows and columns swapped. Returns counts
    plus the first violating structure in draw order, already re-verified
    through check_axioms.
    """
    if not 2 <= n <= MAX_ENUM_N:
        raise UsageError(f"n must be between 2 and {MAX_ENUM_N}")
    import numpy as np

    m = n * (n - 1)
    rng = np.random.default_rng(seed)
    c1s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)
    c2s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)

    valid_count = 0
    dual_invalid = 0
    first: Optional[dict] = None
    chunk = 1 << 17
    for startpos in range(0, budget, chunk):
        row1, col1 = _code_masks(n, c1s[startpos:startpos + chunk])
        row2, col2 = _code_masks(n, c2s[startpos:startpos + chunk])
        vidx = np.flatnonzero(_mask_kernel(row1, col1, row2, col2))
        valid_count += len(vidx)
        if len(vidx) == 0:
            continue
        row1, col1, row2, col2 = (x[:, vidx] for x in (row1, col1, row2, col2))
        bad = np.flatnonzero(~_mask_kernel(col1, row1, col2, row2))
        dual_invalid += len(bad)
        if first is None and len(bad):
            d = _mask_diamond(row1, row2, int(bad[0]))
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
# claim runners and replayers
#
# A runner takes the claim id and the scale cap it sweeps (the claim's table
# row caps it, see verify_claim) and returns the Finding. A replayer takes a
# stored witness and re-runs it through the public API.


def _structure_keys(structs: tuple[Diamond, ...]) -> list[int]:
    """One integer per structure, (r1 code, r2 code) side by side, so that
    the key of an intersection is the AND of the keys of its operands."""
    shift = structs[0].n ** 2
    return [d.r1.code | (d.r2.code << shift) for d in structs]


def _claim_intersect(claim: str, cap: int, budget: Optional[int], seed: int) -> Finding:
    """Exhaustive pairs at n <= 2, budget seeded pairs and triples at n = 3.

    An intersection of reflexive structures is reflexive, and the
    enumeration holds every valid reflexive structure, so an intersection
    is valid iff its key is one of the enumerated keys: one AND per operand
    and one set lookup decide each instance. Only a miss goes through
    check_axioms (_closure_violation), for the least witness.
    """
    checked = 0
    notes = []
    for n in range(1, min(cap, 2) + 1):
        structs = _structures(n)
        keys = _structure_keys(structs)
        valid = set(keys)
        for i, k1 in enumerate(keys):
            for j, k2 in enumerate(keys):
                checked += 1
                if (k1 & k2) not in valid:
                    return _closure_violation([structs[i], structs[j]], checked, claim)
        notes.append(f"n={n}: exhaustive over {len(structs)}^2 ordered pairs")

    used_seed = None
    used_budget = None
    if cap >= 3:
        structs = _structures(3)
        keys = _structure_keys(structs)
        valid = set(keys)
        S = len(structs)
        used_budget = 20_000 if budget is None else budget
        used_seed = seed
        rng = random.Random(seed)
        half = used_budget // 2
        for count, arity in ((half, 2), (used_budget - half, 3)):
            for _ in range(count):
                idx = [rng.randrange(S) for _ in range(arity)]
                inter = keys[idx[0]]
                for i in idx[1:]:
                    inter &= keys[i]
                checked += 1
                if inter not in valid:
                    return _closure_violation([structs[i] for i in idx], checked, claim)
        notes.append(f"n=3: {half} sampled pairs and {used_budget - half} sampled triples")
    return Finding(
        claim=claim, scale=(cap,), verdict=VERIFIED,
        instances_checked=checked, seed=used_seed, budget=used_budget,
        notes=tuple(notes),
    )


def _closure_violation(ds: list[Diamond], checked: int,
                       claim: str = "INTERSECT_CLOSURE") -> Finding:
    """Refutation for an intersection the valid-set lookup missed, with the
    least witness from check_axioms, which must agree that it fails."""
    inter = intersect_many(ds)
    verdict = check_axioms(inter)
    if verdict.ok:
        raise RuntimeError("valid-set lookup and check_axioms disagree (intersection)")
    return Finding(
        claim=claim, scale=(ds[0].n,), verdict=REFUTED,
        witness={
            "inputs": tuple(_ser_diamond(d) for d in ds),
            "intersection": _ser_diamond(inter),
            "failed": _verdict_failure(verdict),
        },
        instances_checked=checked,
    )


def _replay_intersect(wit: dict) -> bool:
    return not check_axioms(intersect_many([_parse_diamond(t) for t in wit["inputs"]])).ok


def _two_sided(direction: str, want_sup: bool, d: Diamond) -> tuple[list[int], list[int], set[int]]:
    bp = _generic_bp(d)
    firsts = sided_extreme(bp, 1, direction)
    seconds = sided_extreme(bp, 2, direction)
    return firsts, seconds, two_sided_values(d, firsts, seconds, want_sup)


def _claim_unique(direction: str, want_sup: bool, claim: str, cap: int) -> Finding:
    checked = 0
    for n in range(1, cap + 1):
        for d in _structures(n):
            firsts, seconds, values = _two_sided(direction, want_sup, d)
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


def _replay_unique(direction: str, want_sup: bool, wit: dict) -> bool:
    _, _, values = _two_sided(direction, want_sup, _parse_diamond(wit["structure"]))
    return len(values) > 1


def _claim_powerset_valid(claim: str, cap: int) -> Finding:
    checked = 0
    for k in range(0, cap + 1):
        try:
            powerset_biposet(k)
        except UsageError as exc:
            return Finding(
                claim=claim, scale=(k,), verdict=REFUTED,
                witness={"k": k, "failed": str(exc)}, instances_checked=checked + 1,
            )
        checked += 1
    return Finding(claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _replay_powerset_valid(wit: dict) -> bool:
    try:
        powerset_biposet(wit["k"])
    except UsageError:
        return True
    return False


def _claim_powerset_self_dual(claim: str, cap: int) -> Finding:
    checked = 0
    for k in range(0, cap + 1):
        bp = powerset_biposet(k)
        size = 1 << k
        comp = Mapping(size, size, tuple((size - 1) ^ m for m in range(size)))
        ok = is_isomorphism(comp, bp, dual_biposet(bp))
        checked += 1
        if not ok:
            return Finding(
                claim=claim, scale=(k,), verdict=REFUTED,
                witness={
                    "k": k,
                    "mapping": _ser_mapping(comp),
                    "violation": ok.witness,
                    "reason": ok.reason,
                },
                instances_checked=checked,
            )
    return Finding(claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _replay_powerset_self_dual(wit: dict) -> bool:
    bp = powerset_biposet(wit["k"])
    m = _parse_mapping(wit["mapping"], bp.n, bp.n)
    return not is_isomorphism(m, bp, dual_biposet(bp))


def _claim_double_dual(claim: str, cap: int) -> Finding:
    # equal codes are equal relations, so the identity is then an isomorphism
    # onto the double dual; no mapping check is needed
    checked = 0
    for n in range(1, cap + 1):
        for d in _structures(n):
            dd = dual(dual(d))
            checked += 1
            if dd.code != d.code:
                return Finding(
                    claim=claim, scale=(n,), verdict=REFUTED,
                    witness={"structure": _ser_diamond(d), "double_dual": _ser_diamond(dd)},
                    instances_checked=checked,
                )
    return Finding(claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _replay_double_dual(wit: dict) -> bool:
    d = _parse_diamond(wit["structure"])
    return dual(dual(d)).code != d.code


def _claim_duality(claim: str, cap: int) -> Finding:
    # n=3 always refutes, so larger scales are never reached; duality_sample
    # is the sampled sweep over n=4
    checked = 0
    for n in range(1, cap + 1):
        for d in _structures(n):
            checked += 1
            verdict = check_axioms(dual(d))
            if not verdict.ok:
                return Finding(
                    claim=claim, scale=(n,), verdict=REFUTED,
                    witness={
                        "structure": _ser_diamond(d),
                        "dual": _ser_diamond(dual(d)),
                        "failed": _verdict_failure(verdict),
                    },
                    instances_checked=checked,
                    notes=("scan stopped at the first counterexample scale",),
                )
    return Finding(claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _replay_duality(wit: dict) -> bool:
    d = _parse_diamond(wit["structure"])
    return check_axioms(d).ok and not check_axioms(dual(d)).ok


def _iso_sides(f: Mapping, dP: Diamond, dQ: Diamond) -> tuple[bool, bool, bool]:
    """(f is an isomorphism, f is isotone, f^-1 is isotone) through the API."""
    return (bool(is_isomorphism(f, _generic_bp(dP), _generic_bp(dQ))),
            bool(is_isotone(f, dP, dQ)), bool(is_isotone(f.inverse(), dQ, dP)))


def _claim_iso_iff_isotone(claim: str, cap: int) -> Finding:
    import numpy as np

    checked = 0
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
                    iso, fwd, bwd = _iso_sides(f, structs[p], structs[q])
                    if iso == (fwd and bwd):
                        raise RuntimeError("sweep flagged a non-violation (iso)")
                    return Finding(
                        claim=claim, scale=(n,), verdict=REFUTED,
                        witness={
                            "P": _ser_diamond(structs[p]),
                            "Q": _ser_diamond(structs[q]),
                            "f": _ser_mapping(f),
                            "is_isomorphism": iso,
                            "isotone": fwd,
                            "inverse_isotone": bwd,
                        },
                        instances_checked=checked,
                    )
    return Finding(claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked)


def _replay_iso_iff_isotone(wit: dict) -> bool:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    iso, fwd, bwd = _iso_sides(_parse_mapping(wit["f"], dP.n, dQ.n), dP, dQ)
    return iso != (fwd and bwd)


def _galois_pairs_between(P: BiPoset, Q: BiPoset) -> list[GaloisPair]:
    out = []
    for fimg in itertools.product(range(Q.n), repeat=P.n):
        f = Mapping(P.n, Q.n, fimg)
        out.extend(GaloisPair(f, g) for g in find_adjoint(f, P, Q))
    return out


def _claim_compose(claim: str, cap: int) -> Finding:
    sizes = range(1, cap + 1)
    checked = 0
    bps = {n: [_generic_bp(d) for d in _structures(n)] for n in sizes}
    # every (Q, R) list is needed again for each P, so each is found once
    galois_pairs = {(nA, i, nB, j): _galois_pairs_between(A, B)
                    for nA in sizes for i, A in enumerate(bps[nA])
                    for nB in sizes for j, B in enumerate(bps[nB])}
    for nP in sizes:
        for nQ in sizes:
            for nR in sizes:
                for p, P in enumerate(bps[nP]):
                    for q, Q in enumerate(bps[nQ]):
                        first_pairs = galois_pairs[nP, p, nQ, q]
                        if not first_pairs:
                            continue
                        for r, R in enumerate(bps[nR]):
                            second_pairs = galois_pairs[nQ, q, nR, r]
                            for pr1 in first_pairs:
                                for pr2 in second_pairs:
                                    composed = compose_galois(pr1, pr2)
                                    checked += 1
                                    ok = is_galois(composed, P, R)
                                    if not ok:
                                        return Finding(
                                            claim=claim, scale=(nP, nQ, nR),
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
    return Finding(claim=claim, scale=(cap, cap, cap), verdict=VERIFIED, instances_checked=checked)


def _replay_compose(wit: dict) -> bool:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    dR = _parse_diamond(wit["R"])
    p1 = GaloisPair(_parse_mapping(wit["first_f"], dP.n, dQ.n),
                    _parse_mapping(wit["first_g"], dQ.n, dP.n))
    p2 = GaloisPair(_parse_mapping(wit["second_f"], dQ.n, dR.n),
                    _parse_mapping(wit["second_g"], dR.n, dQ.n))
    return not is_galois(compose_galois(p1, p2), _generic_bp(dP), _generic_bp(dR))


def _claim_asymmetry(claim: str, cap: int) -> Finding:
    pair, P, Q = example_singleton(good=True)
    fwd = is_galois(pair, P, Q)
    swapped = GaloisPair(pair.g, pair.f)
    rev = is_galois(swapped, Q, P)
    if fwd and not rev:
        return Finding(
            claim=claim, scale=(P.n, Q.n), verdict=VERIFIED,
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
                                claim=claim, scale=(nP, nQ), verdict=VERIFIED,
                                witness={
                                    "P": _ser_diamond(dP), "Q": _ser_diamond(dQ),
                                    "f": _ser_mapping(cand.f), "g": _ser_mapping(cand.g),
                                },
                                instances_checked=checked,
                                notes=("existence claim: the witness is the exhibiting pair",),
                            )
    return Finding(
        claim=claim, scale=(cap, cap), verdict=REFUTED,
        witness=None, instances_checked=checked,
        notes=("every Galois pair at this scale stays Galois when swapped",),
    )


def _parse_galois_pair(wit: dict) -> tuple[GaloisPair, BiPoset, BiPoset]:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    pair = GaloisPair(_parse_mapping(wit["f"], dP.n, dQ.n), _parse_mapping(wit["g"], dQ.n, dP.n))
    return pair, _generic_bp(dP), _generic_bp(dQ)


def _replay_asymmetry(wit: dict) -> bool:
    pair, P, Q = _parse_galois_pair(wit)
    return bool(is_galois(pair, P, Q)) and not is_galois(GaloisPair(pair.g, pair.f), Q, P)


def _claim_thm11(key: str, claim: str, cap: int) -> Finding:
    """One of the three claims read off the shared sweep: key is "fwd",
    "bwd" or "adjoint", the sweep's witness slot for the claim."""
    res = _thm11_sweep(cap)
    wit = res[key]
    instances = res["adjoint_instances"] if key == "adjoint" else res["instances"]
    if wit is None:
        return Finding(
            claim=claim, scale=(cap, cap), verdict=VERIFIED,
            instances_checked=instances,
            notes=(f"galois pairs seen: {res['galois_pairs']}",),
        )
    # deep copy: the witness must not alias the nested values of the cached sweep
    return Finding(
        claim=claim, scale=wit["scale"], verdict=REFUTED,
        witness=copy.deepcopy(wit), instances_checked=instances,
    )


def _replay_thm11(forward: bool, wit: dict) -> bool:
    """FWD: Galois without all four flags; BWD: all four flags, not Galois."""
    pair, P, Q = _parse_galois_pair(wit)
    galois_ok = bool(is_galois(pair, P, Q))
    flags = check_adjoint_properties(pair, P, Q).all_hold
    if forward:
        return galois_ok and not flags
    return flags and not galois_ok


def _replay_adjoint(wit: dict) -> bool:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    P, Q = _generic_bp(dP), _generic_bp(dQ)
    if wit["side"] == "right":
        f = _parse_mapping(wit["f"], dP.n, dQ.n)
        return len(find_adjoint(f, P, Q, "right")) > 1
    f = _parse_mapping(wit["f"], dQ.n, dP.n)
    return len(find_adjoint(f, Q, P, "left")) > 1


# ---------------------------------------------------------------------------
# the claim table


class _Claim(NamedTuple):
    description: str
    scale: int                       # largest scale the runner sweeps
    run: Callable[..., Finding]      # (claim, cap), plus (budget, seed) when sampled
    replay: Callable[[dict], bool]   # witness -> the recorded phenomenon recurs
    sampled: bool = False


_CLAIMS = {
    "INTERSECT_CLOSURE": _Claim(
        "intersections of valid structures are valid",
        3, _claim_intersect, _replay_intersect, sampled=True),
    "UNIQUE_GMAX": _Claim(
        "the maximal greatest element is unique when defined",
        3, partial(_claim_unique, "greatest", True), partial(_replay_unique, "greatest", True)),
    "UNIQUE_GMIN": _Claim(
        "the minimal greatest element is unique when defined",
        3, partial(_claim_unique, "greatest", False), partial(_replay_unique, "greatest", False)),
    "UNIQUE_LMAX": _Claim(
        "the maximal least element is unique when defined",
        3, partial(_claim_unique, "least", True), partial(_replay_unique, "least", True)),
    "UNIQUE_LMIN": _Claim(
        "the minimal least element is unique when defined",
        3, partial(_claim_unique, "least", False), partial(_replay_unique, "least", False)),
    "POWERSET_VALID": _Claim(
        "powerset structures satisfy the axioms",
        4, _claim_powerset_valid, _replay_powerset_valid),
    "ISO_IFF_ISOTONE": _Claim(
        "a bijection is an isomorphism iff it and its inverse are isotone",
        3, _claim_iso_iff_isotone, _replay_iso_iff_isotone),
    "DUALITY_PRINCIPLE": _Claim(
        "the dual of a valid structure is valid",
        3, _claim_duality, _replay_duality),
    "POWERSET_SELF_DUAL": _Claim(
        "powerset structures are self-dual via complement",
        4, _claim_powerset_self_dual, _replay_powerset_self_dual),
    "DOUBLE_DUAL": _Claim(
        "the double dual is the original structure",
        3, _claim_double_dual, _replay_double_dual),
    "GALOIS_THM11_FWD": _Claim(
        "a Galois pair is isotone both ways with unit and counit",
        3, partial(_claim_thm11, "fwd"), partial(_replay_thm11, True)),
    "GALOIS_THM11_BWD": _Claim(
        "isotone both ways with unit and counit implies Galois",
        3, partial(_claim_thm11, "bwd"), partial(_replay_thm11, False)),
    "GALOIS_COMPOSE": _Claim(
        "Galois connections compose",
        2, _claim_compose, _replay_compose),
    "ADJOINT_UNIQUE": _Claim(
        "adjoints are unique when they exist",
        3, partial(_claim_thm11, "adjoint"), _replay_adjoint),
    "GALOIS_ASYMMETRY": _Claim(
        "some Galois pair does not survive swapping its roles",
        2, _claim_asymmetry, _replay_asymmetry),
}

CLAIM_IDS = tuple(_CLAIMS)
CLAIM_DESCRIPTIONS = {claim: row.description for claim, row in _CLAIMS.items()}


def _row(claim: str) -> _Claim:
    try:
        return _CLAIMS[claim]
    except KeyError:
        raise UsageError(f"unknown claim {claim!r}") from None


def verify_claim(claim: str, n_max: int, budget: Optional[int] = None, seed: int = 0) -> Finding:
    """Run one registered claim at the given scale.

    Deterministic given (claim, n_max, budget, seed). Exhaustive wherever
    the instance space fits; sampled with the recorded seed otherwise, with
    budget draws (20,000 when None; a budget below 1 is a UsageError).
    Each claim sweeps at most the scale of its table row; a Finding without
    a witness whose n_max lies above that scale says so in its last note.
    """
    row = _row(claim)
    if not 1 <= n_max <= MAX_ENUM_N:
        raise UsageError(f"n_max must be between 1 and {MAX_ENUM_N}")
    if budget is not None and budget < 1:
        raise UsageError("budget must be at least 1")
    cap = min(row.scale, n_max)
    finding = row.run(claim, cap, budget, seed) if row.sampled else row.run(claim, cap)
    if finding.witness is None and n_max > row.scale:
        note = f"scales above {row.scale} are not swept"
        finding = replace(finding, notes=finding.notes + (note,))
    return finding


def replay_finding(finding: Finding) -> bool:
    """Re-run the recorded violation through the public API.

    True when the stored witness still produces the recorded phenomenon.
    Findings without a witness replay vacuously.
    """
    row = _row(finding.claim)
    return True if finding.witness is None else row.replay(finding.witness)
