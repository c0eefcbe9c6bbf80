"""Exhaustive small-model enumeration and the claim registry.

Two independent implementations of the axioms live here next to the fast
one in axioms.py: a direct-quantifier checker (naive_check_axioms, the
first hit over every tuple in lexicographic order, no bit tricks) used as
the agreement oracle, and one batched bit-plane kernel (_plane_kernel, no
witnesses) that decides every batch: the enumeration, validity_kernel and
duality_sample. The claim runner
verifies every registered claim at desk scale or produces a minimal,
replayable counterexample. Each claim is one row of _CLAIMS: its
description, runner, replayer and the largest scale the runner sweeps.
Most rows are scanned: one test per row serves its runner (_scan) and its
replayer alike, and each case carries the number of instances it decides.
INTERSECT_CLOSURE (a keyed lookup, sampled at n = 3) and the three rows
read off the shared Galois sweep keep a bespoke runner and replayer.

Validity is decided before any witness is built: the enumeration decides
whole batches of candidates with the kernel and builds a Diamond only for
valid pairs, and INTERSECT_CLOSURE looks each intersection up in the set
of enumerated structures, calling check_axioms only on a miss. The
enumeration tries only preorders as r2, the only r2 a valid structure can
have (enumerate_biposets).

Relabelling is one cached table per n (_relabelling). The isomorphism
classes are read off it, and ISO_IFF_ISOTONE's cases are the one candidate
Q per (P representative, f) on which either side of the claim can hold.
The numpy batch code keeps structures as (S, 2, n) row masks, reads them
through maps as core.preimage_rows does and packs them into int64 keys,
r1.code << n^2 | r2.code per structure (the enumeration order), to
compare or look up.

numpy is imported inside the numpy batch paths only (validity_kernel,
duality_sample, relabelling and the vectorised sweeps), so importing the
package, the per-structure paths and the enumeration at every n never
load it.

Counterexample minimization: smallest structure scale first, then
structure codes ascending, then mapping images in lexicographic order.
Sweeps that find a violation re-evaluate it through the public API before
reporting, so a kernel bug cannot fabricate a finding.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .axioms import AxiomVerdict, check_axioms
from .constructions import dual, dual_biposet, intersect_many, powerset_biposet
from .core import BiPoset, Check, Diamond, GroundSet, Rel, UsageError, bits, lsb, preimage_rows
from .extremal import sided_extreme, two_sided_values
from .galois import (
    GaloisPair,
    check_adjoint_properties,
    compose_galois,
    example_singleton,
    find_adjoint,
    is_galois,
)
from .io_cli import parse_mapping, parse_structure, serialize_mapping, serialize_structure
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
    """Reference checker: plain quantifiers over every tuple in lexicographic
    order, the first hit being the witness."""
    n = d.n
    r1 = d.r1.has
    r2 = d.r2.has

    def ch(a: int, b: int, c: int) -> bool:
        return r1(a, b) and r2(b, c)

    # which conclusion of transitivity breaks, keyed by (first holds, second holds)
    reason = {(False, False): "both", (False, True): "first", (True, False): "second"}
    return AxiomVerdict(
        reflexive=next((Check(False, (a,)) for a in range(n)
                        if not (r1(a, a) and r2(a, a))), Check(True)),
        antisymmetric=next((Check(False, (a, b, c))
                            for a, b, c in itertools.product(range(n), repeat=3)
                            if ch(a, b, c) and ch(b, a, c) and ch(a, c, b)
                            and not (a == b == c)), Check(True)),
        transitive=next((Check(False, (a, b, c, dd, e), reason[ch(a, dd, c), ch(a, b, e)])
                         for a, b, c, dd, e in itertools.product(range(n), repeat=5)
                         if ch(a, b, c) and ch(b, dd, c) and r2(c, e)
                         and not (ch(a, dd, c) and ch(a, b, e))), Check(True)),
    )


def naive_check_classical(r: Rel) -> AxiomVerdict:
    n = r.n
    return AxiomVerdict(
        reflexive=next((Check(False, (a,)) for a in range(n) if not r.has(a, a)), Check(True)),
        antisymmetric=next((Check(False, (a, b))
                            for a, b in itertools.product(range(n), repeat=2)
                            if r.has(a, b) and r.has(b, a) and a != b), Check(True)),
        transitive=next((Check(False, (a, b, c))
                         for a, b, c in itertools.product(range(n), repeat=3)
                         if r.has(a, b) and r.has(b, c) and not r.has(a, c)), Check(True)),
    )


# ---------------------------------------------------------------------------
# batched validity kernel (no witnesses)


def _offcode_rows(n: int, code: int) -> Iterator[int]:
    """Row masks of the reflexive relation whose off-diagonal cells, in
    row-major order, are the bits of code."""
    field = (1 << (n - 1)) - 1
    for i in range(n):
        # row i owns n-1 code bits; open a gap for the diagonal at bit i
        f = (code >> (i * (n - 1))) & field
        low = f & ((1 << i) - 1)
        yield low | (1 << i) | ((f ^ low) << 1)


def _offcells(n: int) -> list[tuple[int, int]]:
    """The off-diagonal cells in row-major order: bit k of a code is cell k."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _plane_kernel(R1: Sequence[Sequence[int]], R2: Sequence[Sequence[int]], live: int) -> int:
    """Axiom validity of a batch of candidates given as bit planes.

    Bit k of R[i][j] says whether candidate k has (i, j). live has one bit
    per candidate, and so has the result: the live candidates that are valid.

    Reflexivity is n plane tests. Antisymmetry is n^2 (a, b) tests: with
    a r1 b and b r1 a, any c with a r1 c, a r2 c, b r2 c and c r2 b other
    than a = b = c breaks it. Transitivity is factorised by b: with
    I_b[j] = AND_a (~R1[a][b] | R1[a][j]), that is j lies in the r1 row of
    every a with a r1 b, the pair (b, c) with b r2 c fails iff some j is a
    d outside I_b (b r1 j and j r2 c) or an e outside row b of r2 (c r2 j).
    The premise also needs some a with a r1 b, a d and an e; on a candidate
    where one is missing, b lacks its r1 loop or c its r2 loop, reflexivity
    fails anyway, so the combined verdict needs no such guard.
    """
    n = len(R1)
    ok = live
    for a in range(n):
        ok &= R1[a][a] & R2[a][a]

    bad = 0
    sym2 = [[R2[b][c] & R2[c][b] for c in range(n)] for b in range(n)]
    for a in range(n):
        base = [R1[a][c] & R2[a][c] for c in range(n)]
        for b in range(n):
            hit = 0
            for c in range(n):
                if not a == b == c:
                    hit |= base[c] & sym2[b][c]
            bad |= R1[a][b] & R1[b][a] & hit

    for b in range(n):
        inter = [-1] * n
        for a in range(n):
            outside = ~R1[a][b]
            for j in range(n):
                inter[j] &= outside | R1[a][j]
        out_i = [R1[b][j] & ~inter[j] for j in range(n)]
        out_2 = [~R2[b][j] for j in range(n)]
        for c in range(n):
            viol = 0
            for j in range(n):
                viol |= (out_i[j] & R2[j][c]) | (R2[c][j] & out_2[j])
            bad |= R2[b][c] & viol
    return ok & ~bad


def _packed(bits: np.ndarray) -> int:
    """The int whose bit k is bits[k], bits being a 1-d bool array (np.packbits
    reads any other dtype several times slower)."""
    import numpy as np

    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def validity_kernel(R1: np.ndarray, R2: np.ndarray) -> np.ndarray:
    """Axiom validity for a batch of diamonds given as (B, n, n) bool arrays.

    Packs each cell (i, j) of each relation across the batch into one
    Python int, bit k for diamond k (np.packbits), and decides all three
    axioms with big-integer word operations over those planes
    (_plane_kernel); no witnesses.
    """
    import numpy as np

    if R1.shape != R2.shape or R1.ndim != 3 or R1.shape[1] != R1.shape[2]:
        raise UsageError("expected matching (B, n, n) arrays")
    B, n, _ = R1.shape
    R1, R2 = np.asarray(R1, dtype=bool), np.asarray(R2, dtype=bool)
    planes = [[[_packed(R[:, i, j]) for j in range(n)] for i in range(n)] for R in (R1, R2)]
    ok = _plane_kernel(*planes, (1 << B) - 1)
    ok_bytes = np.frombuffer(ok.to_bytes((B + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(ok_bytes, count=B, bitorder="little").astype(bool)


# ---------------------------------------------------------------------------
# enumeration

# r1 codes per enumeration batch
_BATCH = 256


def _rel_from_offcode(n: int, code: int) -> Rel:
    return Rel(n, tuple(_offcode_rows(n, code)))


def enumerate_biposets(n: int) -> Iterator[Diamond]:
    """All valid diamonds on n elements in ascending (code1, code2) order.

    Reflexivity is imposed structurally, shrinking the candidate space to
    2^(2n(n-1)). r2 is further restricted to preorders: with a = d = b the
    transitivity axiom reads "b r1 b, b r2 c and c r2 e give b r2 e", so on
    a reflexive structure r2 is transitive (1, 4, 29 and 355 of the
    2^(n(n-1)) reflexive relations at n = 1..4; _preorder_codes). Batches of
    _BATCH r1 codes go through the bit-plane kernel (_plane_kernel) without
    numpy: candidate (c1, p), r1 code c1 against preorder p, sits at bit
    c1 * w + p, w being the preorder count rounded up to whole bytes, so an
    r1 cell's plane is one run of ones or zeros per c1 and an r2 cell's
    plane is one byte pattern repeated. The diamonds share their relations:
    one Rel per r1 code and one per preorder. n is checked at call time,
    not at the first next().
    """
    if not 1 <= n <= MAX_ENUM_N:
        raise UsageError(f"n must be between 1 and {MAX_ENUM_N}")
    return _enumerate(n)


@cache
def _preorder_codes(n: int) -> tuple[int, ...]:
    """Ascending off-diagonal codes of the transitive reflexive relations
    (preorders) on n elements: a r b puts row b inside row a."""
    def transitive(rows: tuple[int, ...]) -> bool:
        return all(rows[b] | row == row for row in rows for b in range(n) if row >> b & 1)

    return tuple(c for c in range(1 << (n * (n - 1))) if transitive(tuple(_offcode_rows(n, c))))


def _enumerate(n: int) -> Iterator[Diamond]:
    pre = _preorder_codes(n)
    r2s = [_rel_from_offcode(n, c) for c in pre]
    width = (len(pre) + 7) // 8                     # bytes per r1 code
    zeros, ones = bytes(width), b"\xff" * width
    live_run = ((1 << len(pre)) - 1).to_bytes(width, "little")
    cells = _offcells(n)
    # r2 cell k across the preorders: bit p is set iff preorder p has it
    runs2 = [sum((c >> k & 1) << p for p, c in enumerate(pre)).to_bytes(width, "little")
             for k in range(len(cells))]
    slot = (1 << 8 * width) - 1
    for start in range(0, 1 << len(cells), _BATCH):
        c1s = range(start, min(start + _BATCH, 1 << len(cells)))
        live = int.from_bytes(live_run * len(c1s), "little")
        R1 = [[live] * n for _ in range(n)]
        R2 = [[live] * n for _ in range(n)]
        for k, (i, j) in enumerate(cells):
            R1[i][j] = int.from_bytes(b"".join(ones if c1 >> k & 1 else zeros for c1 in c1s),
                                      "little")
            R2[i][j] = int.from_bytes(runs2[k] * len(c1s), "little")
        ok = _plane_kernel(R1, R2, live)
        for c1 in c1s:
            r1 = _rel_from_offcode(n, c1)
            for p in bits(ok & slot):
                yield Diamond(r1, r2s[p])
            ok >>= 8 * width


@cache
def _structures(n: int) -> tuple[Diamond, ...]:
    return tuple(enumerate_biposets(n))


@cache
def _ground(n: int) -> GroundSet:
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def _generic_bp(d: Diamond) -> BiPoset:
    return BiPoset(_ground(d.n), d, certificate="valid")


def _ser_diamond(d: Diamond) -> str:
    return serialize_structure(BiPoset(_ground(d.n), d))


def _ser_mapping(m: Mapping) -> str:
    return serialize_mapping(m, _ground(m.src_n), _ground(m.dst_n))


def _parse_diamond(text: str) -> Diamond:
    return parse_structure(text).d


def _parse_mapping(text: str, src_n: int, dst_n: int) -> Mapping:
    return parse_mapping(text, _ground(src_n), _ground(dst_n))


# ---------------------------------------------------------------------------
# numpy batch helpers: row masks (_np_rows), read back through maps
# (_preimage) and packed into int64 keys (_key)


def _np_rows(structs: tuple[Diamond, ...], n: int) -> np.ndarray:
    """(S, 2, n) uint8 row masks, r2 then r1, so that _key of the flattened
    rows is the structure key r1.code << n^2 | r2.code. A row has n bits, so
    n <= 8; the oracle enumerates n <= MAX_ENUM_N = 4."""
    import numpy as np

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
    import numpy as np

    key = np.zeros(masks.shape[:-1], dtype=np.int64)
    for t in range(masks.shape[-1]):
        key |= masks[..., t].astype(np.int64) << (width * t)
    return key


def _all_maps(src_n: int, dst_n: int) -> np.ndarray:
    """(dst_n^src_n, src_n) images in lexicographic order, uint8 like the row
    masks that they index and shift."""
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def _verdict_failure(verdict: AxiomVerdict) -> dict:
    for name, ax in verdict.items():
        if not ax.ok:
            out = {"axiom": name, "witness": ax.witness}
            if ax.reason:   # the witness key stays "detail": frozen digests hash it
                out["detail"] = ax.reason
            return out
    raise UsageError("verdict has no failure")


# ---------------------------------------------------------------------------
# claim runners and replayers
#
# A runner takes the claim id and the scale cap it sweeps (the claim's table
# row caps it, see verify_claim) and returns the Finding. A replayer takes a
# stored witness and re-runs it through the public API.
#
# Most rows are scanned (_scan, _scanned): cases yields each case in
# canonical order with its weight, the number of instances it decides (1,
# or an orbit's worth on class representatives, as in _iso_cases), and one
# test returns the witness of its violation or None. The runner scans with
# the test and the replayer asks it about the witness, so the two cannot
# drift apart. The four rows that stay bespoke say why at their runners.


def _scan(cases: Callable[[int], Iterator[tuple[tuple[int, ...], tuple, int]]],
          test: Callable[..., Optional[dict]], claim: str, cap: int) -> Finding:
    """The first case (scale, args, weight) of cases(cap) for which test(*args)
    returns a witness, REFUTED at that scale with the weights of every case
    up to it counted and a note that larger scales went unscanned; VERIFIED
    at (cap,) * arity when there is none. A weight, a Python int, counts the
    instances its case decides; cases yields one or more per cap, in order."""
    checked = 0
    for scale, args, weight in cases(cap):
        checked += weight
        witness = test(*args)
        if witness is not None:
            return Finding(claim=claim, scale=scale, verdict=REFUTED,
                           witness=witness, instances_checked=checked,
                           notes=("scan stopped at the first counterexample scale",))
    return Finding(claim=claim, scale=(cap,) * len(scale), verdict=VERIFIED,
                   instances_checked=checked)


def _structure_keys(structs: tuple[Diamond, ...]) -> list[int]:
    """The structure keys r1.code << n^2 | r2.code, as _key of _np_rows reads
    them: the key of an intersection is the AND of the keys of its operands."""
    shift = structs[0].n ** 2
    return [d.r1.code << shift | d.r2.code for d in structs]


def _claim_intersect(claim: str, cap: int, budget: Optional[int],
                     seed: Optional[int]) -> Finding:
    """One stream of index tuples per n: every ordered pair at n <= 2,
    budget seeded draws at n = 3 (the pairs, then the triples).

    Bespoke rather than scanned: one keyed lookup decides each instance
    without building it, and n = 3 is sampled with a seed and a budget.
    An intersection of reflexive structures is reflexive, and the
    enumeration holds every valid reflexive structure, so an intersection
    is valid iff its key is one of the enumerated keys: one AND per operand
    and one set lookup decide each instance. Only a miss goes through
    check_axioms (_closure_violation), for the least witness.
    """
    checked = 0
    notes = []
    used_seed = used_budget = None
    for n in range(1, cap + 1):
        structs = _structures(n)
        keys = _structure_keys(structs)
        valid = set(keys)
        S = len(structs)
        if n <= 2:
            cases = itertools.product(range(S), repeat=2)
            note = f"n={n}: exhaustive over {S}^2 ordered pairs"
        else:
            used_budget = 20_000 if budget is None else budget
            used_seed = 0 if seed is None else seed
            rng = random.Random(used_seed)
            half = used_budget // 2
            cases = ([rng.randrange(S) for _ in range(arity)]
                     for count, arity in ((half, 2), (used_budget - half, 3))
                     for _ in range(count))
            note = f"n=3: {half} sampled pairs and {used_budget - half} sampled triples"
        for idx in cases:
            inter = keys[idx[0]]
            for i in idx[1:]:
                inter &= keys[i]
            checked += 1
            if inter not in valid:
                return _closure_violation([structs[i] for i in idx], checked, claim)
        notes.append(note)
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


def _structure_cases(cap: int) -> Iterator[tuple[tuple[int, ...], tuple, int]]:
    for n in range(1, cap + 1):
        for d in _structures(n):
            yield (n,), (d,), 1


def _structure_args(wit: dict) -> tuple[Diamond]:
    return (_parse_diamond(wit["structure"]),)


def _unique_violation(direction: str, want_sup: bool, d: Diamond) -> Optional[dict]:
    bp = _generic_bp(d)
    firsts = sided_extreme(bp, 1, direction)
    seconds = sided_extreme(bp, 2, direction)
    values = two_sided_values(d, firsts, seconds, want_sup)
    if len(values) <= 1:
        return None
    return {"structure": _ser_diamond(d), "component1": tuple(firsts),
            "component2": tuple(seconds), "values": tuple(sorted(values))}


def _double_dual_violation(d: Diamond) -> Optional[dict]:
    dd = dual(dual(d))
    if dd == d:
        return None
    return {"structure": _ser_diamond(d), "double_dual": _ser_diamond(dd)}


def _dual_violation(d: Diamond) -> Optional[dict]:
    """The dual of d fails the axioms though d itself is valid."""
    dd = dual(d)
    verdict = check_axioms(dd)
    if verdict.ok or not check_axioms(d).ok:
        return None
    return {"structure": _ser_diamond(d), "dual": _ser_diamond(dd),
            "failed": _verdict_failure(verdict)}


def _powerset_cases(cap: int) -> Iterator[tuple[tuple[int], tuple[int], int]]:
    for k in range(cap + 1):
        yield (k,), (k,), 1


def _powerset_args(wit: dict) -> tuple[int]:
    return (wit["k"],)


def _powerset_failure(k: int) -> Optional[dict]:
    try:
        powerset_biposet(k)
    except UsageError as exc:
        return {"k": k, "failed": str(exc)}
    return None


def _self_dual_violation(k: int) -> Optional[dict]:
    # the witness's mapping is the complement, which k determines
    bp = powerset_biposet(k)
    comp = Mapping(bp.n, bp.n, tuple((bp.n - 1) ^ m for m in range(bp.n)))
    ok = is_isomorphism(comp, bp, dual_biposet(bp))
    if ok:
        return None
    return {"k": k, "mapping": _ser_mapping(comp), "violation": ok.witness, "reason": ok.reason}


def _iso_cases(cap: int) -> Iterator[tuple[tuple[int], tuple, int]]:
    """ISO_IFF_ISOTONE's cases, decided by construction: one Q per (P, f).

    On reflexive structures chain(a, b, b) <=> a r1 b and chain(a, a, c)
    <=> a r2 c, so a bijection f preserves chains exactly when it preserves
    the r1 and r2 edges. Both sides of the claim, "f is an isomorphism"
    and "f and f^-1 are isotone", therefore hold exactly when Q = f(P), P
    relabelled by f, and both are false on every other Q. So the cases are
    only the Q = f(P) (_relabelling). Relabelling P by a permutation s
    carries f along to f o s^-1, whose image of s(P) is again f(P), so
    class representatives (_iso_classes) are enough: the case of
    representative p and permutation f decides the S * w triples (P', Q, f')
    of p's orbit of size w, and the weights add up to S^2 * n! per level.

    Witness order: the first violating P is a representative, and within
    it the least (Q index, perm index) wins.
    """
    for n in range(1, cap + 1):
        structs = _structures(n)
        S = len(structs)
        perms, image = _relabelling(n)
        _, reps, weights = _iso_classes(n)
        for p, w in zip(reps.tolist(), weights.tolist()):
            qs = image[:, p].tolist()
            for k in sorted(range(len(perms)), key=qs.__getitem__):   # by Q index, then perm
                yield (n,), (Mapping(n, n, perms[k]), structs[p], structs[qs[k]]), S * w


def _iso_args(wit: dict) -> tuple[Mapping, Diamond, Diamond]:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    return _parse_mapping(wit["f"], dP.n, dQ.n), dP, dQ


def _iso_sides(f: Mapping, dP: Diamond, dQ: Diamond) -> tuple[bool, bool, bool]:
    """(f is an isomorphism, f is isotone, f^-1 is isotone) through the API."""
    return (bool(is_isomorphism(f, _generic_bp(dP), _generic_bp(dQ))),
            bool(is_isotone(f, dP, dQ)), bool(is_isotone(f.inverse(), dQ, dP)))


def _iso_violation(f: Mapping, dP: Diamond, dQ: Diamond) -> Optional[dict]:
    """Exactly one side of the claim holds. Both sides false where Q is P
    relabelled by f (read through core.preimage_rows, not the relabelling
    table) contradicts the table the cases come from and raises."""
    iso, fwd, bwd = _iso_sides(f, dP, dQ)
    if iso != (fwd and bwd):
        return {"P": _ser_diamond(dP), "Q": _ser_diamond(dQ), "f": _ser_mapping(f),
                "is_isomorphism": iso, "isotone": fwd, "inverse_isotone": bwd}
    # Q = f(P) iff row f(a) of each Q relation, read back through f, is P's row a
    if not iso and all(tuple(preimage_rows(q.rows, f.img)[v] for v in f.img) == p.rows
                       for p, q in ((dP.r1, dQ.r1), (dP.r2, dQ.r2))):
        raise RuntimeError("a relabelled structure is not an isomorphic image")
    return None


def _galois_pairs_between(P: BiPoset, Q: BiPoset) -> list[GaloisPair]:
    out = []
    for fimg in itertools.product(range(Q.n), repeat=P.n):
        f = Mapping(P.n, Q.n, fimg)
        out.extend(GaloisPair(f, g) for g in find_adjoint(f, P, Q))
    return out


def _compose_cases(cap: int) -> Iterator[tuple[tuple[int, int, int], tuple, int]]:
    sizes = range(1, cap + 1)
    bps = {n: [_generic_bp(d) for d in _structures(n)] for n in sizes}
    # every (Q, R) list is needed again for each P, so each is found once
    galois_pairs = {(nA, i, nB, j): _galois_pairs_between(A, B)
                    for nA in sizes for i, A in enumerate(bps[nA])
                    for nB in sizes for j, B in enumerate(bps[nB])}
    for nP, nQ, nR in itertools.product(sizes, repeat=3):
        for (p, P), (q, Q) in itertools.product(enumerate(bps[nP]), enumerate(bps[nQ])):
            firsts = galois_pairs[nP, p, nQ, q]
            for r, R in enumerate(bps[nR]):
                for first, second in itertools.product(firsts, galois_pairs[nQ, q, nR, r]):
                    yield (nP, nQ, nR), (P, Q, R, first, second), 1


def _compose_args(wit: dict) -> tuple:
    dP, dQ, dR = (_parse_diamond(wit[key]) for key in "PQR")
    first = GaloisPair(_parse_mapping(wit["first_f"], dP.n, dQ.n),
                       _parse_mapping(wit["first_g"], dQ.n, dP.n))
    second = GaloisPair(_parse_mapping(wit["second_f"], dQ.n, dR.n),
                        _parse_mapping(wit["second_g"], dR.n, dQ.n))
    return _generic_bp(dP), _generic_bp(dQ), _generic_bp(dR), first, second


def _compose_violation(P: BiPoset, Q: BiPoset, R: BiPoset, first: GaloisPair,
                       second: GaloisPair) -> Optional[dict]:
    ok = is_galois(compose_galois(first, second), P, R)
    if ok:
        return None
    return {"P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d), "R": _ser_diamond(R.d),
            "first_f": _ser_mapping(first.f), "first_g": _ser_mapping(first.g),
            "second_f": _ser_mapping(second.f), "second_g": _ser_mapping(second.g),
            "violation": ok.witness}


def _asymmetry_cases(cap: int) -> Iterator[tuple[tuple[int, int], tuple, int]]:
    # the canned exhibit first when it fits the cap, then the whole small space
    pair, P, Q = example_singleton(good=True)
    if max(P.n, Q.n) <= cap:
        yield (P.n, Q.n), (pair, P, Q), 1
    for nP, nQ in itertools.product(range(1, cap + 1), repeat=2):
        for dP, dQ in itertools.product(_structures(nP), _structures(nQ)):
            P, Q = _generic_bp(dP), _generic_bp(dQ)
            for pair in _galois_pairs_between(P, Q):
                yield (nP, nQ), (pair, P, Q), 1


def _asymmetric(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> Optional[dict]:
    """pair is Galois from P to Q and stops being so with its roles swapped."""
    swapped = is_galois(GaloisPair(pair.g, pair.f), Q, P)
    if swapped or not is_galois(pair, P, Q):
        return None
    return {"P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d), "f": _ser_mapping(pair.f),
            "g": _ser_mapping(pair.g), "swapped_violation": swapped.witness}


def _claim_asymmetry(cases, test, claim: str, cap: int) -> Finding:
    """An existence claim: the first hit of the scan is the exhibit, so the
    verdict flips."""
    found = _scan(cases, test, claim, cap)
    if found.witness is None:
        return replace(found, verdict=REFUTED,
                       notes=("every Galois pair at this scale stays Galois when swapped",))
    return replace(found, verdict=VERIFIED,
                   notes=("existence claim: the witness is the exhibiting pair",))


def _parse_galois_pair(wit: dict) -> tuple[GaloisPair, BiPoset, BiPoset]:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    pair = GaloisPair(_parse_mapping(wit["f"], dP.n, dQ.n), _parse_mapping(wit["g"], dQ.n, dP.n))
    return pair, _generic_bp(dP), _generic_bp(dQ)


def _claim_thm11(key: str, claim: str, cap: int) -> Finding:
    """One of the three claims read off the shared sweep: key is "fwd",
    "bwd" or "adjoint", the sweep's witness slot for the claim. Bespoke
    rather than scanned: the three rows read one vectorised sweep."""
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
    run: Callable[..., Finding]      # (claim, cap), + (budget, seed) if sampled; scanned: _scan
    replay: Callable[[dict], bool]   # witness -> the recorded phenomenon recurs
    sampled: bool = False


def _scanned(description: str, scale: int, cases, test, args_from, run=_scan) -> _Claim:
    """A scanned row: run(cases, test, claim, cap) is its runner, and its
    replayer asks the same test about the arguments args_from(witness)."""
    return _Claim(description, scale, partial(run, cases, test),
                  lambda wit: test(*args_from(wit)) is not None)


_CLAIMS = {
    "INTERSECT_CLOSURE": _Claim(
        "intersections of valid structures are valid",
        3, _claim_intersect, _replay_intersect, sampled=True),
    "UNIQUE_GMAX": _scanned(
        "the maximal greatest element is unique when defined",
        3, _structure_cases, partial(_unique_violation, "greatest", True), _structure_args),
    "UNIQUE_GMIN": _scanned(
        "the minimal greatest element is unique when defined",
        3, _structure_cases, partial(_unique_violation, "greatest", False), _structure_args),
    "UNIQUE_LMAX": _scanned(
        "the maximal least element is unique when defined",
        3, _structure_cases, partial(_unique_violation, "least", True), _structure_args),
    "UNIQUE_LMIN": _scanned(
        "the minimal least element is unique when defined",
        3, _structure_cases, partial(_unique_violation, "least", False), _structure_args),
    "POWERSET_VALID": _scanned(
        "powerset structures satisfy the axioms",
        4, _powerset_cases, _powerset_failure, _powerset_args),
    "ISO_IFF_ISOTONE": _scanned(
        "a bijection is an isomorphism iff it and its inverse are isotone",
        3, _iso_cases, _iso_violation, _iso_args),
    "DUALITY_PRINCIPLE": _scanned(
        "the dual of a valid structure is valid",
        3, _structure_cases, _dual_violation, _structure_args),
    "POWERSET_SELF_DUAL": _scanned(
        "powerset structures are self-dual via complement",
        4, _powerset_cases, _self_dual_violation, _powerset_args),
    "DOUBLE_DUAL": _scanned(
        "the double dual is the original structure",
        3, _structure_cases, _double_dual_violation, _structure_args),
    "GALOIS_THM11_FWD": _Claim(
        "a Galois pair is isotone both ways with unit and counit",
        3, partial(_claim_thm11, "fwd"), partial(_replay_thm11, True)),
    "GALOIS_THM11_BWD": _Claim(
        "isotone both ways with unit and counit implies Galois",
        3, partial(_claim_thm11, "bwd"), partial(_replay_thm11, False)),
    "GALOIS_COMPOSE": _scanned(
        "Galois connections compose",
        2, _compose_cases, _compose_violation, _compose_args),
    "ADJOINT_UNIQUE": _Claim(
        "adjoints are unique when they exist",
        3, partial(_claim_thm11, "adjoint"), _replay_adjoint),
    "GALOIS_ASYMMETRY": _scanned(
        "some Galois pair does not survive swapping its roles",
        2, _asymmetry_cases, _asymmetric, _parse_galois_pair, run=_claim_asymmetry),
}


CLAIM_IDS = tuple(_CLAIMS)
CLAIM_DESCRIPTIONS = {claim: row.description for claim, row in _CLAIMS.items()}


def _row(claim: str) -> _Claim:
    try:
        return _CLAIMS[claim]
    except KeyError:
        raise UsageError(f"unknown claim {claim!r}") from None


def verify_claim(claim: str, n_max: int, budget: Optional[int] = None,
                 seed: Optional[int] = None) -> Finding:
    """Run one registered claim at the given scale.

    Deterministic given (claim, n_max, budget, seed). Exhaustive wherever
    the instance space fits; sampled with the recorded seed otherwise (0
    when None), with budget draws (20,000 when None; a budget below 1 is a
    UsageError). A budget or seed that the Finding does not record went
    unused, as on an exhaustive claim, and a note says so. Each claim
    sweeps at most the scale of its table row; a Finding without a witness
    whose n_max lies above that scale says so in its last note.
    """
    row = _row(claim)
    if not 1 <= n_max <= MAX_ENUM_N:
        raise UsageError(f"n_max must be between 1 and {MAX_ENUM_N}")
    if budget is not None and budget < 1:
        raise UsageError("budget must be at least 1")
    cap = min(row.scale, n_max)
    finding = row.run(claim, cap, budget, seed) if row.sampled else row.run(claim, cap)
    for name, given, used in (("budget", budget, finding.budget), ("seed", seed, finding.seed)):
        if given is not None and used is None:
            note = f"{name} {given} unused: {claim} is exhaustive"
            finding = replace(finding, notes=finding.notes + (note,))
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
