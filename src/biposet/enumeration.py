"""Exhaustive small-model enumeration and the symmetry of its structures.

The enumeration decides its candidates with the axiom signatures each
small Rel carries (core._signatures), tries only preorders as r2 and
builds a Diamond only for valid pairs (enumerate_biposets). The numpy
batch functions validity_kernel and duality_sample decide their batches
with one bit-plane kernel (_plane_kernel, no witnesses), independent of
the signatures. The claims (oracle.py) scan these structures and their
isomorphism classes, cached per n (_orbits, and _poset_classes for the leq
relations). Nothing here imports numpy at module level: only the two batch
functions need it, the optional `numpy` extra, and import it through
_numpy. The axiom checker (duality_sample's re-verification) and the text
writer (_ser_diamond, a witness's text) are imported by the functions that
use them, so enumerate_biposets loads core and this module only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from functools import cache, reduce
from operator import getitem, or_
from typing import Iterator, Optional, Sequence

from .core import (_R2_BROKEN, SMALL_N, BiPoset, Diamond, GroundSet, Rel, UsageError, _check_int,
                   _check_size, bits, lsb, preimage_rows)

MAX_ENUM_N = SMALL_N       # the largest n the signatures decide
MAX_BUDGET = 1_000_000     # duality_sample's default: about 60 MB of draws and planes

GOLDEN_COUNTS = {1: 1, 2: 11, 3: 653}


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


# ---------------------------------------------------------------------------
# numpy batches (the `numpy` extra)


def _numpy():
    """The numpy module, the one import of it in the package. numpy is the
    optional `numpy` extra; without it this is a UsageError naming the extra."""
    try:
        import numpy
    except ImportError:
        raise UsageError("validity_kernel and duality_sample need numpy, the numpy extra: "
                         'pip install "biposet[numpy]"') from None
    return numpy


def _packed(bits) -> int:
    """The int whose bit k is bits[k], bits being a 1-d bool array (np.packbits
    reads any other dtype several times slower)."""
    return int.from_bytes(_numpy().packbits(bits, bitorder="little").tobytes(), "little")


def validity_kernel(R1, R2):
    """Axiom validity, a (B,) bool array, of diamonds given as (B, n, n) bool arrays.

    Packs each cell (i, j) of each relation across the batch into one
    Python int, bit k for diamond k (np.packbits), and decides all three
    axioms with big-integer word operations over those planes
    (_plane_kernel); no witnesses.
    """
    np = _numpy()
    if R1.shape != R2.shape or R1.ndim != 3 or R1.shape[1] != R1.shape[2]:
        raise UsageError("expected matching (B, n, n) arrays")
    B, n, _ = R1.shape
    R1, R2 = np.asarray(R1, dtype=bool), np.asarray(R2, dtype=bool)
    planes = [[[_packed(R[:, i, j]) for j in range(n)] for i in range(n)] for R in (R1, R2)]
    ok = _plane_kernel(*planes, (1 << B) - 1)
    ok_bytes = np.frombuffer(ok.to_bytes((B + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(ok_bytes, count=B, bitorder="little").astype(bool)


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
    below 0 are UsageErrors, each type check before any range check.
    """
    from .axioms import _verdict_failure, check_axioms
    from .constructions import dual

    _check_size(n, "n", 2, MAX_ENUM_N)
    _check_int(budget, "budget")
    _check_int(seed, "seed")        # numpy reads a None seed as unseeded
    if budget < 1:
        raise UsageError("budget must be at least 1")
    if budget > MAX_BUDGET:
        raise UsageError(f"budget must be at most {MAX_BUDGET}")
    if seed < 0:
        raise UsageError("seed must be at least 0")
    np = _numpy()
    m = n * (n - 1)
    rng = np.random.default_rng(seed)
    c1s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)
    c2s = rng.integers(0, 1 << m, size=budget, dtype=np.int64)

    live = (1 << budget) - 1
    R1 = [[live] * n for _ in range(n)]
    R2 = [[live] * n for _ in range(n)]
    # bit k of a code is the k-th off-diagonal cell in row-major order
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(n) if i != j):
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


# ---------------------------------------------------------------------------
# enumeration


def _rel_from_offcode(n: int, code: int) -> Rel:
    return Rel(n, tuple(_offcode_rows(n, code)))


def enumerate_biposets(n: int) -> Iterator[Diamond]:
    """All valid diamonds on n elements in ascending (code1, code2) order.

    Reflexivity is imposed structurally, shrinking the candidate space to
    2^(2n(n-1)), and each candidate is decided by the axiom signatures
    each of its Rels carries: (r1, r2) is valid iff r1._sig1 & r2._sig2 == 0.
    r2 ranges over the preorders alone, the reflexive relations whose sig2
    lacks the bit every sig1 carries (1, 4, 29 and 355 of the 2^(n(n-1))
    at n = 1..4; _preorder_codes). For each signature bit the preorders
    whose sig2 has it form one int, bit p for preorder p, so the preorders
    that fail against r1 are the OR of the ints named by the bits of
    r1._sig1, and a Diamond is built for the others alone. The diamonds
    share their relations: one Rel per r1 code and one per preorder. n is
    checked at call time, not at the first next().
    """
    _check_size(n, "n", 1, MAX_ENUM_N)
    return _enumerate(n)


@cache
def _preorder_codes(n: int) -> tuple[int, ...]:
    """Ascending off-diagonal codes of the preorders on n elements: the
    reflexive relations whose sig2 lacks _R2_BROKEN."""
    return tuple(c for c in range(1 << (n * (n - 1)))
                 if not _rel_from_offcode(n, c)._sig2 & _R2_BROKEN)


def _enumerate(n: int) -> Iterator[Diamond]:
    r2s = [_rel_from_offcode(n, c) for c in _preorder_codes(n)]
    # bit p of failing[k] is set iff preorder p's sig2 has bit k
    failing = [0] * _R2_BROKEN.bit_length()
    for p, r2 in enumerate(r2s):
        for k in bits(r2._sig2):
            failing[k] |= 1 << p
    every = (1 << len(r2s)) - 1
    for c1 in range(1 << (n * (n - 1))):
        r1 = _rel_from_offcode(n, c1)
        meets = reduce(or_, map(failing.__getitem__, bits(r1._sig1)), 0)
        for p in bits(every & ~meets):
            yield Diamond(r1, r2s[p])


@cache
def _structures(n: int) -> tuple[Diamond, ...]:
    return tuple(enumerate_biposets(n))


@cache
def _ground(n: int) -> GroundSet:
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def _ser_diamond(d: Diamond) -> str:
    from .io_cli import serialize_structure

    return serialize_structure(BiPoset(_ground(d.n), d))


def _structure_keys(structs: tuple[Diamond, ...]) -> list[int]:
    """The structure keys r1.code << n^2 | r2.code, ascending in enumeration
    order (_orbits looks keys up by bisect): the key of an intersection is
    the AND of the keys of its operands."""
    shift = structs[0].n ** 2
    return [d.r1.code << shift | d.r2.code for d in structs]


@cache
def _orbits(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """The permutations of range(n) and the isomorphism classes of
    _structures(n) under relabelling r1 and r2 together, each class given
    by its least index (isomorph rejection by least representatives;
    McKay, "Isomorph-free exhaustive generation", 1998).

    Returns (perms, ((p, images), ...)): each representative p in
    enumeration order, images[k] being the index of perms[k](p), p with
    element i renamed perms[k][i], so perms[k] is an isomorphism from p
    onto images[k]. p's orbit is set(images). The walk relabels only the
    structures no earlier orbit holds and looks each image up by its key
    (bisect: _structure_keys ascend). A relabelled key is one table read
    per row of r1.rows + r2.rows: the key bits that row's mask moves to.
    """
    structs = _structures(n)
    keys = _structure_keys(structs)
    perms = tuple(itertools.permutations(range(n)))
    tables = []
    for f in perms:
        # row i moves to row f(i) and bit j to bit f(j); r1's rows sit above r2's
        moved = [sum(1 << f[j] for j in bits(mask)) for mask in range(1 << n)]
        tables.append([[m << (shift + f[i] * n) for m in moved]
                       for shift in (n * n, 0) for i in range(n)])
    seen = bytearray(len(structs))
    orbits = []
    for p, d in enumerate(structs):
        if seen[p]:
            continue
        rows = d.r1.rows + d.r2.rows
        images = []
        for table in tables:
            key = sum(map(getitem, table, rows))
            i = bisect_left(keys, key)
            if i == len(keys) or keys[i] != key:
                raise RuntimeError("a relabelled structure is missing from the enumeration")
            seen[i] = 1
            images.append(i)
        orbits.append((p, tuple(images)))
    return perms, tuple(orbits)


@cache
def _poset_classes(n: int) -> tuple[tuple[BiPoset, int], ...]:
    """The leq relations of _structures(n) up to relabelling, in order of
    first appearance: each class as the structure (L, L) on its least
    relabelling L, with the number m of structures whose leq is in the
    class. (L, L) carries the valid certificate: L is a partial order (the
    lemma in oracle_galois._claim_galois), so (L, L) is a valid structure."""
    perms = list(itertools.permutations(range(n)))
    classes: Counter[tuple[int, ...]] = Counter()
    for rows, m in Counter(d.leq_rows() for d in _structures(n)).items():
        # row x relabelled by s is {y : s(x) leq s(y)}
        classes[min(tuple(preimage_rows(rows, s)[v] for v in s) for s in perms)] += m
    return tuple((BiPoset(_ground(n), Diamond(Rel(n, L), Rel(n, L)), certificate="valid"), m)
                 for L, m in classes.items())
