"""Exhaustive small-model enumeration and the claim registry.

Two independent implementations of the axioms live here next to the fast
one in axioms.py: a direct-quantifier checker (naive_check_axioms, the
first hit over every tuple in lexicographic order, no bit tricks) used as
the agreement oracle, and one batched bit-plane kernel (_plane_kernel, no
witnesses) that decides every batch: the enumeration and batch.py's
validity_kernel and duality_sample. The claim runner
verifies every registered claim at desk scale or produces a minimal,
replayable counterexample. Each claim is one row of _CLAIMS: its
description, runner, replayer and the largest scale the runner sweeps.
Most rows are scanned: one test per row serves its runner (_scan) and its
replayer alike, and each case carries the number of instances it decides.
A row whose test relabelling cannot change scans class representatives,
each weighted by the instances it stands for: UNIQUE_GMAX, UNIQUE_GMIN,
UNIQUE_LMAX, UNIQUE_LMIN and DOUBLE_DUAL one structure per isomorphism
class (_orbit_cases), ISO_IFF_ISOTONE one (P, f) per class (_iso_cases)
and GALOIS_COMPOSE one triple of leq classes (_compose_cases).
INTERSECT_CLOSURE (a keyed lookup, sampled at n = 3) and the three rows
that read only leq = r1 & r2 (_claim_galois: theorems about posets, one
class-reduced count shared per cap and a short witness scan) keep a
bespoke runner.

Validity is decided before any witness is built: the enumeration decides
whole batches of candidates with the kernel and builds a Diamond only for
valid pairs, and INTERSECT_CLOSURE looks each intersection up in the set
of enumerated structures, calling check_axioms only on a miss. The
enumeration tries only preorders as r2, the only r2 a valid structure can
have (enumerate_biposets).

A function that needs the extremal, morphisms or Galois module imports it
in its body, so a claim loads only the modules it reaches. No claim loads
the numpy batch code (batch.py): importing the package, the enumeration
at every n and every claim never load numpy.

Counterexample minimization: smallest structure scale first, then
structure codes ascending, then mapping images in lexicographic order.
A violation found by a faster path than the public API is re-evaluated
through that API before it is reported, so a kernel bug cannot fabricate a
finding.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from operator import getitem
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .axioms import AxiomVerdict, check_axioms
from .constructions import dual, dual_biposet, intersect_many, powerset_biposet
from .core import BiPoset, Check, Diamond, GroundSet, Rel, UsageError, bits, preimage_rows
from .io_cli import parse_mapping, parse_structure, serialize_mapping, serialize_structure

if TYPE_CHECKING:
    from .galois import GaloisPair
    from .morphisms import Mapping

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
    _check_size(n, "n", 1)
    return _enumerate(n)


def _check_int(value: int, name: str) -> None:
    """value is an int, not a bool (a bool is an int to Python)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an int, not {type(value).__name__}")


def _check_size(n: int, name: str, low: int) -> None:
    """n is an int, not a bool, from low to MAX_ENUM_N."""
    _check_int(n, name)
    if not low <= n <= MAX_ENUM_N:
        raise UsageError(f"{name} must be between {low} and {MAX_ENUM_N}")


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
# or a class's worth on class representatives, as in _orbit_cases), and one
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
    """The structure keys r1.code << n^2 | r2.code, ascending in enumeration
    order (_orbits looks keys up by bisect): the key of an intersection is
    the AND of the keys of its operands."""
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


def _orbit_cases(cap: int) -> Iterator[tuple[tuple[int, ...], tuple, int]]:
    """One case per isomorphism class (_orbits), its representative weighted
    by its orbit size, for a test that relabelling r1 and r2 together does
    not change. The least failing structure is then a representative, so
    the witness is the one _structure_cases finds; a refuted count, though,
    takes in whole orbits up to it, which is why DUALITY_PRINCIPLE, whose
    Finding is refuted, keeps _structure_cases."""
    for n in range(1, cap + 1):
        structs = _structures(n)
        for p, images in _orbits(n)[1]:
            yield (n,), (structs[p],), len(set(images))


def _structure_args(wit: dict) -> tuple[Diamond]:
    return (_parse_diamond(wit["structure"]),)


def _unique_violation(direction: str, want_sup: bool, d: Diamond) -> Optional[dict]:
    """More than one two-sided extreme value. Invariant under relabelling:
    a relabelling carries the sided extremes and the two-sided values along
    with the elements, so their number stays."""
    from .extremal import sided_extreme, two_sided_values
    bp = _generic_bp(d)
    firsts = sided_extreme(bp, 1, direction)
    seconds = sided_extreme(bp, 2, direction)
    values = two_sided_values(d, firsts, seconds, want_sup)
    if len(values) <= 1:
        return None
    return {"structure": _ser_diamond(d), "component1": tuple(firsts),
            "component2": tuple(seconds), "values": tuple(sorted(values))}


def _double_dual_violation(d: Diamond) -> Optional[dict]:
    """The double dual differs from d. Invariant under relabelling: dual
    transposes both relations, and transposing commutes with renaming."""
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
    from .morphisms import Mapping, is_isomorphism
    # the witness's mapping is the complement, which k determines
    bp = powerset_biposet(k)
    comp = Mapping(bp.n, bp.n, tuple((bp.n - 1) ^ m for m in range(bp.n)))
    ok = is_isomorphism(comp, bp, dual_biposet(bp))
    if ok:
        return None
    return {"k": k, "mapping": _ser_mapping(comp), "violation": ok.witness, "reason": ok.reason}


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


def _iso_cases(cap: int) -> Iterator[tuple[tuple[int], tuple, int]]:
    """ISO_IFF_ISOTONE's cases, decided by construction: one Q per (P, f).

    On reflexive structures chain(a, b, b) <=> a r1 b and chain(a, a, c)
    <=> a r2 c, so a bijection f preserves chains exactly when it preserves
    the r1 and r2 edges. Both sides of the claim, "f is an isomorphism"
    and "f and f^-1 are isotone", therefore hold exactly when Q = f(P), P
    relabelled by f, and both are false on every other Q. So the cases are
    only the Q = f(P). Relabelling P by a permutation s carries f along to
    f o s^-1, whose image of s(P) is again f(P), so class representatives
    are enough (_orbits): the case of representative p and permutation f
    decides the S * w triples (P', Q, f') of p's orbit of size w, and the
    weights add up to S^2 * n! per level.

    Witness order: the first violating P is a representative, and within
    it the least (Q index, perm index) wins.
    """
    from .morphisms import Mapping
    for n in range(1, cap + 1):
        structs = _structures(n)
        S = len(structs)
        perms, orbits = _orbits(n)
        for p, images in orbits:
            weight = S * len(set(images))
            for k in sorted(range(len(perms)), key=images.__getitem__):   # by Q index, then perm
                yield (n,), (Mapping(n, n, perms[k]), structs[p], structs[images[k]]), weight


def _iso_args(wit: dict) -> tuple[Mapping, Diamond, Diamond]:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    return _parse_mapping(wit["f"], dP.n, dQ.n), dP, dQ


def _iso_sides(f: Mapping, dP: Diamond, dQ: Diamond) -> tuple[bool, bool, bool]:
    """(f is an isomorphism, f is isotone, f^-1 is isotone) through the API."""
    from .morphisms import is_isomorphism, is_isotone
    return (bool(is_isomorphism(f, _generic_bp(dP), _generic_bp(dQ))),
            bool(is_isotone(f, dP, dQ)), bool(is_isotone(f.inverse(), dQ, dP)))


def _iso_violation(f: Mapping, dP: Diamond, dQ: Diamond) -> Optional[dict]:
    """Exactly one side of the claim holds. Both sides false where Q is P
    relabelled by f (read through core.preimage_rows, not the orbit walk)
    contradicts the walk the cases come from (_orbits) and raises."""
    if not f.is_bijection():    # the claim is about bijections only
        return None
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
    from .galois import GaloisPair, find_adjoint
    from .morphisms import Mapping
    out = []
    for fimg in itertools.product(range(Q.n), repeat=P.n):
        f = Mapping(P.n, Q.n, fimg)
        out.extend(GaloisPair(f, g) for g in find_adjoint(f, P, Q))
    return out


def _compose_cases(cap: int) -> Iterator[tuple[tuple[int, int, int], tuple, int]]:
    """One case per composable pair of Galois pairs between three leq
    classes (_poset_classes), weighted m_P * m_Q * m_R, the numbers of
    structures in the classes. Each class stands as the structure (L, L),
    valid because L is a partial order (_claim_galois).

    Invariant under relabelling: is_galois and find_adjoint read only
    leq = r1 & r2, and relabelling P, Q or R carries the pairs between them
    along, and their composites with them. So the G(P, Q) * G(Q, R)
    compositions of every structure triple are those of its class triple,
    and the weights add up to the structure-level total. Scale triples in
    product order, then classes in _poset_classes order."""
    sizes = range(1, cap + 1)
    classes = {n: [(_generic_bp(Diamond(Rel(n, L), Rel(n, L))), m)
                   for L, m in _poset_classes(n).items()] for n in sizes}
    # every (Q, R) list is needed again for each P, so each is found once
    galois_pairs = {(nA, i, nB, j): _galois_pairs_between(A, B)
                    for nA in sizes for i, (A, _) in enumerate(classes[nA])
                    for nB in sizes for j, (B, _) in enumerate(classes[nB])}
    for nP, nQ, nR in itertools.product(sizes, repeat=3):
        for (p, (P, m_p)), (q, (Q, m_q)) in itertools.product(enumerate(classes[nP]),
                                                              enumerate(classes[nQ])):
            firsts = galois_pairs[nP, p, nQ, q]
            for r, (R, m_r) in enumerate(classes[nR]):
                for first, second in itertools.product(firsts, galois_pairs[nQ, q, nR, r]):
                    yield (nP, nQ, nR), (P, Q, R, first, second), m_p * m_q * m_r


def _compose_args(wit: dict) -> tuple:
    from .galois import GaloisPair
    dP, dQ, dR = (_parse_diamond(wit[key]) for key in "PQR")
    first = GaloisPair(_parse_mapping(wit["first_f"], dP.n, dQ.n),
                       _parse_mapping(wit["first_g"], dQ.n, dP.n))
    second = GaloisPair(_parse_mapping(wit["second_f"], dQ.n, dR.n),
                        _parse_mapping(wit["second_g"], dR.n, dQ.n))
    return _generic_bp(dP), _generic_bp(dQ), _generic_bp(dR), first, second


def _compose_violation(P: BiPoset, Q: BiPoset, R: BiPoset, first: GaloisPair,
                       second: GaloisPair) -> Optional[dict]:
    from .galois import compose_galois, is_galois
    ok = is_galois(compose_galois(first, second), P, R)
    if ok:
        return None
    return {"P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d), "R": _ser_diamond(R.d),
            "first_f": _ser_mapping(first.f), "first_g": _ser_mapping(first.g),
            "second_f": _ser_mapping(second.f), "second_g": _ser_mapping(second.g),
            "violation": ok.witness}


def _asymmetry_cases(cap: int) -> Iterator[tuple[tuple[int, int], tuple, int]]:
    from .galois import example_singleton
    # the canned exhibit first when it fits the cap, then the whole small space
    pair, P, Q = example_singleton(good=True)
    if max(P.n, Q.n) <= cap:
        yield (P.n, Q.n), (pair, P, Q), 1
    yield from _galois_cases(cap)


def _asymmetric(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> Optional[dict]:
    """pair is Galois from P to Q and stops being so with its roles swapped."""
    from .galois import GaloisPair, is_galois
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
    from .galois import GaloisPair
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    pair = GaloisPair(_parse_mapping(wit["f"], dP.n, dQ.n), _parse_mapping(wit["g"], dQ.n, dP.n))
    return pair, _generic_bp(dP), _generic_bp(dQ)


# the three rows on leq = r1 & r2: GALOIS_THM11_FWD, GALOIS_THM11_BWD, ADJOINT_UNIQUE


def _structure_pairs(cap: int) -> Iterator[tuple[BiPoset, BiPoset]]:
    """Every ordered structure pair up to cap: scale pairs by (max, nP, nQ),
    then P and Q in enumeration order."""
    sizes = range(1, cap + 1)
    for nP, nQ in sorted(itertools.product(sizes, repeat=2), key=lambda t: (max(t), t)):
        for dP, dQ in itertools.product(_structures(nP), _structures(nQ)):
            yield _generic_bp(dP), _generic_bp(dQ)


def _galois_cases(cap: int) -> Iterator[tuple[tuple[int, int], tuple, int]]:
    """Every Galois pair up to cap: structure pairs in _structure_pairs order,
    then f in image-lexicographic order with its right adjoints."""
    for P, Q in _structure_pairs(cap):
        for pair in _galois_pairs_between(P, Q):
            yield (P.n, Q.n), (pair, P, Q), 1


def _thm11_violation(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> Optional[dict]:
    """pair is Galois and not isotone both ways with unit and counit."""
    from .galois import check_adjoint_properties, is_galois
    report = check_adjoint_properties(pair, P, Q)
    if report.all_hold or not is_galois(pair, P, Q):
        return None
    return {"scale": (P.n, Q.n), "P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d),
            "f": _ser_mapping(pair.f), "g": _ser_mapping(pair.g),
            "flags": {**asdict(report), "is_galois": True}}


@cache
def _poset_classes(n: int) -> MappingProxyType[tuple[int, ...], int]:
    """The leq relations of _structures(n) up to relabelling: the least
    relabelling of each, with the number of structures whose leq it is.
    Cached, so the mapping is read-only."""
    perms = list(itertools.permutations(range(n)))
    classes: Counter[tuple[int, ...]] = Counter()
    for rows, m in Counter(d.leq_rows() for d in _structures(n)).items():
        # row x relabelled by s is {y : s(x) leq s(y)}
        classes[min(tuple(preimage_rows(rows, s)[v] for v in s) for s in perms)] += m
    return MappingProxyType(classes)


def _leq_galois(leq_p: tuple[int, ...], leq_q: tuple[int, ...]) -> tuple[int, int]:
    """(Galois pairs, most adjoints of one map) between the leq relations
    leq_p and leq_q. A map has as many adjoints as the product of
    find_adjoint's per-b candidate counts: the Galois pairs are that product
    summed over the right adjoints of each f: P -> Q, and the most is taken
    over those and the left adjoints of each g: Q -> P."""
    from .galois import _adjoint_tables
    counts = []
    for src, dst, side in ((leq_p, leq_q, "right"), (leq_q, leq_p, "left")):
        keys, by_mask = _adjoint_tables(src, dst, side)
        counts.append([math.prod(len(by_mask.get(k, ())) for k in preimage_rows(keys, img))
                       for img in itertools.product(range(len(dst)), repeat=len(src))])
    right, left = counts
    return sum(right), max(right + left)


@cache
def _galois_count(cap: int) -> tuple[int, int]:
    """(Galois pairs, most adjoints of one map) over every structure pair up
    to cap, read from the pairs of leq classes: the pairs are
    sum m(L_P) * m(L_Q) * G(L_P, L_Q) (_claim_galois). Cached, so the rows
    that read it share one count per cap."""
    posets = [item for n in range(1, cap + 1) for item in _poset_classes(n).items()]
    pairs = most = 0
    for (leq_p, m_p), (leq_q, m_q) in itertools.product(posets, repeat=2):
        galois, rival = _leq_galois(leq_p, leq_q)
        pairs += m_p * m_q * galois
        most = max(most, rival)
    return pairs, most


def _claim_galois(claim: str, cap: int) -> Finding:
    """The three rows that read only leq = r1 & r2, as is_galois,
    find_adjoint, unit and counit do. Bespoke rather than scanned: two rows
    are theorems that one count confirms, and FWD's Finding reports the
    closed-form instance total, not the weights its scan reached.

    Lemma: on a valid structure leq is a partial order. Reflexivity gives
    a r1 a and a r2 a. With a leq b and b leq a, antisymmetry applied to
    (a, b, b) gives a = b. With a leq b and b leq c, transitivity applied to
    (a, b, c, c, c) gives a r1 c, and applied to (a, a, b, b, c) it gives
    a r2 c. The tests check the lemma on every structure at n <= 4.

    GALOIS_THM11_BWD holds at every scale (Erne, Koslowski, Melton and
    Strecker, "A primer on Galois connections", 1993). A chain-isotone f is
    leq-monotone: chain(a, b, b) is a r1 b and chain(a, a, b) is a r2 b on
    a reflexive structure, so f a r1 f b and f a r2 f b. Monotone maps with
    unit and counit between preorders are Galois: f a leq b gives
    a leq g f a leq g b, and a leq g b gives f a leq f g b leq b.

    ADJOINT_UNIQUE holds at every scale: the right adjoints g, g' of f have
    {a : a leq g b} = {a : f a leq b} = {a : a leq g' b}, equal leq_P
    columns, and distinct elements of an antisymmetric leq have distinct
    rows and columns; likewise for left adjoints and rows.

    GALOIS_THM11_FWD is scanned for its witness (_galois_cases,
    _thm11_violation) and stops at the first, at (2, 2).

    Every other verdict comes from one count per cap, shared by the rows
    (_galois_count). Relabelling P or Q carries the maps along, so the
    Galois pairs are sum m(L_P) * m(L_Q) * G(L_P, L_Q) over the classes of
    leq relations (_poset_classes: 1 / 2 / 5 at n = 1 / 2 / 3), m counting
    the structures in a class and G the Galois pairs between two posets
    (_leq_galois). The same pass reads the most adjoints of one map; where
    a class pair reports a rival adjoint, which only an invalid table can,
    _adjoint_rival finds the witness. The instance totals are the closed forms
    sum S_p * S_q * q^p * p^q over the mapping pairs and
    sum S_p * S_q * (q^p + p^q) over the adjoint searches, S_n being
    len(_structures(n)).
    """
    sizes = range(1, cap + 1)
    S = {n: len(_structures(n)) for n in sizes}
    adjoint = claim == "ADJOINT_UNIQUE"
    instances = sum(S[p] * S[q] * (q ** p + p ** q if adjoint else q ** p * p ** q)
                    for p, q in itertools.product(sizes, repeat=2))
    if claim == "GALOIS_THM11_FWD":
        found = _scan(_galois_cases, _thm11_violation, claim, cap)
        if found.witness is not None:
            return replace(found, instances_checked=instances, notes=())
    pairs, most = _galois_count(cap)
    if adjoint and most > 1:
        wit = _adjoint_rival(cap)
        return Finding(claim=claim, scale=wit["scale"], verdict=REFUTED, witness=wit,
                       instances_checked=instances)
    return Finding(claim=claim, scale=(cap, cap), verdict=VERIFIED, instances_checked=instances,
                   notes=(f"galois pairs seen: {pairs}",))


def _adjoint_rival(cap: int) -> dict:
    """The first map with two adjoints: structure pairs in _structure_pairs
    order, then the right adjoints of each f: P -> Q, then the left adjoints
    of each g: Q -> P, maps in image-lexicographic order."""
    from .galois import find_adjoint
    from .morphisms import Mapping
    for P, Q in _structure_pairs(cap):
        for side, src, dst in (("right", P, Q), ("left", Q, P)):
            for img in itertools.product(range(dst.n), repeat=src.n):
                m = Mapping(src.n, dst.n, img)
                if len(find_adjoint(m, src, dst, side)) > 1:
                    return {"scale": (P.n, Q.n), "P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d),
                            "f": _ser_mapping(m), "side": side}
    raise RuntimeError("the Galois count reports a rival adjoint the adjoint search does not find")


def _replay_thm11_bwd(wit: dict) -> bool:
    """All four flags hold and the pair is not Galois."""
    from .galois import check_adjoint_properties, is_galois
    pair, P, Q = _parse_galois_pair(wit)
    return check_adjoint_properties(pair, P, Q).all_hold and not is_galois(pair, P, Q)


def _replay_adjoint(wit: dict) -> bool:
    from .galois import find_adjoint
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
        3, _orbit_cases, partial(_unique_violation, "greatest", True), _structure_args),
    "UNIQUE_GMIN": _scanned(
        "the minimal greatest element is unique when defined",
        3, _orbit_cases, partial(_unique_violation, "greatest", False), _structure_args),
    "UNIQUE_LMAX": _scanned(
        "the maximal least element is unique when defined",
        3, _orbit_cases, partial(_unique_violation, "least", True), _structure_args),
    "UNIQUE_LMIN": _scanned(
        "the minimal least element is unique when defined",
        3, _orbit_cases, partial(_unique_violation, "least", False), _structure_args),
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
        3, _orbit_cases, _double_dual_violation, _structure_args),
    "GALOIS_THM11_FWD": _Claim(
        "a Galois pair is isotone both ways with unit and counit",
        3, _claim_galois, lambda wit: _thm11_violation(*_parse_galois_pair(wit)) is not None),
    "GALOIS_THM11_BWD": _Claim(
        "isotone both ways with unit and counit implies Galois",
        3, _claim_galois, _replay_thm11_bwd),
    "GALOIS_COMPOSE": _scanned(
        "Galois connections compose",
        2, _compose_cases, _compose_violation, _compose_args),
    "ADJOINT_UNIQUE": _Claim(
        "adjoints are unique when they exist",
        3, _claim_galois, _replay_adjoint),
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
    when None), with budget draws (20,000 when None). A budget or seed that
    is not an int, or is a bool, and a budget below 1 are UsageErrors. A
    budget or seed that the Finding does not record went unused, as on an
    exhaustive claim, and a note says so. Each claim sweeps at most the
    scale of its table row; a Finding without a witness whose n_max lies
    above that scale says so in its last note.
    """
    row = _row(claim)
    _check_size(n_max, "n_max", 1)
    for name, value in (("budget", budget), ("seed", seed)):
        if value is not None:
            _check_int(value, name)
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
