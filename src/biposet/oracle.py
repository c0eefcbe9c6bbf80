"""The reference checkers and the claim registry.

A direct-quantifier checker of the axioms lives here next to the fast one
in axioms.py (naive_check_axioms, the first hit over every tuple in
lexicographic order, no bit tricks), used as the agreement oracle. The
structures the claims scan, their isomorphism classes and the bit-plane
kernel that decides every batch live in enumeration.py. The claim runner
verifies every registered claim at desk scale or produces a minimal,
replayable counterexample. Each claim is one row of _CLAIMS: its
description, runner, replayer and the largest scale the runner sweeps.
Most rows are scanned: one test per row serves its runner (_scan) and its
replayer alike, and each case carries the number of instances it decides.
A row whose test relabelling cannot change scans class representatives,
each weighted by the instances it stands for: UNIQUE_GMAX, UNIQUE_GMIN,
UNIQUE_LMAX, UNIQUE_LMIN and DOUBLE_DUAL one structure per isomorphism
class (_orbit_cases), ISO_IFF_ISOTONE one (P, f) per class (_iso_cases)
and GALOIS_COMPOSE one triple of leq classes (oracle_galois._compose_cases).
INTERSECT_CLOSURE (a keyed lookup, sampled at n = 3) and the three rows
that read only leq = r1 & r2 (oracle_galois._claim_galois: theorems about
posets, one class-reduced count shared per cap and a short witness scan)
keep a bespoke runner.

The five Galois rows (GALOIS_THM11_FWD, GALOIS_THM11_BWD, GALOIS_COMPOSE,
ADJOINT_UNIQUE, GALOIS_ASYMMETRY) live in oracle_galois.py and are
registered here through _galois, which loads that module on the first
call of a row's runner or replayer. Likewise a function that needs the
axiom checker, the text formats (io_cli), or the extremal, morphisms or
Galois module imports it in its body, so a claim loads only the modules
it reaches: a verified DOUBLE_DUAL loads core, the constructions, the
enumeration and this module. numpy is an optional extra that only the
enumeration's validity_kernel and duality_sample import, inside their
bodies: no claim needs it.

Counterexample minimization: smallest structure scale first, then
structure codes ascending, then mapping images in lexicographic order.
A violation found by a faster path than the public API is re-evaluated
through that API before it is reported, so a kernel bug cannot fabricate a
finding.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional

from .constructions import dual, dual_biposet, intersect_many, powerset_biposet
from .core import (BiPoset, Check, Diamond, Rel, UsageError, _check_int, _check_size, _Value,
                   preimage_rows)
from .enumeration import MAX_ENUM_N, _ground, _orbits, _ser_diamond, _structure_keys, _structures

if TYPE_CHECKING:
    from .axioms import AxiomVerdict
    from .morphisms import Mapping


VERIFIED = "verified-at-scale"
REFUTED = "counterexample"


class Finding(_Value):
    __match_args__ = __slots__ = ("claim", "scale", "verdict", "witness", "instances_checked",
                                  "seed", "budget", "notes")

    def __init__(self, claim: str, scale: tuple[int, ...], verdict: str,
                 witness: Optional[dict] = None, instances_checked: int = 0,
                 seed: Optional[int] = None, budget: Optional[int] = None,
                 notes: tuple[str, ...] = ()) -> None:
        for name, value in zip(self.__slots__, (claim, scale, verdict, witness,
                                                instances_checked, seed, budget, notes)):
            object.__setattr__(self, name, value)

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED

    def __hash__(self) -> int:
        # the witness, a dict, hashes as None: equal Findings agree on the rest
        values = self._values()
        return hash(values[:3] + (None,) + values[4:])


# ---------------------------------------------------------------------------
# independent direct-quantifier checkers


def naive_check_axioms(d: Diamond) -> AxiomVerdict:
    """Reference checker: plain quantifiers over every tuple in lexicographic
    order, the first hit being the witness."""
    from .axioms import AxiomVerdict
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
    from .axioms import AxiomVerdict
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


def _generic_bp(d: Diamond) -> BiPoset:
    return BiPoset(_ground(d.n), d, certificate="valid")


def _ser_mapping(m: Mapping) -> str:
    from .io_cli import serialize_mapping
    return serialize_mapping(m, _ground(m.src_n), _ground(m.dst_n))


def _parse_diamond(text: str) -> Diamond:
    from .io_cli import parse_structure
    return parse_structure(text).d


def _parse_mapping(text: str, src_n: int, dst_n: int) -> Mapping:
    from .io_cli import parse_mapping
    return parse_mapping(text, _ground(src_n), _ground(dst_n))


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


INTERSECT_DRAWS = 20_000     # n = 3 sample: half pairs, then half triples


def _claim_intersect(claim: str, cap: int, seed: Optional[int]) -> Finding:
    """One stream of index tuples per n: every ordered pair at n <= 2,
    INTERSECT_DRAWS seeded draws at n = 3 (the pairs, then the triples).

    Bespoke rather than scanned: one keyed lookup decides each instance
    without building it, and n = 3 is sampled with a seed.
    An intersection of reflexive structures is reflexive, and the
    enumeration holds every valid reflexive structure, so an intersection
    is valid iff its key is one of the enumerated keys: one AND per operand
    and one set lookup decide each instance. Only a miss goes through
    check_axioms (_closure_violation), for the least witness.
    """
    checked = 0
    notes = []
    for n in range(1, cap + 1):
        structs = _structures(n)
        keys = _structure_keys(structs)
        valid = set(keys)
        S = len(structs)
        if n <= 2:
            cases = itertools.product(range(S), repeat=2)
            note = f"n={n}: exhaustive over {S}^2 ordered pairs"
        else:
            rng = random.Random(seed or 0)
            half = INTERSECT_DRAWS // 2
            cases = ([rng.randrange(S) for _ in range(arity)]
                     for arity in (2, 3) for _ in range(half))
            note = f"n=3: {half} sampled pairs and {half} sampled triples"
        for idx in cases:
            inter = keys[idx[0]]
            for i in idx[1:]:
                inter &= keys[i]
            checked += 1
            if inter not in valid:
                return _closure_violation([structs[i] for i in idx], checked, claim)
        notes.append(note)
    sampled = cap == 3
    return Finding(
        claim=claim, scale=(cap,), verdict=VERIFIED, instances_checked=checked,
        seed=(seed or 0) if sampled else None, budget=INTERSECT_DRAWS if sampled else None,
        notes=tuple(notes),
    )


def _closure_violation(ds: list[Diamond], checked: int,
                       claim: str = "INTERSECT_CLOSURE") -> Finding:
    """Refutation for an intersection the valid-set lookup missed, with the
    least witness from check_axioms, which must agree that it fails."""
    from .axioms import _verdict_failure, check_axioms
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
    from .axioms import check_axioms
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
    from .axioms import _verdict_failure, check_axioms
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


# ---------------------------------------------------------------------------
# the claim table


class _Claim(NamedTuple):
    description: str
    scale: int                       # largest scale the runner sweeps
    run: Callable[..., Finding]      # (claim, cap), + seed if sampled; scanned: _scan
    replay: Callable[[dict], bool]   # witness -> the recorded phenomenon recurs
    sampled: bool = False


def _scanned(description: str, scale: int, cases, test, args_from, run=_scan) -> _Claim:
    """A scanned row: run(cases, test, claim, cap) is its runner, and its
    replayer asks the same test about the arguments args_from(witness)."""
    return _Claim(description, scale, partial(run, cases, test),
                  lambda wit: test(*args_from(wit)) is not None)


def _galois(name: str) -> Callable:
    """oracle_galois.<name>, a Galois row's runner, replayer or part of one,
    looked up when called, so the module loads on a Galois row's first call
    and a patch of the name there applies."""
    def part(*args):
        from . import oracle_galois
        return getattr(oracle_galois, name)(*args)

    part.__name__ = part.__qualname__ = name
    return part


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
        3, _galois("_claim_galois"), _galois("_replay_thm11_fwd")),
    "GALOIS_THM11_BWD": _Claim(
        "isotone both ways with unit and counit implies Galois",
        3, _galois("_claim_galois"), _galois("_replay_thm11_bwd")),
    "GALOIS_COMPOSE": _scanned(
        "Galois connections compose",
        2, _galois("_compose_cases"), _galois("_compose_violation"), _galois("_compose_args")),
    "ADJOINT_UNIQUE": _Claim(
        "adjoints are unique when they exist",
        3, _galois("_claim_galois"), _galois("_replay_adjoint")),
    "GALOIS_ASYMMETRY": _scanned(
        "some Galois pair does not survive swapping its roles",
        2, _galois("_asymmetry_cases"), _galois("_asymmetric"), _galois("_parse_galois_pair"),
        run=_galois("_claim_asymmetry")),
}


CLAIM_IDS = tuple(_CLAIMS)
CLAIM_DESCRIPTIONS = {claim: row.description for claim, row in _CLAIMS.items()}


def _row(claim: str) -> _Claim:
    try:
        return _CLAIMS[claim]
    except KeyError:
        raise UsageError(f"unknown claim {claim!r}") from None


def verify_claim(claim: str, n_max: int, seed: Optional[int] = None) -> Finding:
    """Run one registered claim at the given scale.

    Deterministic given (claim, n_max, seed). Exhaustive wherever the
    instance space fits; sampled otherwise with the recorded seed (0 when
    None), INTERSECT_CLOSURE's n = 3 with a fixed INTERSECT_DRAWS draws. A
    seed that is not an int, or is a bool, and a seed below 0 (which
    random.Random reads by its magnitude) are UsageErrors. A seed that the
    Finding does not record went unused, as on an exhaustive claim, and a
    note says so. Each claim sweeps at most the scale of its table row; a
    Finding without a witness whose n_max lies above that scale says so in
    its last note.
    """
    row = _row(claim)
    _check_size(n_max, "n_max", 1, MAX_ENUM_N)
    if seed is not None:
        _check_int(seed, "seed")
        if seed < 0:
            raise UsageError("seed must be at least 0")
    cap = min(row.scale, n_max)
    finding = row.run(claim, cap, seed) if row.sampled else row.run(claim, cap)
    if seed is not None and finding.seed is None:
        note = f"seed {seed} unused: {claim} is exhaustive"
        finding = finding._replace(notes=finding.notes + (note,))
    if finding.witness is None and n_max > row.scale:
        note = f"scales above {row.scale} are not swept"
        finding = finding._replace(notes=finding.notes + (note,))
    return finding


def replay_finding(finding: Finding) -> bool:
    """Re-run the recorded violation through the public API.

    True when the stored witness still produces the recorded phenomenon.
    Findings without a witness replay vacuously.
    """
    row = _row(finding.claim)
    return True if finding.witness is None else row.replay(finding.witness)
