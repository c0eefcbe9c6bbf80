"""The five Galois rows of the claim table: GALOIS_THM11_FWD,
GALOIS_THM11_BWD, ADJOINT_UNIQUE, GALOIS_COMPOSE and GALOIS_ASYMMETRY.

Their runners, cases, tests and replayers live here, apart from the rest
of the claims (oracle.py), which is where every row is registered
(oracle._CLAIMS). A Galois row's entries there load this module on their
first call, so a claim that is not about Galois pairs never compiles it.

GALOIS_COMPOSE and the count that the three leq rows share read one
cached table of Galois pairs per ordered pair of leq classes
(_class_galois); the lemma and the two theorems the leq rows rest on are
proved at _claim_galois.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from typing import Iterator, Optional

from . import galois
from .core import BiPoset
from .enumeration import _poset_classes, _ser_diamond, _structures
from .morphisms import Mapping
from .oracle import (REFUTED, VERIFIED, Finding, _generic_bp, _parse_diamond, _parse_mapping,
                     _scan, _ser_mapping)


def _galois_pairs_between(P: BiPoset, Q: BiPoset) -> list[galois.GaloisPair]:
    out = []
    for fimg in itertools.product(range(Q.n), repeat=P.n):
        f = Mapping(P.n, Q.n, fimg)
        out.extend(galois.GaloisPair(f, g) for g in galois.find_adjoint(f, P, Q))
    return out


@cache
def _class_galois(n_p: int, p: int, n_q: int, q: int) -> tuple[galois.GaloisPair, ...]:
    """The Galois pairs from class p of _poset_classes(n_p) to class q of
    _poset_classes(n_q): one cached table per ordered pair of leq classes,
    shared by GALOIS_COMPOSE (_compose_cases) and _galois_count."""
    return tuple(_galois_pairs_between(_poset_classes(n_p)[p][0], _poset_classes(n_q)[q][0]))


def _compose_cases(cap: int) -> Iterator[tuple[tuple[int, int, int], tuple, int]]:
    """One case per composable pair of Galois pairs between three leq
    classes (_poset_classes, _class_galois), weighted m_P * m_Q * m_R, the
    numbers of structures in the classes.

    Invariant under relabelling: is_galois and find_adjoint read only
    leq = r1 & r2, and relabelling P, Q or R carries the pairs between them
    along, and their composites with them. So the G(P, Q) * G(Q, R)
    compositions of every structure triple are those of its class triple,
    and the weights add up to the structure-level total. Scale triples in
    product order, then classes in _poset_classes order."""
    for nP, nQ, nR in itertools.product(range(1, cap + 1), repeat=3):
        for (p, (P, m_p)), (q, (Q, m_q)) in itertools.product(enumerate(_poset_classes(nP)),
                                                              enumerate(_poset_classes(nQ))):
            firsts = _class_galois(nP, p, nQ, q)
            for r, (R, m_r) in enumerate(_poset_classes(nR)):
                for first, second in itertools.product(firsts, _class_galois(nQ, q, nR, r)):
                    yield (nP, nQ, nR), (P, Q, R, first, second), m_p * m_q * m_r


def _compose_args(wit: dict) -> tuple:
    dP, dQ, dR = (_parse_diamond(wit[key]) for key in "PQR")
    first = galois.GaloisPair(_parse_mapping(wit["first_f"], dP.n, dQ.n),
                              _parse_mapping(wit["first_g"], dQ.n, dP.n))
    second = galois.GaloisPair(_parse_mapping(wit["second_f"], dQ.n, dR.n),
                               _parse_mapping(wit["second_g"], dR.n, dQ.n))
    return _generic_bp(dP), _generic_bp(dQ), _generic_bp(dR), first, second


def _compose_violation(P: BiPoset, Q: BiPoset, R: BiPoset, first: galois.GaloisPair,
                       second: galois.GaloisPair) -> Optional[dict]:
    ok = galois.is_galois(galois.compose_galois(first, second), P, R)
    if ok:
        return None
    return {"P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d), "R": _ser_diamond(R.d),
            "first_f": _ser_mapping(first.f), "first_g": _ser_mapping(first.g),
            "second_f": _ser_mapping(second.f), "second_g": _ser_mapping(second.g),
            "violation": ok.witness}


def _asymmetry_cases(cap: int) -> Iterator[tuple[tuple[int, int], tuple, int]]:
    # the canned exhibit first when it fits the cap, then the whole small space
    pair, P, Q = galois.example_singleton(good=True)
    if max(P.n, Q.n) <= cap:
        yield (P.n, Q.n), (pair, P, Q), 1
    yield from _galois_cases(cap)


def _asymmetric(pair: galois.GaloisPair, P: BiPoset, Q: BiPoset) -> Optional[dict]:
    """pair is Galois from P to Q and stops being so with its roles swapped."""
    swapped = galois.is_galois(galois.GaloisPair(pair.g, pair.f), Q, P)
    if swapped or not galois.is_galois(pair, P, Q):
        return None
    return {"P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d), "f": _ser_mapping(pair.f),
            "g": _ser_mapping(pair.g), "swapped_violation": swapped.witness}


def _claim_asymmetry(cases, test, claim: str, cap: int) -> Finding:
    """An existence claim: the first hit of the scan is the exhibit, so the
    verdict flips."""
    found = _scan(cases, test, claim, cap)
    if found.witness is None:
        return found._replace(verdict=REFUTED,
                              notes=("every Galois pair at this scale stays Galois when swapped",))
    return found._replace(verdict=VERIFIED,
                          notes=("existence claim: the witness is the exhibiting pair",))


def _parse_galois_pair(wit: dict) -> tuple[galois.GaloisPair, BiPoset, BiPoset]:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    pair = galois.GaloisPair(_parse_mapping(wit["f"], dP.n, dQ.n),
                             _parse_mapping(wit["g"], dQ.n, dP.n))
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


def _thm11_violation(pair: galois.GaloisPair, P: BiPoset, Q: BiPoset) -> Optional[dict]:
    """pair is Galois and not isotone both ways with unit and counit."""
    report = galois.check_adjoint_properties(pair, P, Q)
    if report.all_hold or not galois.is_galois(pair, P, Q):
        return None
    return {"scale": (P.n, Q.n), "P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d),
            "f": _ser_mapping(pair.f), "g": _ser_mapping(pair.g),
            "flags": {"f_isotone": report.f_isotone, "g_isotone": report.g_isotone,
                      "unit_holds": report.unit_holds, "counit_holds": report.counit_holds,
                      "is_galois": True}}


@cache
def _galois_count(cap: int) -> tuple[int, int]:
    """(Galois pairs, most adjoints of one map) over every structure pair up
    to cap: sum m(L_P) * m(L_Q) * G(L_P, L_Q) over the class tables
    (_class_galois, _claim_galois), and the most entries of one table that
    share an f, its right adjoints, or a g, its left adjoints. Cached, so
    the rows that read it share one count per cap."""
    classes = [(n, p, m) for n in range(1, cap + 1) for p, (_, m) in enumerate(_poset_classes(n))]
    pairs = most = 0
    for (n_p, p, m_p), (n_q, q, m_q) in itertools.product(classes, repeat=2):
        table = _class_galois(n_p, p, n_q, q)
        pairs += m_p * m_q * len(table)
        # counted apart: when n_p == n_q an f and a g can be equal maps
        most = max([most, *Counter(pair.f for pair in table).values(),
                    *Counter(pair.g for pair in table).values()])
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
    the structures in a class and G the length of their table of Galois
    pairs (_class_galois). The same tables give the most adjoints of one
    map (_galois_count); where one reports a rival adjoint, which only an
    invalid table can, _adjoint_rival finds the witness. The instance
    totals are the closed forms sum S_p * S_q * q^p * p^q over the mapping
    pairs and sum S_p * S_q * (q^p + p^q) over the adjoint searches, S_n
    being len(_structures(n)).
    """
    sizes = range(1, cap + 1)
    S = {n: len(_structures(n)) for n in sizes}
    adjoint = claim == "ADJOINT_UNIQUE"
    instances = sum(S[p] * S[q] * (q ** p + p ** q if adjoint else q ** p * p ** q)
                    for p, q in itertools.product(sizes, repeat=2))
    if claim == "GALOIS_THM11_FWD":
        found = _scan(_galois_cases, _thm11_violation, claim, cap)
        if found.witness is not None:
            return found._replace(instances_checked=instances, notes=())
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
    for P, Q in _structure_pairs(cap):
        for side, src, dst in (("right", P, Q), ("left", Q, P)):
            for img in itertools.product(range(dst.n), repeat=src.n):
                m = Mapping(src.n, dst.n, img)
                if len(galois.find_adjoint(m, src, dst, side)) > 1:
                    return {"scale": (P.n, Q.n), "P": _ser_diamond(P.d), "Q": _ser_diamond(Q.d),
                            "f": _ser_mapping(m), "side": side}
    raise RuntimeError("the Galois count reports a rival adjoint the adjoint search does not find")


def _replay_thm11_fwd(wit: dict) -> bool:
    return _thm11_violation(*_parse_galois_pair(wit)) is not None


def _replay_thm11_bwd(wit: dict) -> bool:
    """All four flags hold and the pair is not Galois."""
    pair, P, Q = _parse_galois_pair(wit)
    return (galois.check_adjoint_properties(pair, P, Q).all_hold
            and not galois.is_galois(pair, P, Q))


def _replay_adjoint(wit: dict) -> bool:
    dP = _parse_diamond(wit["P"])
    dQ = _parse_diamond(wit["Q"])
    P, Q = _generic_bp(dP), _generic_bp(dQ)
    if wit["side"] == "right":
        f = _parse_mapping(wit["f"], dP.n, dQ.n)
        return len(galois.find_adjoint(f, P, Q, "right")) > 1
    f = _parse_mapping(wit["f"], dQ.n, dP.n)
    return len(galois.find_adjoint(f, Q, P, "left")) > 1
