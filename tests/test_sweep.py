"""The Galois rows on leq = r1 & r2: the partial-order lemma, the class-reduced
Galois count against the public API, the adjoint rival search, time and
memory bounds; and the isomorphism classes of the orbit walk, with the
structure keys it looks its images up by."""

import itertools
import random
import time

import pytest

from biposet import (
    GOLDEN_COUNTS,
    BiPoset,
    Diamond,
    GaloisPair,
    GroundSet,
    Mapping,
    Rel,
    check_adjoint_properties,
    enumerate_biposets,
    find_adjoint,
    find_isomorphism,
    is_galois,
    naive_check_classical,
    replay_finding,
    serialize_mapping,
    serialize_structure,
    verify_claim,
)
from biposet import oracle

from conftest import traced_peak

CLASS_COUNTS = {1: 1, 2: 7, 3: 126}
LABELLED_POSETS = {1: 1, 2: 3, 3: 19, 4: 219}      # OEIS A001035
POSET_CLASSES = {1: 1, 2: 2, 3: 5, 4: 16}          # OEIS A000112


def generic(d):
    return BiPoset(GroundSet(tuple(f"e{i}" for i in range(d.n))), d)


def relabel(d, perm):
    """d with element i renamed perm[i] in both relations."""
    def move(r):
        return Rel.from_pairs(d.n, ((perm[i], perm[j]) for i, j in r.pairs()))
    return Diamond(move(d.r1), move(d.r2))


def all_maps(src_n, dst_n):
    return [Mapping(src_n, dst_n, img) for img in itertools.product(range(dst_n), repeat=src_n)]


def galois_count(P, Q):
    return sum(
        bool(is_galois(GaloisPair(f, g), P, Q))
        for f in all_maps(P.n, Q.n) for g in all_maps(Q.n, P.n))


def orbit_classes(n):
    """(cls, reps, weights) of the orbit walk: the representative of every
    structure, the representatives and their orbit sizes."""
    orbits = oracle._orbits(n)[1]
    rep = {s: p for p, images in orbits for s in images}
    cls = [rep[s] for s in range(len(rep))]
    return cls, [p for p, _ in orbits], [len(set(images)) for _, images in orbits]


def test_structure_keys_ascend_in_enumeration_order_up_to_n3():
    # the orbit walk looks relabelled keys up by bisect, which needs this
    for n in (1, 2, 3):
        structs = oracle._structures(n)
        keys = oracle._structure_keys(structs)
        assert keys == [d.r1.code << n * n | d.r2.code for d in structs]
        assert keys == sorted(set(keys))


# class structure

def test_isomorphism_classes_frozen():
    for n, want in GOLDEN_COUNTS.items():
        structs = list(enumerate_biposets(n))
        cls, reps, weights = orbit_classes(n)
        assert len(reps) == CLASS_COUNTS[n]
        assert sum(weights) == want
        # the representative is the first member in enumeration order
        assert reps == sorted(reps) and all(cls[p] == p for p in reps)
        assert all(cls[s] <= s for s in range(len(structs)))
        # independent check through the public isomorphism search: every
        # structure matches its representative, and no two representatives match
        bps = [generic(d) for d in structs]
        assert all(find_isomorphism(bps[s], bps[cls[s]]) is not None
                   for s in range(len(structs)))
        assert all(find_isomorphism(bps[a], bps[b]) is None
                   for a, b in itertools.combinations(reps, 2))


def test_galois_count_is_orbit_invariant():
    structs = list(enumerate_biposets(3))
    cls = orbit_classes(3)[0]
    index = {d.code: s for s, d in enumerate(structs)}
    rng = random.Random(20221112)
    perms = list(itertools.permutations(range(3)))
    for _ in range(4):
        p, q = rng.randrange(len(structs)), rng.randrange(len(structs))
        sigma, tau = rng.choice(perms), rng.choice(perms)
        dP, dQ = structs[p], structs[q]
        sP, tQ = relabel(dP, sigma), relabel(dQ, tau)
        assert cls[index[sP.code]] == cls[p] and cls[index[tQ.code]] == cls[q]
        assert galois_count(generic(dP), generic(dQ)) == galois_count(generic(sP), generic(tQ))


# slow reference for the class-reduced sweep

def test_sweep_matches_public_api_brute_force_at_n2():
    structs = {n: [generic(d) for d in enumerate_biposets(n)] for n in (1, 2)}
    instances = galois_pairs = adjoint_instances = 0
    first_fwd = None
    for nP, nQ in sorted(itertools.product((1, 2), repeat=2), key=lambda t: (max(t), t)):
        fs, gs = all_maps(nP, nQ), all_maps(nQ, nP)
        for P in structs[nP]:
            for Q in structs[nQ]:
                right = [0] * len(fs)       # right adjoints found for each f
                left = [0] * len(gs)        # left adjoints found for each g
                for fi, f in enumerate(fs):
                    for gi, g in enumerate(gs):
                        pair = GaloisPair(f, g)
                        galois = bool(is_galois(pair, P, Q))
                        holds = check_adjoint_properties(pair, P, Q).all_hold
                        instances += 1
                        galois_pairs += galois
                        right[fi] += galois
                        left[gi] += galois
                        assert not (holds and not galois)       # THM11_BWD holds
                        if galois and not holds and first_fwd is None:
                            first_fwd = (nP, nQ), P, Q, f, g
                adjoint_instances += len(fs) + len(gs)
                assert max(right + left) <= 1                   # ADJOINT_UNIQUE holds
    assert (instances, galois_pairs, adjoint_instances) == (1981, 175, 1036)

    fwd = verify_claim("GALOIS_THM11_FWD", 2)
    scale, P, Q, f, g = first_fwd
    assert fwd.witness["scale"] == scale
    assert fwd.witness["P"] == serialize_structure(P)
    assert fwd.witness["Q"] == serialize_structure(Q)
    assert fwd.witness["f"] == serialize_mapping(f, P.ground, Q.ground)
    assert fwd.witness["g"] == serialize_mapping(g, Q.ground, P.ground)
    assert fwd.instances_checked == instances
    assert verify_claim("GALOIS_THM11_BWD", 2).verified
    adj = verify_claim("ADJOINT_UNIQUE", 2)
    assert adj.verified and adj.instances_checked == adjoint_instances
    assert f"galois pairs seen: {galois_pairs}" in adj.notes


def poset(n, rows):
    """The valid structure (L, L) of a partial order L, whose leq is L."""
    return generic(Diamond(Rel(n, rows), Rel(n, rows)))


def poset_class(P):
    """The size of P and the least code of its leq over relabellings: a
    class key computed without the oracle."""
    leq = poset(P.n, P.d.leq_rows()).d
    return P.n, min(relabel(leq, perm).r1.code for perm in itertools.permutations(range(P.n)))


# the lemma: leq = r1 & r2 of a valid structure is a partial order

def test_leq_is_a_partial_order_on_every_structure_up_to_n4(structures4):
    for n in (1, 2, 3, 4):
        structs = structures4[0] if n == 4 else oracle._structures(n)
        leqs = {d.leq_rows() for d in structs}
        assert all(naive_check_classical(Rel(n, rows)).ok for rows in leqs)
        # every labelled poset L is a leq, of the valid structure (L, L)
        assert len(leqs) == LABELLED_POSETS[n]
        classes = oracle._poset_classes(n)
        assert len(classes) == POSET_CLASSES[n]
        assert sum(classes.values()) == len(structs)


# slow references for the leq-level Galois count

def test_leq_count_matches_public_api_brute_force_per_structure_pair_at_n2():
    structs = [generic(d) for n in (1, 2) for d in enumerate_biposets(n)]
    brute = {}          # Galois pairs per pair of poset classes, over every structure pair
    for P, Q in itertools.product(structs, repeat=2):
        count = galois_count(P, Q)
        # at most one adjoint per map, and one wherever there is a Galois pair
        assert oracle._leq_galois(P.d.leq_rows(), Q.d.leq_rows()) == (count, min(count, 1))
        key = poset_class(P), poset_class(Q)
        brute[key] = brute.get(key, 0) + count
    # the runner's sum: multiplicities times G over the class representatives
    reps = [(poset(n, rows), m) for n in (1, 2) for rows, m in oracle._poset_classes(n).items()]
    counted = {(poset_class(P), poset_class(Q)): m_p * m_q * oracle._leq_galois(
        P.d.r1.rows, Q.d.r1.rows)[0] for (P, m_p), (Q, m_q) in itertools.product(reps, repeat=2)}
    assert counted == brute and sum(brute.values()) == 175


def test_galois_iff_monotone_with_unit_and_counit_on_every_poset_pair_at_n3():
    # GALOIS_THM11_BWD on posets, and its converse, through is_galois
    posets = [poset(n, rows) for n in (1, 2, 3) for rows in oracle._poset_classes(n)]
    assert len(posets) == 8
    for P, Q in itertools.product(posets, repeat=2):
        le_p, le_q = P.d.r1.has, Q.d.r1.has
        fs, gs = all_maps(P.n, Q.n), all_maps(Q.n, P.n)
        f_mono = [all(le_q(f(a), f(b)) for a in range(P.n) for b in range(P.n) if le_p(a, b))
                  for f in fs]
        g_mono = [all(le_p(g(a), g(b)) for a in range(Q.n) for b in range(Q.n) if le_q(a, b))
                  for g in gs]
        galois = 0
        for f, fm in zip(fs, f_mono):
            for g, gm in zip(gs, g_mono):
                unit = all(le_p(a, g(f(a))) for a in range(P.n))
                counit = all(le_q(f(g(b)), b) for b in range(Q.n))
                holds = bool(is_galois(GaloisPair(f, g), P, Q))
                assert holds == (fm and gm and unit and counit), (P.d, Q.d, f, g)
                galois += holds
        assert oracle._leq_galois(P.d.r1.rows, Q.d.r1.rows) == (galois, min(galois, 1))


def adjoint_unique_with_one_table_at_n2(monkeypatch, d):
    """ADJOINT_UNIQUE at n <= 2 with d, valid or not, as the only n = 2 table."""
    structures = oracle._structures
    monkeypatch.setattr(oracle, "_structures", lambda n: (d,) if n == 2 else structures(n))
    return verify_claim("ADJOINT_UNIQUE", 2)


@pytest.mark.parametrize("r, scale, side, found", [
    # both elements are least, so the constant g has both maps as left adjoints
    (Rel.full(2), (1, 2), "left", [(0,), (1,)]),
    # nothing is comparable, so every g is a right adjoint of every f
    (Rel(2, (0, 0)), (2, 2), "right", list(itertools.product(range(2), repeat=2))),
])
def test_adjoint_unique_reports_an_adjoint_with_a_rival(monkeypatch, fresh_oracle_caches,
                                                       r, scale, side, found):
    # valid structures never have two adjoints, so the ADJOINT_UNIQUE
    # witness is reached through one invalid table at n = 2 (r1 = r2 = r)
    P1, P2 = generic(Diamond(Rel.full(1), Rel.full(1))), generic(Diamond(r, r))
    finding = adjoint_unique_with_one_table_at_n2(monkeypatch, P2.d)
    wit = finding.witness
    P, Q = (P1, P2) if scale == (1, 2) else (P2, P2)
    assert wit == {"scale": scale, "P": serialize_structure(P), "Q": serialize_structure(Q),
                   "f": "e0 -> e0\ne1 -> e0\n", "side": side}
    assert finding.verdict == "counterexample" and finding.scale == scale
    # the closed form over one structure per size: 2 + 3 + 3 + 8 adjoint searches
    assert finding.instances_checked == 16 and not finding.notes
    # the witness replays through the public adjoint search
    assert replay_finding(finding)
    if side == "left":
        got = find_adjoint(Mapping(2, P.n, (0, 0)), Q, P, "left")
    else:
        got = find_adjoint(Mapping(2, 2, (0, 0)), P, Q, "right")
    assert [m.img for m in got] == found


# stated time bound

def test_galois_rows_at_n3_within_time_bound():
    for n in (1, 2, 3):
        oracle._structures(n)
    # the leq classes and the shared count are made inside the timed region
    oracle._poset_classes.cache_clear()
    oracle._galois_count.cache_clear()
    start = time.perf_counter()
    fwd, bwd, adj = (verify_claim(c, 3) for c in
                     ("GALOIS_THM11_FWD", "GALOIS_THM11_BWD", "ADJOINT_UNIQUE"))
    elapsed = time.perf_counter() - start
    assert fwd.instances_checked == 311892412 and fwd.scale == (2, 2)
    assert bwd.verified and adj.verified
    assert elapsed < 0.5, f"the three Galois rows at n=3 took {elapsed:.2f} s"


# stated working set

def test_galois_rows_at_n3_stay_within_their_working_set():
    # a first run loads the structures and the modules the rows import; the
    # rows themselves hold the leq classes, one class pair's adjoint counts
    # and the FWD scan's structure pair at a time, so the classes and the
    # shared count are made again inside the traced region
    def rows():
        return [verify_claim(c, 3) for c in
                ("GALOIS_THM11_FWD", "GALOIS_THM11_BWD", "ADJOINT_UNIQUE")]

    rows()
    oracle._poset_classes.cache_clear()
    oracle._galois_count.cache_clear()
    (fwd, bwd, adj), peak = traced_peak(rows)
    assert fwd.witness["scale"] == (2, 2) and bwd.verified and adj.verified
    assert bwd.notes == adj.notes == ("galois pairs seen: 1159492",)
    assert peak < 256e3, f"the three Galois rows at n=3 peaked at {peak / 1e3:.0f} kB traced"
