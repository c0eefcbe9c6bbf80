"""The Galois adjunction sweep: class reduction, slow reference, time bound."""

import itertools
import random
import time

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
    find_isomorphism,
    is_galois,
    serialize_mapping,
    serialize_structure,
    verify_claim,
)
from biposet import oracle

from conftest import traced_peak

CLASS_COUNTS = {1: 1, 2: 7, 3: 126}


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


# class structure

def test_isomorphism_classes_frozen():
    for n, want in GOLDEN_COUNTS.items():
        structs = list(enumerate_biposets(n))
        cls, reps, weights = oracle._iso_classes(n)
        assert len(reps) == CLASS_COUNTS[n]
        assert weights.sum() == want
        # the representative is the first member in enumeration order
        assert list(cls[reps]) == list(range(len(reps)))
        assert all(reps[cls[s]] <= s for s in range(len(structs)))
        # independent check through the public isomorphism search: every
        # structure matches its representative, and no two representatives match
        bps = [generic(d) for d in structs]
        assert all(find_isomorphism(bps[s], bps[reps[cls[s]]]) is not None
                   for s in range(len(structs)))
        assert all(find_isomorphism(bps[a], bps[b]) is None
                   for a, b in itertools.combinations(reps, 2))


def test_galois_count_is_orbit_invariant():
    structs = list(enumerate_biposets(3))
    cls = oracle._iso_classes(3)[0]
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


# stated time bound

def test_fresh_sweep_at_n3_within_time_bound():
    oracle._thm11_sweep.cache_clear()
    oracle._relabelling.cache_clear()
    oracle._iso_classes.cache_clear()
    start = time.perf_counter()
    fwd = verify_claim("GALOIS_THM11_FWD", 3)
    elapsed = time.perf_counter() - start
    assert fwd.instances_checked == 311892412 and fwd.scale == (2, 2)
    assert elapsed < 15.0, f"fresh n=3 sweep took {elapsed:.1f} s"


# stated working set

def test_sweep_at_n3_stays_within_its_working_set():
    # the tables it reads are warm; the sweep's own numpy working set is the
    # chunk budget plus the per-scale-pair tables
    for n in (1, 2, 3):
        oracle._structures(n)
        oracle._iso_classes(n)
    oracle._thm11_sweep.cache_clear()
    res, peak = traced_peak(oracle._thm11_sweep, 3)
    assert (res["instances"], res["galois_pairs"]) == (311892412, 1159492)
    assert res["fwd"]["scale"] == (2, 2) and res["bwd"] is None and res["adjoint"] is None
    assert peak < 4e6, f"the n=3 sweep peaked at {peak / 1e6:.1f} MB traced"
