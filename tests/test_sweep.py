"""The Galois adjunction sweep: class reduction, slow reference, time bound."""

import itertools
import random
import time

import numpy as np
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
    serialize_mapping,
    serialize_structure,
    verify_claim,
)
from biposet import oracle
from biposet.core import preimage_rows

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


# the batch layout: row masks, read back through maps, packed into keys

def test_preimage_matches_preimage_rows_per_map():
    # m != n, maps that are not injective, with and without leading batch axes
    rng = random.Random(1501)
    for _ in range(200):
        n, m, K = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 5)
        lead = rng.choice([(), (3,), (2, 3)])
        dt = np.uint8
        img = np.array([[rng.randrange(n) for _ in range(m)] for _ in range(K)])
        # per (batch, map) index: the n rows of a relation on range(n)
        rows = np.array([rng.randrange(1 << n) for _ in range(np.prod(lead, dtype=int) * K * n)],
                        dtype=dt).reshape(lead + (K, n))
        out = oracle._preimage(rows, img)
        assert out.shape == rows.shape and out.dtype == np.uint8
        for idx in np.ndindex(lead + (K,)):
            want = preimage_rows(tuple(rows[idx].tolist()), tuple(img[idx[-1]].tolist()))
            assert tuple(out[idx].tolist()) == want
        # one map for every row, and one row broadcast against every map
        assert np.array_equal(oracle._preimage(rows, img[0]), oracle._preimage(rows, img[:1]))
        wide = oracle._preimage(rows[..., :1, :], img)
        for k in range(K):
            assert np.array_equal(wide[..., k, :], oracle._preimage(rows[..., 0, :], img[k]))


def test_key_of_row_masks_is_the_structure_key_up_to_n3():
    for n in (1, 2, 3):
        structs = oracle._structures(n)
        rows = oracle._np_rows(structs, n)
        assert rows.shape == (len(structs), 2, n) and rows.dtype == np.uint8
        keys = oracle._key(rows.reshape(len(structs), -1), n)
        assert keys.tolist() == oracle._structure_keys(structs)
        # the keys run in enumeration order, which the relabelling lookup needs
        assert keys.tolist() == sorted(keys.tolist())


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


def sweep_with_one_table_at_n2(monkeypatch, d):
    """The uncached n <= 2 sweep with d, valid or not, as the only n = 2 table."""
    structures, iso_classes = oracle._structures, oracle._iso_classes
    one = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    monkeypatch.setattr(oracle, "_structures", lambda n: (d,) if n == 2 else structures(n))
    monkeypatch.setattr(oracle, "_iso_classes", lambda n: one if n == 2 else iso_classes(n))
    return oracle._thm11_sweep.__wrapped__(2)


@pytest.mark.parametrize("r, scale, side, found", [
    # both elements are least, so the constant g has both maps as left adjoints
    (Rel.full(2), (1, 2), "left", [(0,), (1,)]),
    # nothing is comparable, so every g is a right adjoint of every f
    (Rel(2, (0, 0)), (2, 2), "right", list(itertools.product(range(2), repeat=2))),
])
def test_sweep_reports_an_adjoint_with_a_rival(monkeypatch, r, scale, side, found):
    # valid structures never have two adjoints, so the sweep's ADJOINT_UNIQUE
    # witness is reached through one invalid table at n = 2 (r1 = r2 = r)
    P1, P2 = generic(Diamond(Rel.full(1), Rel.full(1))), generic(Diamond(r, r))
    wit = sweep_with_one_table_at_n2(monkeypatch, P2.d)["adjoint"]
    P, Q = (P1, P2) if scale == (1, 2) else (P2, P2)
    assert wit == {"scale": scale, "P": serialize_structure(P), "Q": serialize_structure(Q),
                   "f": "e0 -> e0\ne1 -> e0\n", "side": side}
    # the witness replays through the public adjoint search
    assert oracle._replay_adjoint(wit)
    if side == "left":
        got = find_adjoint(Mapping(2, P.n, (0, 0)), Q, P, "left")
    else:
        got = find_adjoint(Mapping(2, 2, (0, 0)), P, Q, "right")
    assert [m.img for m in got] == found
    # and the sweep refuses a witness that does not replay
    monkeypatch.setattr(oracle, "_replay_adjoint", lambda wit: False)
    with pytest.raises(RuntimeError, match="non-violation \\(adjoint\\)"):
        oracle._thm11_sweep.__wrapped__(2)


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
    # the tables it reads are warm; the sweep's own numpy working set is one
    # (Q class, f, g) block per P representative plus the per-scale-pair tables
    for n in (1, 2, 3):
        oracle._structures(n)
        oracle._iso_classes(n)
    oracle._thm11_sweep.cache_clear()
    res, peak = traced_peak(oracle._thm11_sweep, 3)
    assert (res["instances"], res["galois_pairs"]) == (311892412, 1159492)
    assert res["fwd"]["scale"] == (2, 2) and res["bwd"] is None and res["adjoint"] is None
    assert peak < 4e6, f"the n=3 sweep peaked at {peak / 1e6:.1f} MB traced"
