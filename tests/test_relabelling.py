"""ISO_IFF_ISOTONE by construction: the orbit walk, the argument its
weighted cases rest on, and the S^2 x n! chain broadcast as its slow
reference."""

import itertools
import random
import time

import numpy as np
import pytest

from biposet import (
    BiPoset,
    Diamond,
    Finding,
    GroundSet,
    Mapping,
    Rel,
    enumerate_biposets,
    is_isomorphism,
    is_isotone,
    replay_finding,
    verify_claim,
)
from biposet import enumeration, morphisms, oracle

from conftest import traced_peak


def generic(d):
    return BiPoset(GroundSet(tuple(f"e{i}" for i in range(d.n))), d)


def relabel(d, perm):
    """d with element i renamed perm[i] in both relations."""
    def move(r):
        return Rel.from_pairs(d.n, ((perm[i], perm[j]) for i, j in r.pairs()))
    return Diamond(move(d.r1), move(d.r2))


def sides(f, dP, dQ):
    """(f is an isomorphism, f and f^-1 are isotone) through the public API."""
    iso = bool(is_isomorphism(f, generic(dP), generic(dQ)))
    return iso, bool(is_isotone(f, dP, dQ)) and bool(is_isotone(f.inverse(), dQ, dP))


def chain_broadcast(cap):
    """The S^2 x n! numpy broadcast over n^3 chain tensors that decided
    ISO_IFF_ISOTONE before the runner checked one candidate Q per (P, f)."""
    checked = 0
    for n in range(1, cap + 1):
        structs = list(enumerate_biposets(n))
        S = len(structs)
        rows = np.array([d.r1.rows + d.r2.rows for d in structs], dtype=np.int64).reshape(-1, 2, n)
        bits = ((rows[..., None] >> np.arange(n)) & 1).astype(bool)
        R1, R2 = bits[:, 0], bits[:, 1]
        ch = (R1[:, :, :, None] & R2[:, None, :, :]).reshape(S, n ** 3)
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
        any_v = np.logical_or.reduce(v_per_perm)
        if any_v.any():
            p, q = np.unravel_index(int(np.argmax(any_v)), any_v.shape)
            k = next(k for k, v in enumerate(v_per_perm) if v[p, q])
            f = Mapping(n, n, perms[k])
            iso, fwd, bwd = oracle._iso_sides(f, structs[p], structs[q])
            return Finding(
                claim="ISO_IFF_ISOTONE", scale=(n,), verdict=oracle.REFUTED,
                witness={"P": enumeration._ser_diamond(structs[p]),
                         "Q": enumeration._ser_diamond(structs[q]),
                         "f": oracle._ser_mapping(f), "is_isomorphism": iso,
                         "isotone": fwd, "inverse_isotone": bwd},
                instances_checked=checked)
    return Finding(claim="ISO_IFF_ISOTONE", scale=(cap,), verdict=oracle.VERIFIED,
                   instances_checked=checked)


def test_chain_broadcast_agrees_with_the_runner():
    for n in (1, 2, 3):
        assert verify_claim("ISO_IFF_ISOTONE", n) == chain_broadcast(n)


def test_orbit_walk_maps_each_representative_to_its_isomorphic_images():
    for n in (1, 2, 3):
        structs = list(enumerate_biposets(n))
        perms, orbits = enumeration._orbits(n)
        assert perms == tuple(itertools.permutations(range(n)))
        for p, images in orbits:
            assert len(images) == len(perms)
            for perm, q in zip(perms, images):
                assert structs[q].code == relabel(structs[p], perm).code
                assert sides(Mapping(n, n, perm), structs[p], structs[q]) == (True, True)


def test_orbit_representatives_are_the_least_index_over_all_relabellings():
    for n in (1, 2, 3):
        structs = list(enumerate_biposets(n))
        index = {d.code: s for s, d in enumerate(structs)}
        # the least index each structure reaches, relabelled through the public API
        least = [min(index[relabel(d, perm).code] for perm in itertools.permutations(range(n)))
                 for d in structs]
        orbits = enumeration._orbits(n)[1]
        assert [p for p, _ in orbits] == sorted(set(least))
        assert [len(set(images)) for _, images in orbits] == [least.count(p) for p, _ in orbits]
        assert all(least[s] == p for p, images in orbits for s in images)


def test_orbit_walk_at_n3_stays_within_its_working_set():
    # the walk holds the keys, one mark per structure and the orbits
    enumeration._structures(3)
    enumeration._orbits.cache_clear()
    (perms, orbits), peak = traced_peak(enumeration._orbits, 3)
    assert len(orbits) == 126
    assert peak < 128e3, f"_orbits(3) peaked at {peak / 1e3:.0f} kB traced"


def test_orbit_walk_at_n4_within_time_bound(structures4):
    structs, _ = structures4
    S = len(structs)
    enumeration._orbits.cache_clear()
    start = time.perf_counter()
    perms, orbits = enumeration._orbits(4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"_orbits(4) took {elapsed:.2f} s"
    # the identity comes first and fixes every representative
    assert perms[0] == (0, 1, 2, 3) and all(images[0] == p for p, images in orbits)
    # the orbits partition the structures
    assert sum(len(set(images)) for _, images in orbits) == S == 167655
    assert len(set().union(*(images for _, images in orbits))) == S
    # Burnside: the class count is the mean number of fixed structures, and
    # every member of an orbit has as many fixing perms as its representative
    fixed = sum(len(set(images)) * images.count(p) for p, images in orbits)
    assert len(orbits) == 7511 == fixed // 24 and fixed % 24 == 0
    rng = random.Random(4)
    for _ in range(300):
        (p, images), k = rng.choice(orbits), rng.randrange(24)
        assert structs[images[k]].code == relabel(structs[p], perms[k]).code


def iso_iff_image_iff_isotone(dP, dQ, perm):
    f = Mapping(dP.n, dQ.n, perm)
    iso, both_isotone = sides(f, dP, dQ)
    image = relabel(dP, perm).code == dQ.code
    return iso == image == both_isotone


def test_iso_holds_exactly_at_the_relabelled_image_up_to_n2():
    for n in (1, 2):
        structs = list(enumerate_biposets(n))
        for dP, dQ in itertools.product(structs, repeat=2):
            for perm in itertools.permutations(range(n)):
                assert iso_iff_image_iff_isotone(dP, dQ, perm)


def test_iso_holds_exactly_at_the_relabelled_image_on_sampled_n3():
    structs = list(enumerate_biposets(3))
    perms = list(itertools.permutations(range(3)))
    rng = random.Random(20221112)
    for _ in range(20_000):
        dP, dQ = rng.choice(structs), rng.choice(structs)
        assert iso_iff_image_iff_isotone(dP, dQ, rng.choice(perms))


def test_runner_reports_the_least_violation_and_refuses_a_wrong_table(monkeypatch):
    real = morphisms.is_isotone
    swap = Mapping(2, 2, (1, 0))
    monkeypatch.setattr(morphisms, "is_isotone",
                        lambda f, src, dst: f != swap and real(f, src, dst))
    found = verify_claim("ISO_IFF_ISOTONE", 3)
    # n = 1 holds; at n = 2 the first representative is the discrete
    # structure, which the swap maps onto itself, after the identity. Each
    # of its two cases decides 11 triples (orbit size 1 times 11 Q), so the
    # scan has counted 1 + 11 + 11 when it stops
    discrete = enumeration._ser_diamond(next(enumerate_biposets(2)))
    assert (found.verdict, found.scale, found.instances_checked) == (oracle.REFUTED, (2,), 23)
    assert found.notes == ("scan stopped at the first counterexample scale",)
    assert found.witness == {"P": discrete, "Q": discrete, "f": oracle._ser_mapping(swap),
                             "is_isomorphism": True, "isotone": False, "inverse_isotone": False}
    assert replay_finding(found)

    monkeypatch.setattr(morphisms, "is_isomorphism", lambda f, src, dst: False)
    monkeypatch.setattr(morphisms, "is_isotone", lambda f, src, dst: False)
    with pytest.raises(RuntimeError, match="not an isomorphic image"):
        verify_claim("ISO_IFF_ISOTONE", 1)
