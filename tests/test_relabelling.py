"""ISO_IFF_ISOTONE by construction: the relabelling table, the argument its
weighted cases rest on, and the S^2 x n! chain broadcast as its slow
reference."""

import itertools
import random

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
from biposet import oracle

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
                witness={"P": oracle._ser_diamond(structs[p]), "Q": oracle._ser_diamond(structs[q]),
                         "f": oracle._ser_mapping(f), "is_isomorphism": iso,
                         "isotone": fwd, "inverse_isotone": bwd},
                instances_checked=checked)
    return Finding(claim="ISO_IFF_ISOTONE", scale=(cap,), verdict=oracle.VERIFIED,
                   instances_checked=checked)


def test_chain_broadcast_agrees_with_the_runner():
    for n in (1, 2, 3):
        assert verify_claim("ISO_IFF_ISOTONE", n) == chain_broadcast(n)


def test_relabelling_table_maps_each_structure_to_its_isomorphic_image():
    for n in (1, 2, 3):
        structs = list(enumerate_biposets(n))
        perms, image = oracle._relabelling(n)
        assert sorted(perms) == sorted(itertools.permutations(range(n)))
        assert image.shape == (len(perms), len(structs))
        for k, perm in enumerate(perms):
            f = Mapping(n, n, perm)
            for s, d in enumerate(structs):
                moved = structs[image[k, s]]
                assert moved.code == relabel(d, perm).code
                assert sides(f, d, moved) == (True, True)


def test_iso_classes_are_the_least_index_over_the_table():
    for n in (1, 2, 3):
        cls, reps, weights = oracle._iso_classes(n)
        least = oracle._relabelling(n)[1].min(axis=0)
        assert list(reps[cls]) == list(least)
        assert sorted(set(least)) == list(reps)
        assert list(weights) == [list(least).count(r) for r in reps]


def test_relabelling_at_n4_within_its_memory_budget(structures4):
    structs, _ = structures4
    S = len(structs)
    oracle._relabelling.cache_clear()
    (perms, image), peak = traced_peak(oracle._relabelling, 4)
    assert peak < 30e6, f"_relabelling(4) peaked at {peak / 1e6:.1f} MB traced"
    assert image.shape == (24, S)
    # the identity comes first, and every perm moves the structures bijectively
    assert perms[0] == (0, 1, 2, 3) and np.array_equal(image[0], np.arange(S))
    assert all(np.array_equal(np.sort(row), np.arange(S)) for row in image)
    rng = random.Random(4)
    for _ in range(300):
        k, s = rng.randrange(24), rng.randrange(S)
        assert structs[image[k, s]].code == relabel(structs[s], perms[k]).code
    # Burnside: the class count is the mean number of fixed structures
    cls, reps, weights = oracle._iso_classes(4)
    assert len(reps) == 7511 == (image == np.arange(S)).sum() // 24
    assert weights.sum() == S and np.array_equal(reps[cls], image.min(axis=0))


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
    real = oracle.is_isotone
    swap = Mapping(2, 2, (1, 0))
    monkeypatch.setattr(oracle, "is_isotone", lambda f, src, dst: f != swap and real(f, src, dst))
    found = verify_claim("ISO_IFF_ISOTONE", 3)
    # n = 1 holds; at n = 2 the first representative is the discrete
    # structure, which the swap maps onto itself, after the identity. Each
    # of its two cases decides 11 triples (orbit size 1 times 11 Q), so the
    # scan has counted 1 + 11 + 11 when it stops
    discrete = oracle._ser_diamond(next(enumerate_biposets(2)))
    assert (found.verdict, found.scale, found.instances_checked) == (oracle.REFUTED, (2,), 23)
    assert found.notes == ("scan stopped at the first counterexample scale",)
    assert found.witness == {"P": discrete, "Q": discrete, "f": oracle._ser_mapping(swap),
                             "is_isomorphism": True, "isotone": False, "inverse_isotone": False}
    assert replay_finding(found)

    monkeypatch.setattr(oracle, "is_isomorphism", lambda f, src, dst: False)
    monkeypatch.setattr(oracle, "is_isotone", lambda f, src, dst: False)
    with pytest.raises(RuntimeError, match="not an isomorphic image"):
        verify_claim("ISO_IFF_ISOTONE", 1)
