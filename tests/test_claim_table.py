"""The claim table: frozen Findings, the swept-scale note, replayers and hunt."""

import dataclasses
import hashlib

import pytest

from biposet import (
    CLAIM_IDS,
    Finding,
    UsageError,
    enumerate_biposets,
    replay_finding,
    verify_claim,
)
from biposet import oracle
from biposet.galois import GaloisPair, check_adjoint_properties, is_galois
from biposet.io_cli import main
from biposet.morphisms import Mapping

V, R = "verified-at-scale", "counterexample"

N1 = "n=1: exhaustive over 1^2 ordered pairs"
N2 = "n=2: exhaustive over 11^2 ordered pairs"
N3 = "n=3: 10000 sampled pairs and 10000 sampled triples"
EXHIBIT = "existence claim: the witness is the exhibiting pair"
FWD_WITNESS = "49b09757647873a0"
EXHIBIT_WITNESS = "135b42e41fe066e9"

# (claim, n_max) -> verdict, scale, instances_checked, seed, budget, notes and
# the first 16 hex digits of sha256(repr(witness)), None without a witness.
# Every row is the Finding of the seed code, except that GALOIS_COMPOSE at
# n_max = 3 says that it stops at scale 2, and that GALOIS_ASYMMETRY at
# n_max = 1 no longer reports its (2, 1) exhibit: every pair at (1, 1)
# survives swapping.
FROZEN = {
    ("INTERSECT_CLOSURE", 1): (V, (1,), 1, None, None, (N1,), None),
    ("INTERSECT_CLOSURE", 2): (V, (2,), 122, None, None, (N1, N2), None),
    ("INTERSECT_CLOSURE", 3): (V, (3,), 20122, 0, 20000, (N1, N2, N3), None),
    **{(c, n): (V, (n,), count, None, None, (), None)
       for c in ("UNIQUE_GMAX", "UNIQUE_GMIN", "UNIQUE_LMAX", "UNIQUE_LMIN", "DOUBLE_DUAL")
       for n, count in ((1, 1), (2, 12), (3, 665))},
    **{(c, n): (V, (n,), n + 1, None, None, (), None)
       for c in ("POWERSET_VALID", "POWERSET_SELF_DUAL") for n in (1, 2, 3)},
    ("ISO_IFF_ISOTONE", 1): (V, (1,), 1, None, None, (), None),
    ("ISO_IFF_ISOTONE", 2): (V, (2,), 243, None, None, (), None),
    ("ISO_IFF_ISOTONE", 3): (V, (3,), 2558697, None, None, (), None),
    ("DUALITY_PRINCIPLE", 1): (V, (1,), 1, None, None, (), None),
    ("DUALITY_PRINCIPLE", 2): (V, (2,), 12, None, None, (), None),
    ("DUALITY_PRINCIPLE", 3): (R, (3,), 149, None, None,
                               ("scan stopped at the first counterexample scale",),
                               "40d7a162a2ab31cb"),
    ("GALOIS_THM11_FWD", 1): (V, (1, 1), 1, None, None, ("galois pairs seen: 1",), None),
    ("GALOIS_THM11_FWD", 2): (R, (2, 2), 1981, None, None, (), FWD_WITNESS),
    ("GALOIS_THM11_FWD", 3): (R, (2, 2), 311892412, None, None, (), FWD_WITNESS),
    ("GALOIS_THM11_BWD", 1): (V, (1, 1), 1, None, None, ("galois pairs seen: 1",), None),
    ("GALOIS_THM11_BWD", 2): (V, (2, 2), 1981, None, None, ("galois pairs seen: 175",), None),
    ("GALOIS_THM11_BWD", 3): (V, (3, 3), 311892412, None, None,
                              ("galois pairs seen: 1159492",), None),
    ("GALOIS_COMPOSE", 1): (V, (1, 1, 1), 1, None, None, (), None),
    ("GALOIS_COMPOSE", 2): (V, (2, 2, 2), 2975, None, None, (), None),
    ("GALOIS_COMPOSE", 3): (V, (2, 2, 2), 2975, None, None,
                            ("scales above 2 are not swept",), None),
    ("ADJOINT_UNIQUE", 1): (V, (1, 1), 2, None, None, ("galois pairs seen: 1",), None),
    ("ADJOINT_UNIQUE", 2): (V, (2, 2), 1036, None, None, ("galois pairs seen: 175",), None),
    ("ADJOINT_UNIQUE", 3): (V, (3, 3), 23276568, None, None,
                            ("galois pairs seen: 1159492",), None),
    ("GALOIS_ASYMMETRY", 1): (R, (1, 1), 1, None, None,
                              ("every Galois pair at this scale stays Galois when swapped",),
                              None),
    **{("GALOIS_ASYMMETRY", n): (V, (2, 1), 1, None, None, (EXHIBIT,), EXHIBIT_WITNESS)
       for n in (2, 3)},
}


def _digest(witness):
    return None if witness is None else hashlib.sha256(repr(witness).encode()).hexdigest()[:16]


def test_every_row_but_the_four_bespoke_ones_is_built_by_scanned():
    # a scanned row runs _scan, or the existence claim's wrapper of it, on
    # its cases and test, and replays through _scanned's closure
    probe = oracle._scanned("", 1, None, None, None)
    bespoke = {"INTERSECT_CLOSURE", "GALOIS_THM11_FWD", "GALOIS_THM11_BWD", "ADJOINT_UNIQUE"}
    for claim, row in oracle._CLAIMS.items():
        scanned = (getattr(row.replay, "__code__", None) is probe.replay.__code__
                   and getattr(row.run, "func", None) in (oracle._scan, oracle._claim_asymmetry)
                   and len(row.run.args) == 2)
        assert scanned == (claim not in bespoke), claim


def test_frozen_table_covers_every_claim_at_n_1_to_3():
    assert sorted(FROZEN) == sorted((c, n) for c in CLAIM_IDS for n in (1, 2, 3))


@pytest.mark.parametrize("claim,n", sorted(FROZEN))
def test_findings_at_n_le_3_are_frozen_and_replay(claim, n):
    f = verify_claim(claim, n)
    got = (f.verdict, f.scale, f.instances_checked, f.seed, f.budget, f.notes,
           _digest(f.witness))
    assert (f.claim, got) == (claim, FROZEN[claim, n])
    assert replay_finding(f)


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_at_n4_every_claim_reaches_4_carries_a_witness_or_says_where_it_stopped(claim):
    f = verify_claim(claim, 4)
    assert 4 in f.scale or f.witness is not None or (
        f.notes[-1] == f"scales above {max(f.scale)} are not swept")
    # against n_max = 3 only the powerset scale and the note's place differ
    small = verify_claim(claim, 3)
    if claim in ("POWERSET_VALID", "POWERSET_SELF_DUAL"):
        assert f == dataclasses.replace(small, scale=(4,), instances_checked=5)
        return
    kept = tuple(n for n in small.notes if not n.startswith("scales above"))
    note = () if f.witness else (f"scales above {max(small.scale)} are not swept",)
    assert f == dataclasses.replace(small, notes=kept + note)


# replayers on witnesses where the recorded phenomenon does not occur

def _identity_witness(d, *names):
    text = oracle._ser_diamond(d)
    ident = oracle._ser_mapping(Mapping.identity(d.n))
    return {name: (text if name in "PQR" else ident) for name in names}


def _harmless_witnesses(claim, d):
    """Witnesses built from the valid structure d that must not replay."""
    text = oracle._ser_diamond(d)
    if claim == "INTERSECT_CLOSURE":
        return [{"inputs": (text, text)}]
    if claim in ("POWERSET_VALID", "POWERSET_SELF_DUAL"):
        comp = Mapping(4, 4, (3, 2, 1, 0))
        return [{"k": 2, "mapping": oracle._ser_mapping(comp)}]
    if claim == "ADJOINT_UNIQUE":
        return [dict(_identity_witness(d, "P", "Q", "f"), side=side)
                for side in ("right", "left")]
    if claim == "GALOIS_COMPOSE":
        return [_identity_witness(d, "P", "Q", "R", "first_f", "first_g",
                                  "second_f", "second_g")]
    if claim in ("ISO_IFF_ISOTONE", "GALOIS_THM11_FWD", "GALOIS_THM11_BWD",
                 "GALOIS_ASYMMETRY"):
        return [_identity_witness(d, "P", "Q", "f", "g")]
    return [{"structure": text}]


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_every_replayer_rejects_a_witness_built_from_valid_structures(claim):
    for n in (1, 2):
        for d in enumerate_biposets(n):
            for wit in _harmless_witnesses(claim, d):
                assert replay_finding(Finding(claim, (n,), R, witness=wit)) is False, wit


def test_identity_pairs_are_galois_both_ways():
    # the harmless THM11 and asymmetry witnesses really are Galois pairs
    for d in enumerate_biposets(2):
        P = oracle._generic_bp(d)
        pair = GaloisPair(Mapping.identity(2), Mapping.identity(2))
        assert is_galois(pair, P, P)
        assert check_adjoint_properties(pair, P, P).all_hold


def test_replay_of_an_unknown_claim_is_a_usage_error():
    f = verify_claim("DUALITY_PRINCIPLE", 3)
    with pytest.raises(UsageError, match="unknown claim"):
        replay_finding(dataclasses.replace(f, claim="NOT_A_CLAIM"))
    with pytest.raises(UsageError, match="unknown claim"):
        replay_finding(Finding("NOT_A_CLAIM", (1,), V))


def test_ground_sets_are_shared_by_size():
    assert oracle._ground(3) is oracle._ground(3)
    assert oracle._ground(3).labels == ("e0", "e1", "e2")


# hunt repeats the scale note on stderr; stdout and the exit code are unchanged

def test_hunt_repeats_the_scale_note_on_stderr(capsys):
    assert main(["hunt", "UNIQUE_GMAX", "--n", "4"]) == 0
    got = capsys.readouterr()
    assert got.out == ("claim: UNIQUE_GMAX\nverdict: verified-at-scale\nscale: 3\n"
                       "instances checked: 665\nnote: scales above 3 are not swept\n")
    assert got.err == "note: scales above 3 are not swept\n"


def test_hunt_within_the_swept_scale_leaves_stderr_empty(capsys):
    assert main(["hunt", "DOUBLE_DUAL", "--n", "3"]) == 0
    got = capsys.readouterr()
    assert "instances checked: 665\n" in got.out
    assert got.err == ""


# a budget only a sampled claim can use is reported, not silently dropped

def test_a_budget_given_to_an_exhaustive_claim_is_noted_as_unused(capsys):
    plain = verify_claim("UNIQUE_GMAX", 3)
    given = verify_claim("UNIQUE_GMAX", 3, budget=5)
    assert given == dataclasses.replace(
        plain, notes=("budget 5 unused: UNIQUE_GMAX is exhaustive",))
    # the swept-scale note stays last
    capped = verify_claim("GALOIS_THM11_BWD", 4, budget=7)
    assert capped.budget is None
    assert capped.notes[-2:] == ("budget 7 unused: GALOIS_THM11_BWD is exhaustive",
                                 "scales above 3 are not swept")
    # a sampled claim uses it and carries no such note
    sampled = verify_claim("INTERSECT_CLOSURE", 3, budget=5)
    assert sampled.budget == 5 and not any("unused" in n for n in sampled.notes)

    assert main(["hunt", "UNIQUE_GMAX", "--n", "3", "--budget", "5"]) == 0
    got = capsys.readouterr()
    assert got.out == ("claim: UNIQUE_GMAX\nverdict: verified-at-scale\nscale: 3\n"
                       "instances checked: 665\n"
                       "note: budget 5 unused: UNIQUE_GMAX is exhaustive\n")
    assert got.err == ""


def test_a_seed_given_to_an_exhaustive_claim_is_noted_as_unused(capsys):
    plain = verify_claim("UNIQUE_GMAX", 3)
    assert verify_claim("UNIQUE_GMAX", 3, seed=5) == dataclasses.replace(
        plain, notes=("seed 5 unused: UNIQUE_GMAX is exhaustive",))
    # INTERSECT_CLOSURE is exhaustive below n = 3, so it uses neither
    small = verify_claim("INTERSECT_CLOSURE", 2, budget=5, seed=9)
    assert (small.seed, small.budget) == (None, None)
    assert small.notes[-2:] == ("budget 5 unused: INTERSECT_CLOSURE is exhaustive",
                                "seed 9 unused: INTERSECT_CLOSURE is exhaustive")
    # budget note, then seed note; the swept-scale note stays last
    capped = verify_claim("UNIQUE_GMAX", 4, budget=3, seed=5)
    assert capped.notes == ("budget 3 unused: UNIQUE_GMAX is exhaustive",
                            "seed 5 unused: UNIQUE_GMAX is exhaustive",
                            "scales above 3 are not swept")
    # the sampler records seed 0 when none is given, the same draws as seed=0
    sampled = verify_claim("INTERSECT_CLOSURE", 3)
    assert sampled.seed == 0 and sampled == verify_claim("INTERSECT_CLOSURE", 3, seed=0)
    assert not any("unused" in n for n in sampled.notes)

    assert main(["hunt", "UNIQUE_GMAX", "--n", "3", "--seed", "5"]) == 0
    got = capsys.readouterr()
    assert got.out == ("claim: UNIQUE_GMAX\nverdict: verified-at-scale\nscale: 3\n"
                       "instances checked: 665\n"
                       "note: seed 5 unused: UNIQUE_GMAX is exhaustive\n")
    assert got.err == ""
    assert main(["hunt", "INTERSECT_CLOSURE", "--n", "3"]) == 0
    assert "seed: 0\n" in capsys.readouterr().out
