import dataclasses

import numpy as np
import pytest

from biposet import (
    CLAIM_DESCRIPTIONS,
    CLAIM_IDS,
    GOLDEN_COUNTS,
    UsageError,
    check_axioms,
    duality_sample,
    enumerate_biposets,
    naive_check_axioms,
    naive_check_classical,
    check_classical_por,
    replay_finding,
    validity_kernel,
    verify_claim,
)
from biposet.core import Diamond, Rel

from conftest import all_diamonds

N2_CODES = [
    (9, 9), (9, 11), (9, 13), (9, 15), (11, 9), (11, 11),
    (11, 13), (13, 9), (13, 11), (13, 13), (15, 9),
]


# enumeration

def test_golden_counts():
    assert GOLDEN_COUNTS == {1: 1, 2: 11, 3: 653}
    for n, want in GOLDEN_COUNTS.items():
        assert sum(1 for _ in enumerate_biposets(n)) == want


def test_enumeration_codes_at_n2():
    got = [d.code for d in enumerate_biposets(2)]
    assert got == N2_CODES
    assert got == sorted(got)


def test_enumeration_matches_direct_filter_at_n2():
    want = [d.code for d in all_diamonds(2) if naive_check_axioms(d).ok]
    assert [d.code for d in enumerate_biposets(2)] == sorted(want)


def test_enumeration_bounds():
    with pytest.raises(UsageError):
        list(enumerate_biposets(0))
    with pytest.raises(UsageError):
        list(enumerate_biposets(5))


def test_enumeration_is_reproducible():
    first = [d.code for d in enumerate_biposets(3)]
    second = [d.code for d in enumerate_biposets(3)]
    assert first == second


# checker agreement

def test_validity_kernel_matches_checker_at_n2():
    ds = list(all_diamonds(2))
    R1 = np.array([[[d.r1.has(i, j) for j in range(2)] for i in range(2)] for d in ds])
    R2 = np.array([[[d.r2.has(i, j) for j in range(2)] for i in range(2)] for d in ds])
    got = validity_kernel(R1, R2)
    want = np.array([check_axioms(d).ok for d in ds])
    assert np.array_equal(got, want)


def test_validity_kernel_matches_checker_on_random_n4():
    rng = np.random.default_rng(42)
    R1 = rng.integers(0, 2, size=(500, 4, 4), dtype=np.uint8).astype(bool)
    R2 = rng.integers(0, 2, size=(500, 4, 4), dtype=np.uint8).astype(bool)
    got = validity_kernel(R1, R2)
    for b in range(500):
        d = Diamond(
            Rel.from_pairs(4, [(i, j) for i in range(4) for j in range(4) if R1[b, i, j]]),
            Rel.from_pairs(4, [(i, j) for i in range(4) for j in range(4) if R2[b, i, j]]),
        )
        assert got[b] == check_axioms(d).ok


def test_naive_classical_agrees_on_random_n4():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = tuple(int(v) for v in rng.integers(0, 16, size=4))
        r = Rel(4, rows)
        assert naive_check_classical(r) == check_classical_por(r)


# claim registry

def test_claim_registry_shape():
    assert len(CLAIM_IDS) == 15
    assert set(CLAIM_DESCRIPTIONS) == set(CLAIM_IDS)
    assert all(CLAIM_DESCRIPTIONS[c] for c in CLAIM_IDS)


def test_verify_claim_guards():
    with pytest.raises(UsageError):
        verify_claim("NOT_A_CLAIM", 2)
    with pytest.raises(UsageError):
        verify_claim("DUALITY_PRINCIPLE", 0)
    with pytest.raises(UsageError):
        verify_claim("DUALITY_PRINCIPLE", 5)


def test_intersect_closure_exhaustive_and_sampled():
    f = verify_claim("INTERSECT_CLOSURE", 2)
    assert f.verified and f.witness is None
    assert f.instances_checked == 122
    assert f.seed is None and f.budget is None
    g = verify_claim("INTERSECT_CLOSURE", 3, budget=2000, seed=7)
    assert g.verified
    assert g.instances_checked == 2122
    assert g.seed == 7 and g.budget == 2000
    assert g.notes[-1] == "n=3: 1000 sampled pairs and 1000 sampled triples"


def test_unique_extremes_verified():
    for claim in ("UNIQUE_GMAX", "UNIQUE_GMIN", "UNIQUE_LMAX", "UNIQUE_LMIN"):
        f = verify_claim(claim, 2)
        assert f.verified
        assert f.scale == (2,)
        assert f.instances_checked == 12


def test_powerset_claims_verified():
    for claim in ("POWERSET_VALID", "POWERSET_SELF_DUAL"):
        f = verify_claim(claim, 2)
        assert f.verified
        assert f.instances_checked == 3


def test_double_dual_verified():
    f = verify_claim("DOUBLE_DUAL", 3)
    assert f.verified
    assert f.instances_checked == 665


def test_iso_iff_isotone_verified():
    f = verify_claim("ISO_IFF_ISOTONE", 2)
    assert f.verified
    assert f.instances_checked == 243


def test_duality_verified_at_n2_refuted_at_n3():
    small = verify_claim("DUALITY_PRINCIPLE", 2)
    assert small.verified
    assert small.instances_checked == 12
    f = verify_claim("DUALITY_PRINCIPLE", 3)
    assert f.verdict == "counterexample"
    assert not f.verified
    assert f.scale == (3,)
    assert f.instances_checked == 149
    assert f.witness["failed"] == {
        "axiom": "transitive",
        "witness": (2, 0, 0, 1, 0),
        "detail": "first",
    }
    assert replay_finding(f)


def test_thm11_forward_counterexample():
    f = verify_claim("GALOIS_THM11_FWD", 2)
    assert f.verdict == "counterexample"
    assert f.scale == (2, 2)
    assert f.instances_checked == 1981
    flags = f.witness["flags"]
    assert flags["is_galois"] and not flags["g_isotone"]
    assert flags["f_isotone"] and flags["unit_holds"] and flags["counit_holds"]
    assert f.witness["f"] == "e0 -> e0\ne1 -> e1\n"
    assert replay_finding(f)
    tiny = verify_claim("GALOIS_THM11_FWD", 1)
    assert tiny.verified and tiny.instances_checked == 1


def test_thm11_witness_does_not_alias_the_sweep_cache():
    first = verify_claim("GALOIS_THM11_FWD", 2)
    first.witness["flags"]["is_galois"] = False
    first.witness["flags"]["extra"] = True
    again = verify_claim("GALOIS_THM11_FWD", 2)
    assert again.witness["flags"] == {
        "f_isotone": True, "g_isotone": False, "unit_holds": True,
        "counit_holds": True, "is_galois": True,
    }
    assert replay_finding(again)

def test_thm11_backward_verified():
    f = verify_claim("GALOIS_THM11_BWD", 2)
    assert f.verified
    assert f.instances_checked == 1981
    assert "galois pairs seen: 175" in f.notes


def test_adjoint_unique_verified():
    f = verify_claim("ADJOINT_UNIQUE", 2)
    assert f.verified
    assert f.instances_checked == 1036
    assert "galois pairs seen: 175" in f.notes


def test_compose_verified():
    f = verify_claim("GALOIS_COMPOSE", 2)
    assert f.verified
    assert f.scale == (2, 2, 2)
    assert f.instances_checked == 2975


def test_asymmetry_exhibit():
    f = verify_claim("GALOIS_ASYMMETRY", 2)
    assert f.verified
    assert f.scale == (2, 1)
    assert f.witness is not None
    assert f.witness["swapped_violation"] == (0, 0)
    assert replay_finding(f)


def test_findings_are_deterministic():
    assert verify_claim("DUALITY_PRINCIPLE", 3) == verify_claim("DUALITY_PRINCIPLE", 3)
    assert verify_claim("GALOIS_THM11_FWD", 2) == verify_claim("GALOIS_THM11_FWD", 2)


def test_replay_detects_tampering():
    f = verify_claim("DUALITY_PRINCIPLE", 3)
    tampered = dataclasses.replace(
        f, witness={**f.witness, "structure": f.witness["dual"]})
    assert replay_finding(f)
    assert not replay_finding(tampered)


def test_replay_of_verified_finding_is_vacuous():
    f = verify_claim("DOUBLE_DUAL", 2)
    assert f.witness is None
    assert replay_finding(f)


# sampling

def test_duality_sample_frozen():
    got = duality_sample(4, 50_000, 0)
    assert got["valid"] == 501
    assert got["dual_invalid"] == 113
    assert got["first"]["failed"] == {
        "axiom": "transitive",
        "witness": (1, 2, 2, 0, 2),
        "detail": "first",
    }


def test_duality_sample_deterministic():
    assert duality_sample(4, 20_000, 3) == duality_sample(4, 20_000, 3)


def test_duality_sample_guards():
    with pytest.raises(UsageError):
        duality_sample(1, 10, 0)
    with pytest.raises(UsageError):
        duality_sample(5, 10, 0)
