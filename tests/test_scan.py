"""Scanned claim rows: the refutation path of each under a patched API call,
and the budget guard of the sampled duality sweep."""

import itertools

import pytest

from biposet import UsageError, duality_sample, replay_finding, verify_claim
from biposet import oracle
from biposet.core import Check, Diamond, Rel

FAILED = Check(False, (0, 0), "patched")
STOPPED = ("scan stopped at the first counterexample scale",)


def _empty(d):
    return Diamond(Rel(d.n, (0,) * d.n), Rel(d.n, (0,) * d.n))


def _refuse(k):
    raise UsageError("patched")


# (claim, the API name its test calls, the patch, the first instance's scale, notes)
SCANNED = [
    *[(c, "two_sided_values", lambda *a: {0, 1}, (1,), STOPPED)
      for c in ("UNIQUE_GMAX", "UNIQUE_GMIN", "UNIQUE_LMAX", "UNIQUE_LMIN")],
    ("POWERSET_VALID", "powerset_biposet", _refuse, (0,), STOPPED),
    ("POWERSET_SELF_DUAL", "is_isomorphism", lambda *a: FAILED, (0,), STOPPED),
    ("DUALITY_PRINCIPLE", "dual", _empty, (1,), STOPPED),
    ("DOUBLE_DUAL", "dual", _empty, (1,), STOPPED),
    ("GALOIS_COMPOSE", "is_galois", lambda *a: FAILED, (1, 1, 1), STOPPED),
]


@pytest.mark.parametrize("claim,name,patch,scale,notes", SCANNED,
                         ids=[row[0] for row in SCANNED])
def test_first_instance_refutes_under_a_patched_api_and_replays_only_under_it(
        monkeypatch, claim, name, patch, scale, notes):
    monkeypatch.setattr(oracle, name, patch)
    f = verify_claim(claim, 3)
    assert (f.verdict, f.scale, f.instances_checked, f.notes) == (
        "counterexample", scale, 1, notes)
    assert replay_finding(f)
    monkeypatch.undo()
    assert not replay_finding(f)


def test_asymmetry_hunt_hit_is_the_exhibit(monkeypatch):
    # at n_max = 1 the canned (2, 1) exhibit is above the cap, so the hunt
    # runs; its test asks about the swapped pair first, which the patch
    # refuses, and then about the pair itself, which it accepts
    calls = itertools.count()
    monkeypatch.setattr(oracle, "is_galois",
                        lambda *a: Check(True) if next(calls) % 2 else FAILED)
    f = verify_claim("GALOIS_ASYMMETRY", 1)
    assert (f.verdict, f.scale, f.instances_checked) == ("verified-at-scale", (1, 1), 1)
    assert f.notes == ("existence claim: the witness is the exhibiting pair",)
    assert f.witness["swapped_violation"] == (0, 0)
    assert replay_finding(f)
    monkeypatch.undo()
    assert not replay_finding(f)
    assert verify_claim("GALOIS_ASYMMETRY", 1).verdict == "counterexample"


@pytest.mark.parametrize("budget", [0, -1])
def test_duality_sample_refuses_a_budget_below_one(budget):
    with pytest.raises(UsageError, match="budget must be at least 1"):
        duality_sample(4, budget)
