"""Scanned claim rows: the refutation path of each under a patched API call,
the weights of their cases, ISO_IFF_ISOTONE's case order and relabelling
guard, and the budget guard of the sampled duality sweep."""

import itertools

import pytest

from biposet import Finding, Mapping, UsageError, duality_sample, replay_finding, verify_claim
from biposet import enumeration, galois, morphisms, oracle
from biposet.core import Check, Diamond, Rel

FAILED = Check(False, (0, 0), "patched")
STOPPED = ("scan stopped at the first counterexample scale",)


def _empty(d):
    return Diamond(Rel(d.n, (0,) * d.n), Rel(d.n, (0,) * d.n))


def _refuse(k):
    raise UsageError("patched")


# (claim, the API name its test calls, as module.name where the test looks it
# up, the patch, the first instance's scale, notes)
SCANNED = [
    *[(c, "extremal.two_sided_values", lambda *a: {0, 1}, (1,), STOPPED)
      for c in ("UNIQUE_GMAX", "UNIQUE_GMIN", "UNIQUE_LMAX", "UNIQUE_LMIN")],
    ("POWERSET_VALID", "oracle.powerset_biposet", _refuse, (0,), STOPPED),
    ("POWERSET_SELF_DUAL", "morphisms.is_isomorphism", lambda *a: FAILED, (0,), STOPPED),
    ("DUALITY_PRINCIPLE", "oracle.dual", _empty, (1,), STOPPED),
    ("DOUBLE_DUAL", "oracle.dual", _empty, (1,), STOPPED),
    ("GALOIS_COMPOSE", "galois.is_galois", lambda *a: FAILED, (1, 1, 1), STOPPED),
    # the first case is the identity on the one structure at n = 1, weight 1 * 1
    ("ISO_IFF_ISOTONE", "morphisms.is_isotone", lambda *a: FAILED, (1,), STOPPED),
]


@pytest.mark.parametrize("claim,name,patch,scale,notes", SCANNED,
                         ids=[row[0] for row in SCANNED])
def test_first_instance_refutes_under_a_patched_api_and_replays_only_under_it(
        monkeypatch, claim, name, patch, scale, notes):
    monkeypatch.setattr(f"biposet.{name}", patch)
    f = verify_claim(claim, 3)
    assert (f.verdict, f.scale, f.instances_checked, f.notes) == (
        "counterexample", scale, 1, notes)
    assert replay_finding(f)
    monkeypatch.undo()
    assert not replay_finding(f)


# the cases generator of every row built by _scanned, whose replayer is its closure
_PROBE = oracle._scanned("", 1, None, None, None).replay.__code__
CASES = {claim: row.run.args[0] for claim, row in oracle._CLAIMS.items()
         if getattr(row.replay, "__code__", None) is _PROBE}


@pytest.mark.parametrize("claim", list(CASES))
def test_case_weights_add_up_to_the_instances_of_a_whole_scan(claim):
    # a Finding without a witness scanned every case up to its cap
    whole = 0
    for n in (1, 2, 3):
        f = verify_claim(claim, n)
        if f.witness is None:
            weights = [w for _, _, w in CASES[claim](max(f.scale))]
            assert {type(w) for w in weights} == {int}
            assert sum(weights) == f.instances_checked
            whole += 1
    assert whole


def test_iso_cases_walk_the_representatives_each_by_q_index_then_perm():
    for n in (1, 2, 3):
        structs = enumeration._structures(n)
        index = {d: i for i, d in enumerate(structs)}
        perms, orbits = enumeration._orbits(n)
        got = [(index[dP], index[dQ], perms.index(f.img))
               for scale, (f, dP, dQ), _ in oracle._iso_cases(n) if scale == (n,)]
        assert got == sorted(got) and len(set(got)) == len(got)
        reps = [p for p, _ in orbits]
        assert [p for p, _, _ in got] == [p for p in reps for _ in perms]


def _iso_witness(dP, dQ, f):
    return {"P": enumeration._ser_diamond(dP), "Q": enumeration._ser_diamond(dQ),
            "f": oracle._ser_mapping(f)}


def test_iso_relabelling_guard_raises_only_where_q_is_f_of_p(monkeypatch):
    structs = enumeration._structures(2)
    discrete, other = structs[0], structs[-1]     # the discrete orbit is {discrete}
    swap = Mapping(2, 2, (1, 0))
    elsewhere = Finding("ISO_IFF_ISOTONE", (2,), "counterexample",
                        witness=_iso_witness(discrete, other, swap))
    image = Finding("ISO_IFF_ISOTONE", (2,), "counterexample",
                    witness=_iso_witness(discrete, discrete, swap))
    assert not replay_finding(elsewhere) and not replay_finding(image)
    # with both sides refused, Q != f(P) is still no violation, and Q = f(P)
    # contradicts the orbit walk
    monkeypatch.setattr(morphisms, "is_isomorphism", lambda *a: FAILED)
    monkeypatch.setattr(morphisms, "is_isotone", lambda *a: FAILED)
    assert replay_finding(elsewhere) is False
    with pytest.raises(RuntimeError, match="not an isomorphic image"):
        replay_finding(image)


def test_iso_witness_whose_f_is_no_bijection_replays_false():
    # the claim speaks of bijections only: an f that is none, onto a
    # structure of the same size or a smaller one, is no violation
    discrete = enumeration._structures(2)[0]
    for dQ, f in ((discrete, Mapping(2, 2, (0, 0))),
                  (enumeration._structures(1)[0], Mapping(2, 1, (0, 0)))):
        wit = _iso_witness(discrete, dQ, f)
        finding = Finding("ISO_IFF_ISOTONE", (2,), "counterexample", witness=wit)
        assert replay_finding(finding) is False


def test_asymmetry_hunt_hit_is_the_exhibit(monkeypatch):
    # at n_max = 1 the canned (2, 1) exhibit is above the cap, so the hunt
    # runs; its test asks about the swapped pair first, which the patch
    # refuses, and then about the pair itself, which it accepts
    calls = itertools.count()
    monkeypatch.setattr(galois, "is_galois",
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
