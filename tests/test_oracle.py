import dataclasses
import itertools
import random
import sys

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
    divisibility_biposet,
    dual,
    intersect_many,
    parse_structure,
    powerset_biposet,
    replay_finding,
    validity_kernel,
    verify_claim,
)
from biposet import axioms, enumeration, oracle, oracle_galois
from biposet.core import Diamond, Rel
from biposet.enumeration import MAX_BUDGET

from conftest import all_diamonds, all_reflexive_diamonds, bool_arrays, row_cells

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


def test_enumeration_matches_direct_filter_at_n3():
    # every reflexive candidate through the direct-quantifier checker; the
    # enumeration decides with the bit-plane kernel and must keep (code1, code2) order
    want = [d.code for d in all_reflexive_diamonds(3) if naive_check_axioms(d).ok]
    assert len(want) == 653
    assert [d.code for d in enumerate_biposets(3)] == sorted(want)


def _brute_preorder_count(n):
    # every n x n relation, reflexive and transitive by the plain definitions
    count = 0
    for bits in itertools.product((False, True), repeat=n * n):
        r = [bits[i * n:(i + 1) * n] for i in range(n)]
        count += (all(r[a][a] for a in range(n))
                  and all(r[a][c] for a in range(n) for b in range(n) for c in range(n)
                          if r[a][b] and r[b][c]))
    return count


def test_r2_of_a_valid_structure_is_a_preorder():
    want = {1: 1, 2: 4, 3: 29, 4: 355}
    for n, count in want.items():
        codes = enumeration._preorder_codes(n)
        assert len(codes) == count == _brute_preorder_count(n)
        assert list(codes) == sorted(codes)
        pre = {enumeration._rel_from_offcode(n, c) for c in codes}
        assert all(naive_check_classical(r).transitive.ok for r in pre)
        if n <= 3:      # the lemma: every valid structure's r2 is one of them
            assert all(d.r2 in pre for d in all_reflexive_diamonds(n) if check_axioms(d).ok)


def test_enumeration_bounds():
    # refused when called, before the first structure is asked for
    with pytest.raises(UsageError):
        enumerate_biposets(0)
    with pytest.raises(UsageError):
        enumerate_biposets(5)


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


@pytest.mark.parametrize("size", [True, False, 2.5, 2.0, "2", None])
def test_a_size_that_is_not_an_int_is_a_usage_error(size):
    # a bool is an int to Python, so True would otherwise run as n = 1
    for call in (lambda: verify_claim("DOUBLE_DUAL", size), lambda: enumerate_biposets(size),
                 lambda: duality_sample(size, 10)):
        with pytest.raises(UsageError, match="must be an int, not "):
            call()


@pytest.mark.parametrize("name", ["budget", "seed"])
@pytest.mark.parametrize("value", [True, False, 1.5, "x"])
def test_a_budget_or_seed_that_is_not_an_int_is_a_usage_error(name, value):
    # neither runs, nor is recorded in a Finding; only duality_sample takes a budget
    calls = [lambda: duality_sample(4, **{name: value})]
    if name == "seed":
        calls += [lambda: verify_claim("INTERSECT_CLOSURE", 3, seed=value),
                  lambda: verify_claim("DOUBLE_DUAL", 2, seed=value)]
    for call in calls:
        with pytest.raises(UsageError, match=f"^{name} must be an int, not "):
            call()


def test_duality_sample_seed_is_an_int_from_zero():
    # numpy would draw an unseeded sample for None and raise ValueError below 0
    with pytest.raises(UsageError, match="^seed must be an int, not NoneType"):
        duality_sample(3, 10, None)
    with pytest.raises(UsageError, match="^seed must be at least 0"):
        duality_sample(3, 10, -1)
    assert duality_sample(3, 10, 0)["seed"] == 0


@pytest.mark.parametrize("claim,n", [("INTERSECT_CLOSURE", 3), ("INTERSECT_CLOSURE", 2),
                                     ("DOUBLE_DUAL", 3)])
def test_verify_claim_refuses_a_negative_seed(claim, n):
    # random.Random(-7) draws random.Random(7)'s sample, which a Finding
    # recording -7 would misreport; an exhaustive claim refuses it too
    with pytest.raises(UsageError, match="^seed must be at least 0$"):
        verify_claim(claim, n, seed=-7)


def test_intersect_closure_exhaustive_and_sampled():
    f = verify_claim("INTERSECT_CLOSURE", 2)
    assert f.verified and f.witness is None
    assert f.instances_checked == 122
    assert f.seed is None and f.budget is None
    g = verify_claim("INTERSECT_CLOSURE", 3, seed=7)
    assert g.verified
    assert g.instances_checked == 122 + oracle.INTERSECT_DRAWS == 20_122
    assert g.seed == 7 and g.budget == 20_000
    assert g.notes[-1] == "n=3: 10000 sampled pairs and 10000 sampled triples"
    # the sample size is fixed: verify_claim takes no budget
    with pytest.raises(TypeError, match="budget"):
        verify_claim("INTERSECT_CLOSURE", 3, budget=5)


def no_draws(*args):
    raise AssertionError("a sampler was built")


def test_a_budget_above_the_cap_is_refused_before_any_draw(monkeypatch):
    # a sampler built before the refusal would raise AssertionError here
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(UsageError, match=f"^budget must be at most {MAX_BUDGET}$"):
        duality_sample(4, MAX_BUDGET + 1)


def test_the_batch_functions_name_the_numpy_extra_without_numpy(monkeypatch):
    # None in sys.modules makes `import numpy` raise ImportError, as on an
    # install without the numpy extra
    R = np.zeros((1, 2, 2), dtype=bool)
    monkeypatch.setitem(sys.modules, "numpy", None)
    for call in (lambda: validity_kernel(R, R), lambda: duality_sample(2, 10, 0)):
        with pytest.raises(UsageError, match=r'numpy extra: pip install "biposet\[numpy\]"$'):
            call()


def test_intersect_closure_decides_without_check_axioms(monkeypatch):
    # a verified run answers every instance from the valid-set lookup; the
    # verdict-building checker runs only on a miss, for the witness
    enumeration._structures(3)
    calls = []
    real = axioms.check_axioms
    monkeypatch.setattr(axioms, "check_axioms", lambda d: calls.append(d) or real(d))
    f = verify_claim("INTERSECT_CLOSURE", 3)
    assert f.verified and f.instances_checked == 20_122 and f.budget == 20_000
    assert calls == []


def test_intersect_closure_matches_replayed_draws():
    # the same rng draws replayed outside the oracle, each intersection
    # through intersect_many and check_axioms
    seed, half = 9, oracle.INTERSECT_DRAWS // 2
    f = verify_claim("INTERSECT_CLOSURE", 3, seed=seed)
    structs = list(enumerate_biposets(3))
    rng = random.Random(seed)
    verdicts = []
    for arity in (2, 3):
        for _ in range(half):
            ds = [structs[rng.randrange(len(structs))] for _ in range(arity)]
            verdicts.append(check_axioms(intersect_many(ds)).ok)
    assert len(verdicts) == 20_000 and all(verdicts)
    assert f.verified and f.instances_checked == 122 + 20_000
    assert (f.seed, f.budget) == (seed, 20_000)


def test_intersect_closure_lookup_miss_is_cross_checked(monkeypatch, fresh_oracle_caches):
    # two valid n=2 structures whose intersection (the identity pair) is
    # valid but missing from a truncated structure list: the miss goes to
    # check_axioms, which disagrees, and the sweep refuses to report
    real = enumeration._structures
    codes = [d.code for d in real(2)]
    pair = (real(2)[codes.index((11, 9))], real(2)[codes.index((13, 9))])
    # the runner looks _structures up in the oracle
    monkeypatch.setattr(oracle, "_structures", lambda n: pair if n == 2 else real(n))
    with pytest.raises(RuntimeError, match="disagree"):
        verify_claim("INTERSECT_CLOSURE", 2)
    # an intersection that does fail comes back as a replayable refutation
    bad = Diamond(pair[0].r1, Rel(2, (0b01, 0b01)))
    f = oracle._closure_violation([bad, pair[1]], 7)
    assert f.verdict == "counterexample" and f.instances_checked == 7
    assert f.witness["failed"] == {"axiom": "reflexive", "witness": (1,)}
    assert replay_finding(f)


def test_compose_finds_each_pair_list_once(monkeypatch, fresh_oracle_caches):
    # the cases are triples of leq classes, so the lists are found per
    # ordered pair of the 1 + 2 classes at n <= 2, each once; the tables are
    # cached, so they are emptied first
    calls = []
    real = oracle_galois._galois_pairs_between
    monkeypatch.setattr(oracle_galois, "_galois_pairs_between",
                        lambda P, Q: calls.append((P.d.code, Q.d.code)) or real(P, Q))
    f = verify_claim("GALOIS_COMPOSE", 2)
    assert f.verified and f.instances_checked == 2975
    assert len(calls) == len(set(calls)) == 3 ** 2


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


def test_a_refuted_finding_hashes_as_its_rerun():
    # the witness is a dict, left out of the hash: two runs hash alike
    for claim, n in (("DUALITY_PRINCIPLE", 3), ("GALOIS_THM11_FWD", 2)):
        first, second = verify_claim(claim, n), verify_claim(claim, n)
        assert isinstance(first.witness, dict) and first == second
        assert hash(first) == hash(second) and len({first, second}) == 1


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


@pytest.mark.parametrize("n", [2, 3])
def test_duality_sample_recounts_through_check_axioms(n):
    # the same draws as duality_sample, decided one structure at a time
    m = n * (n - 1)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        c1s = rng.integers(0, 1 << m, size=2000, dtype=np.int64)
        c2s = rng.integers(0, 1 << m, size=2000, dtype=np.int64)
        ds = [Diamond(_offcode_rel(n, int(a)), _offcode_rel(n, int(b))) for a, b in zip(c1s, c2s)]
        valid = [d for d in ds if check_axioms(d).ok]
        bad = [d for d in valid if not check_axioms(dual(d)).ok]
        got = duality_sample(n, 2000, seed)
        assert (got["valid"], got["dual_invalid"]) == (len(valid), len(bad))
        first = got["first"] and parse_structure(got["first"]["structure"]).d
        assert first == (bad[0] if bad else None), (n, seed)


def test_duality_sample_deterministic():
    assert duality_sample(4, 20_000, 3) == duality_sample(4, 20_000, 3)


def test_duality_sample_guards():
    with pytest.raises(UsageError):
        duality_sample(1, 10, 0)
    with pytest.raises(UsageError):
        duality_sample(5, 10, 0)


def test_verdict_failure_refuses_a_verdict_that_holds():
    verdict = check_axioms(powerset_biposet(2).d)
    assert verdict.ok
    with pytest.raises(UsageError, match="^verdict has no failure$"):
        axioms._verdict_failure(verdict)


# bit-plane kernel against the per-structure checker

def _random_rel(rng, n, density):
    return Rel(n, tuple(sum(1 << j for j in range(n) if rng.random() < density)
                        for _ in range(n)))


def test_validity_kernel_matches_checker_on_all_reflexive_n3():
    ds = list(all_reflexive_diamonds(3))
    assert len(ds) == 4096
    got = validity_kernel(*bool_arrays(ds, 3))
    assert got.tolist() == [check_axioms(d).ok for d in ds]
    assert int(got.sum()) == GOLDEN_COUNTS[3]


def test_validity_kernel_matches_checker_on_random_non_reflexive():
    rng = random.Random(2024)
    for n in range(1, 10):
        for density in (0.3, 0.7, 0.95):
            ds = [Diamond(_random_rel(rng, n, density), _random_rel(rng, n, density))
                  for _ in range(150)]
            got = validity_kernel(*bool_arrays(ds, n))
            assert got.dtype == bool and got.shape == (len(ds),)
            assert got.tolist() == [check_axioms(d).ok for d in ds], (n, density)


def test_validity_kernel_on_wide_masks():
    # 16 / 17 / 64 / 70 elements: n^2 planes per relation, past 64 elements too
    rng = random.Random(5)
    for d in (divisibility_biposet(16).d, divisibility_biposet(17).d,
              powerset_biposet(6).d, divisibility_biposet(70).d):
        n = d.n
        broken = []
        for _ in range(3):
            rows = list(d.r1.rows)
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i] ^= 1 << j
            broken.append(Diamond(Rel(n, tuple(rows)), d.r2))
        ds = [d, dual(d)] + broken
        got = validity_kernel(*bool_arrays(ds, n))
        assert got.tolist() == [check_axioms(x).ok for x in ds], n


def test_validity_kernel_empty_batch_and_transposed_views():
    for n in (1, 3, 9):
        got = validity_kernel(np.zeros((0, n, n), dtype=bool), np.zeros((0, n, n), dtype=bool))
        assert got.shape == (0,) and got.dtype == bool
    ds = list(enumerate_biposets(3))
    R1, R2 = bool_arrays(ds, 3)
    T1, T2 = R1.transpose(0, 2, 1), R2.transpose(0, 2, 1)
    assert not T1.flags.c_contiguous
    assert validity_kernel(T1, T2).tolist() == [check_axioms(dual(d)).ok for d in ds]
    with pytest.raises(UsageError):
        validity_kernel(R1, R2[:, :2])


def _offcode_rel(n, code):
    # independent of the oracle: off-diagonal cells in row-major order
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    pairs = [(i, i) for i in range(n)] + [c for k, c in enumerate(cells) if (code >> k) & 1]
    return Rel.from_pairs(n, pairs)


def test_enumeration_golden_at_n4_within_time_bound(structures4):
    structs, elapsed = structures4
    codes = [d.code for d in structs]
    assert len(codes) == 167_655
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert all(type(r) is int for d in structs for r in d.r1.rows + d.r2.rows)
    # the diamonds share one Rel per r1 code and one per preorder
    assert len({id(d.r1) for d in structs}) == 4096
    assert len({id(d.r2) for d in structs}) == 355
    assert elapsed < 10.0, f"enumerate_biposets(4) took {elapsed:.1f} s"

    # the structures of r1 codes 0..15 against every reflexive r2, decided
    # by the bit-plane kernel
    r1s = [_offcode_rel(4, c) for c in range(16)]
    r2s = [_offcode_rel(4, c) for c in range(1 << 12)]
    ok = validity_kernel(np.repeat(row_cells([r.rows for r in r1s], 4), len(r2s), axis=0),
                         np.tile(row_cells([r.rows for r in r2s], 4), (len(r1s), 1, 1)))
    want = [(r1.code, r2.code) for (r1, r2), v in zip(itertools.product(r1s, r2s), ok) if v]
    assert want
    assert codes[:len(want)] == want
    assert codes[len(want)][0] not in {_offcode_rel(4, c).code for c in range(16)}
