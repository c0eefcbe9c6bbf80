"""The rows decided once per class against their structure-level slow paths:
UNIQUE_GMAX, UNIQUE_GMIN, UNIQUE_LMAX, UNIQUE_LMIN and DOUBLE_DUAL on one
representative per isomorphism class (oracle._orbit_cases), GALOIS_COMPOSE
on triples of leq classes (oracle._compose_cases), and the Galois count
the three leq rows share."""

import itertools

import pytest

from biposet import GOLDEN_COUNTS, extremal, galois, oracle, verify_claim
from biposet.core import Check, Diamond, Rel
from conftest import DERIVED_CACHES, clear_oracle_caches
from test_scan import SCANNED

ORBIT_ROWS = ("UNIQUE_GMAX", "UNIQUE_GMIN", "UNIQUE_LMAX", "UNIQUE_LMIN", "DOUBLE_DUAL")


def row_test(claim):
    """The test a scanned row's runner scans with."""
    return oracle._CLAIMS[claim].run.args[1]


def structure_compose_cases(cap):
    """GALOIS_COMPOSE's cases one structure triple at a time, weight 1."""
    sizes = range(1, cap + 1)
    bps = {n: [oracle._generic_bp(d) for d in oracle._structures(n)] for n in sizes}
    # every (Q, R) list is needed again for each P, so each is found once
    galois_pairs = {(nA, i, nB, j): oracle._galois_pairs_between(A, B)
                    for nA in sizes for i, A in enumerate(bps[nA])
                    for nB in sizes for j, B in enumerate(bps[nB])}
    for nP, nQ, nR in itertools.product(sizes, repeat=3):
        for (p, P), (q, Q) in itertools.product(enumerate(bps[nP]), enumerate(bps[nQ])):
            firsts = galois_pairs[nP, p, nQ, q]
            for r, R in enumerate(bps[nR]):
                for first, second in itertools.product(firsts, galois_pairs[nQ, q, nR, r]):
                    yield (nP, nQ, nR), (P, Q, R, first, second), 1


# (claim, reduced cases, slow cases, largest cap)
SLOW = [*[(c, oracle._orbit_cases, oracle._structure_cases, 3) for c in ORBIT_ROWS],
        ("GALOIS_COMPOSE", oracle._compose_cases, structure_compose_cases, 2)]
SLOW_OF = {claim: slow for claim, _, slow, _ in SLOW}


def leq_class(d):
    """The least leq rows over every relabelling of d, found without the oracle."""
    n = d.n
    pairs = [(a, b) for a in range(n) for b in range(n) if d.r1.has(a, b) and d.r2.has(a, b)]
    return n, min(Rel.from_pairs(n, [(s[a], s[b]) for a, b in pairs]).rows
                  for s in itertools.permutations(range(n)))


def test_the_reduced_rows_scan_their_reduced_cases():
    assert all(oracle._CLAIMS[c].run.args[0] is oracle._orbit_cases for c in ORBIT_ROWS)
    assert oracle._CLAIMS["GALOIS_COMPOSE"].run.args[0] is oracle._compose_cases
    # a refuted Finding counts up to its hit, which orbit weights would change
    assert oracle._CLAIMS["DUALITY_PRINCIPLE"].run.args[0] is oracle._structure_cases


@pytest.mark.parametrize("claim,fast,slow,top", SLOW, ids=[row[0] for row in SLOW])
def test_each_reduced_row_agrees_with_its_slow_path_at_every_cap(claim, fast, slow, top):
    for cap in range(1, top + 1):
        want = oracle._scan(slow, row_test(claim), claim, cap)
        assert oracle._scan(fast, row_test(claim), claim, cap) == want
        assert verify_claim(claim, cap) == want
        # the reduced cases stand for exactly the slow path's instances
        assert sum(w for _, _, w in fast(cap)) == sum(1 for _ in slow(cap))


def test_weights_add_up_to_the_golden_counts_and_the_compose_total():
    for cap in (1, 2, 3):
        weights = [w for _, _, w in oracle._orbit_cases(cap)]
        assert sum(weights) == sum(GOLDEN_COUNTS[n] for n in range(1, cap + 1))
        assert len(weights) == (1, 8, 134)[cap - 1]
    weights = [w for _, _, w in oracle._compose_cases(2)]
    assert (len(weights), sum(weights)) == (17, 2975)
    assert [w for _, _, w in oracle._compose_cases(1)] == [1]


@pytest.mark.parametrize("claim", ORBIT_ROWS)
def test_every_structure_gets_its_representatives_verdict(claim):
    test = row_test(claim)
    for n in (1, 2, 3):
        structs = oracle._structures(n)
        for p, images in oracle._orbits(n)[1]:
            verdict = test(structs[p]) is None
            assert all((test(structs[i]) is None) == verdict for i in set(images))


@pytest.mark.parametrize("claim", ORBIT_ROWS)
def test_an_invariant_failure_keeps_its_witness(monkeypatch, claim):
    # a patch that fails exactly the structures with r1 != r2, which no
    # relabelling changes: the least such structure is a representative
    if claim == "DOUBLE_DUAL":
        real = oracle.dual
        empty = Diamond(Rel(2, (0, 0)), Rel(2, (0, 0)))
        monkeypatch.setattr(oracle, "dual", lambda d: empty if d.r1 != d.r2 else real(d))
    else:
        real = extremal.two_sided_values
        monkeypatch.setattr(extremal, "two_sided_values",
                            lambda d, *a: {0, 1} if d.r1 != d.r2 else real(d, *a))
    slow = oracle._scan(oracle._structure_cases, row_test(claim), claim, 3)
    fast = verify_claim(claim, 3)
    assert slow.witness is not None and slow.scale == (2,)
    assert (fast.verdict, fast.scale, fast.witness) == (slow.verdict, slow.scale, slow.witness)
    # the reduced count takes in whole orbits up to the hit
    assert fast.instances_checked >= slow.instances_checked


@pytest.mark.parametrize("claim,name,patch", [row[:3] for row in SCANNED if row[0] in SLOW_OF],
                         ids=[row[0] for row in SCANNED if row[0] in SLOW_OF])
def test_the_patched_scan_rows_keep_their_witnesses(monkeypatch, claim, name, patch):
    # tests/test_scan.py's rows, each failing its first instance
    monkeypatch.setattr(f"biposet.{name}", patch)
    cap = oracle._CLAIMS[claim].scale
    slow = oracle._scan(SLOW_OF[claim], row_test(claim), claim, cap)
    assert slow.witness is not None and verify_claim(claim, 3) == slow


def test_an_invariant_compose_failure_hits_the_same_class_triple(monkeypatch):
    # fail every composite between two 2-element structures: the first hit
    # is at (2, 1, 2) on the chain classes, in either scan
    real = galois.is_galois
    monkeypatch.setattr(galois, "is_galois", lambda pair, P, R, *a: Check(False, (0, 0))
                        if P.n == R.n == 2 else real(pair, P, R, *a))
    test = row_test("GALOIS_COMPOSE")
    slow = oracle._scan(structure_compose_cases, test, "GALOIS_COMPOSE", 2)
    fast = verify_claim("GALOIS_COMPOSE", 2)
    assert fast.verdict == slow.verdict == "counterexample"
    assert fast.scale == slow.scale == (2, 1, 2)
    classes = [tuple(leq_class(oracle._parse_diamond(f.witness[k])) for k in "PQR")
               for f in (slow, fast)]
    chain = (2, (0b01, 0b11))     # e1 below e0, the least relabelling of a 2-chain
    assert classes[0] == classes[1] == (chain, (1, (1,)), chain)
    # the reduced witness is the class triple's representatives (L, L)
    assert all(d.r1 == d.r2 for d in (oracle._parse_diamond(fast.witness[k]) for k in "PQR"))


def test_the_three_leq_rows_share_one_count_per_cap(monkeypatch, fresh_oracle_caches):
    calls = []
    real = oracle._leq_galois
    monkeypatch.setattr(oracle, "_leq_galois", lambda p, q: calls.append((p, q)) or real(p, q))
    for claim in ("GALOIS_THM11_FWD", "GALOIS_THM11_BWD", "ADJOINT_UNIQUE"):
        verify_claim(claim, 1)
    verify_claim("GALOIS_THM11_BWD", 3)
    verify_claim("ADJOINT_UNIQUE", 3)
    # one (point, point) pair at cap 1, and the 8^2 class pairs once at cap 3
    assert len(calls) == 1 + 8 ** 2


def test_clear_oracle_caches_reaches_every_derived_cache():
    # every oracle cache is either built from nothing a test patches or
    # emptied by the helper, so a new cache has to be sorted into one
    caches = {name for name, value in vars(oracle).items()
              if hasattr(value, "cache_clear") and value.__module__ == oracle.__name__}
    derived = {cached.__name__ for cached in DERIVED_CACHES}
    assert caches == derived | {"_structures", "_preorder_codes", "_ground"}
    verify_claim("ADJOINT_UNIQUE", 2)
    verify_claim("DOUBLE_DUAL", 2)
    clear_oracle_caches()
    assert all(cached.cache_info().currsize == 0 for cached in DERIVED_CACHES)
