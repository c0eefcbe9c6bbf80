import collections
import itertools
import random
import time
from fractions import Fraction

import pytest

from biposet import (
    BiPoset,
    Diamond,
    GaloisPair,
    GroundSet,
    Mapping,
    Rel,
    UsageError,
    biposet,
    check_adjoint_properties,
    compose_galois,
    diamond_leq,
    divisibility_biposet,
    dual_biposet,
    example_floor,
    example_identity,
    example_singleton,
    find_adjoint,
    is_galois,
    is_isotone,
    powerset_biposet,
)
from biposet.galois import MODES


def two_chain():
    return biposet(["a", "b"], [(0, 0), (1, 1), (0, 1)], [(0, 0), (1, 1), (0, 1)])


def test_pair_dimension_mirror_guard():
    with pytest.raises(UsageError):
        GaloisPair(Mapping(2, 3, (0, 0)), Mapping(2, 2, (0, 0)))


def test_example_identity_is_galois():
    pair, P, Q = example_identity()
    assert is_galois(pair, P, Q)
    report = check_adjoint_properties(pair, P, Q)
    assert report.all_hold


def test_example_floor_is_galois():
    pair, P, Q = example_floor()
    assert is_galois(pair, P, Q)
    assert check_adjoint_properties(pair, P, Q).all_hold
    # g really is the integer part on the half-integer grid
    halves = sorted({Fraction(p, q) for q in (1, 2) for p in range(0, 5 * q + 1)})
    assert pair.g.img == tuple(int(v) for v in halves)
    assert pair.f.img == tuple(halves.index(Fraction(v)) for v in range(6))


def test_example_singleton_good_and_bad():
    pair, P, Q = example_singleton(good=True)
    assert is_galois(pair, P, Q)
    bad, P, Q = example_singleton(good=False)
    check = is_galois(bad, P, Q)
    assert not check.ok
    assert check.witness == (1, 0)


def test_mode_and_dimension_guards():
    pair, P, Q = example_identity()
    with pytest.raises(UsageError):
        is_galois(pair, P, Q, mode="sideways")
    with pytest.raises(UsageError):
        is_galois(pair, P, powerset_biposet(1))


def test_hetero_and_monotone_agree():
    pair, P, Q = example_identity()
    assert is_galois(pair, P, Q, "hetero").ok == is_galois(pair, P, Q, "monotone").ok
    bad, P, Q = example_singleton(good=False)
    h = is_galois(bad, P, Q, "hetero")
    m = is_galois(bad, P, Q, "monotone")
    assert h == m


def test_antitone_mode_flips_one_side():
    C = two_chain()
    swap = Mapping(2, 2, (1, 0))
    pair = GaloisPair(swap, swap)
    assert is_galois(pair, C, C, "antitone")
    check = is_galois(pair, C, C, "hetero")
    assert not check.ok
    assert check.witness == (0, 0)


def test_adjoint_report_separates_the_four_properties():
    # a connection can hold while one isotonicity indicator fails
    P = biposet(["a", "b"], [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    Q = biposet(["a", "b"], [(0, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)])
    ident = Mapping.identity(2)
    pair = GaloisPair(ident, ident)
    assert is_galois(pair, P, Q)
    report = check_adjoint_properties(pair, P, Q)
    assert report.f_isotone
    assert not report.g_isotone
    assert report.unit_holds
    assert report.counit_holds
    assert not report.all_hold


def test_compose_identity_pairs():
    pair, P, _ = example_identity()
    composed = compose_galois(pair, pair)
    assert composed.f.img == (0, 1, 2)
    assert composed.g.img == (0, 1, 2)
    assert is_galois(composed, P, P)


def test_compose_dimension_guard():
    pair3, _, _ = example_identity()
    ident2 = Mapping.identity(2)
    pair2 = GaloisPair(ident2, ident2)
    with pytest.raises(UsageError):
        compose_galois(pair3, pair2)


def test_compose_applies_first_then_second():
    singleton, P, Q = example_singleton(good=True)
    ident = Mapping.identity(1)
    composed = compose_galois(singleton, GaloisPair(ident, ident))
    assert composed.f.img == singleton.f.img
    assert composed.g.img == singleton.g.img
    assert is_galois(composed, P, Q)


def test_find_adjoint_identity_both_sides():
    bp = divisibility_biposet(3)
    ident = Mapping.identity(3)
    assert find_adjoint(ident, bp, bp, side="right") == [ident]
    assert find_adjoint(ident, bp, bp, side="left") == [ident]


def test_find_adjoint_recovers_singleton_partner():
    pair, P, Q = example_singleton(good=True)
    assert find_adjoint(pair.f, P, Q, side="right") == [Mapping(1, 2, (1,))]


def test_find_adjoint_can_come_up_empty():
    bp = divisibility_biposet(3)
    const = Mapping(3, 3, (0, 0, 0))
    assert find_adjoint(const, bp, bp, side="right") == []


def test_find_adjoint_guards():
    bp = divisibility_biposet(3)
    with pytest.raises(UsageError):
        find_adjoint(Mapping.identity(3), bp, bp, side="up")
    with pytest.raises(UsageError):
        find_adjoint(Mapping.identity(2), bp, bp)
    # the cap bounds the adjoints to list: r1 = r2 = the full relation on 8
    # elements gives every b all 8 targets, 8^8 adjoints
    full = Rel.full(8)
    big = BiPoset(GroundSet(tuple(f"e{i}" for i in range(8))), Diamond(full, full))
    with pytest.raises(UsageError, match="too many adjoints"):
        find_adjoint(Mapping.identity(8), big, big)


def _random_bp(rng, n):
    # reflexive or not, antisymmetric or not: find_adjoint does not validate
    refl = rng.random() < 0.6
    def rel():
        return Rel(n, tuple(
            sum(1 << j for j in range(n) if (refl and i == j) or rng.random() < 0.4)
            for i in range(n)
        ))
    return BiPoset(GroundSet(tuple(f"e{i}" for i in range(n))), Diamond(rel(), rel()))


def test_find_adjoint_matches_all_candidates_reference():
    # every g through is_galois, in image-lexicographic order, on both sides;
    # the last 100 draws take Q = P, whose leq the right side transposes once
    rng = random.Random(1102)
    nonempty = multiple = 0
    for k in range(500):
        P = _random_bp(rng, rng.randint(1, 3))
        Q = _random_bp(rng, rng.randint(1, 3)) if k < 400 else P
        if rng.random() < 0.5:
            P = BiPoset(P.ground, Diamond(P.d.r1, P.d.r1))
            Q = BiPoset(Q.ground, Diamond(Q.d.r1, Q.d.r1))
        f = Mapping(P.n, Q.n, tuple(rng.randrange(Q.n) for _ in range(P.n)))
        candidates = [Mapping(Q.n, P.n, img)
                      for img in itertools.product(range(P.n), repeat=Q.n)]
        right = [g for g in candidates if is_galois(GaloisPair(f, g), P, Q)]
        left = [g for g in candidates if is_galois(GaloisPair(g, f), Q, P)]
        assert find_adjoint(f, P, Q, side="right") == right
        assert find_adjoint(f, P, Q, side="left") == left
        nonempty += bool(right) + bool(left)
        multiple += (len(right) > 1) + (len(left) > 1)
    assert nonempty > 50 and multiple > 5


def _galois_reference(pair, P, Q, mode):
    # the biconditional as stated: every (a, b) through diamond_leq()
    f, g = pair.f, pair.g
    for a in range(P.n):
        for b in range(Q.n):
            if mode == "antitone":
                left = diamond_leq(Q.d, b, f(a))
            else:
                left = diamond_leq(Q.d, f(a), b)
            if left != diamond_leq(P.d, a, g(b)):
                return (False, (a, b))
    return (True, None)


def test_is_galois_matches_per_pair_reference():
    # sizes 1-6 that may differ, any maps; half the g are adjoints of f found
    # against Q (or its dual, for antitone), so that connections that hold
    # are well represented; the per-pair reference is the judge either way
    rng = random.Random(1203)
    seen = collections.Counter()
    for _ in range(3000):
        P, Q = _random_bp(rng, rng.randint(1, 6)), _random_bp(rng, rng.randint(1, 6))
        f = Mapping(P.n, Q.n, tuple(rng.randrange(Q.n) for _ in range(P.n)))
        for mode in MODES:
            g = Mapping(Q.n, P.n, tuple(rng.randrange(P.n) for _ in range(Q.n)))
            if rng.random() < 0.5:
                adjoints = find_adjoint(f, P, dual_biposet(Q) if mode == "antitone" else Q)
                g = adjoints[0] if adjoints else g
            pair = GaloisPair(f, g)
            got = is_galois(pair, P, Q, mode)
            want = _galois_reference(pair, P, Q, mode)
            assert (got.ok, got.witness) == want
            seen[mode, want[0]] += 1
    assert len(seen) == 6 and min(seen.values()) > 150


def test_map_predicates_on_powerset_10_within_time_bound():
    bp = powerset_biposet(10)
    ident = Mapping.identity(bp.n)
    pair = GaloisPair(ident, ident)
    start = time.perf_counter()
    isotone = is_isotone(ident, bp.d, bp.d)
    galois = is_galois(pair, bp, bp)
    report = check_adjoint_properties(pair, bp, bp)
    elapsed = time.perf_counter() - start
    assert isotone and galois and report.all_hold
    assert elapsed < 2.0, f"map predicates on powerset 10 took {elapsed:.2f} s"


def test_find_adjoint_on_divisibility_7_within_time_bound():
    bp = divisibility_biposet(7)
    ident = Mapping.identity(7)
    start = time.perf_counter()
    right = find_adjoint(ident, bp, bp, side="right")
    left = find_adjoint(ident, bp, bp, side="left")
    elapsed = time.perf_counter() - start
    assert right == [ident] and left == [ident]
    assert elapsed < 1.0, f"find_adjoint on divisibility 7 took {elapsed:.2f} s"


def test_antitone_galois_at_the_cap_within_time_bound(powerset_at_cap):
    # complement is an antitone connection of the powerset with itself (b is
    # in the complement of a iff a is in that of b); the identity is not, at
    # a = {} and b = {0}. Each call transposes leq once.
    bp, _ = powerset_at_cap
    comp = Mapping(bp.n, bp.n, tuple(bp.n - 1 - x for x in range(bp.n)))
    ident = Mapping.identity(bp.n)
    start = time.perf_counter()
    holds = is_galois(GaloisPair(comp, comp), bp, bp, "antitone")
    fails = is_galois(GaloisPair(ident, ident), bp, bp, "antitone")
    elapsed = time.perf_counter() - start
    assert holds and (fails.ok, fails.witness) == (False, (0, 1))
    assert elapsed < 3.0, f"two antitone checks at the powerset cap took {elapsed:.2f} s"


def test_find_adjoint_answers_on_valid_structures_of_any_size(powerset_at_cap):
    # a valid P has at most one target per b, so no valid input meets the cap
    d8 = divisibility_biposet(8)
    assert find_adjoint(Mapping.identity(8), d8, d8) == [Mapping.identity(8)]
    d64 = divisibility_biposet(64)
    ident = Mapping.identity(64)
    assert find_adjoint(ident, d64, d64) == [ident] == find_adjoint(ident, d64, d64, "left")
    bp, _ = powerset_at_cap
    ident = Mapping.identity(bp.n)
    for side in ("right", "left"):
        start = time.perf_counter()
        adjoints = find_adjoint(ident, bp, bp, side)
        elapsed = time.perf_counter() - start
        assert adjoints == [ident]
        assert elapsed < 3.0, f"find_adjoint ({side}) at the powerset cap took {elapsed:.2f} s"
