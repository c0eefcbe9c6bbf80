import itertools
import random
import sys
import time

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import DiGraphMatcher

from biposet import (
    BiPoset,
    Diamond,
    GroundSet,
    Mapping,
    Rel,
    UsageError,
    biposet,
    chain,
    divisibility_biposet,
    dual_biposet,
    enumerate_biposets,
    find_isomorphism,
    is_isomorphism,
    is_isotone,
    powerset_biposet,
    self_dual_witness,
)

from conftest import diamond, reflexive


def as_bp(d):
    return BiPoset(GroundSet(tuple(f"e{i}" for i in range(d.n))), d)


# Mapping type

def test_mapping_guards():
    with pytest.raises(UsageError):
        Mapping(2, 2, (0,))
    with pytest.raises(UsageError):
        Mapping(1, 2, (2,))


def test_mapping_identity_and_bijection():
    ident = Mapping.identity(3)
    assert ident.img == (0, 1, 2)
    assert ident.is_bijection()
    assert not Mapping(2, 2, (0, 0)).is_bijection()
    assert not Mapping(2, 3, (0, 1)).is_bijection()


def test_mapping_composition_applies_inner_first():
    f = Mapping(2, 3, (2, 0))
    g = Mapping(3, 2, (1, 1, 0))
    assert g.after(f).img == (0, 1)
    with pytest.raises(UsageError):
        f.after(f)


def test_mapping_inverse():
    f = Mapping(3, 3, (2, 0, 1))
    assert f.inverse().img == (1, 2, 0)
    with pytest.raises(UsageError):
        Mapping(2, 2, (0, 0)).inverse()


# isotone

def test_isotone_identity_on_divisibility():
    d = divisibility_biposet(3).d
    assert is_isotone(Mapping.identity(3), d, d)


def test_isotone_constant_map():
    d = divisibility_biposet(3).d
    for target in range(3):
        assert is_isotone(Mapping(3, 3, (target,) * 3), d, d)


def test_isotone_transposition_least_witness():
    # swapping the ends of ({1,2,3}, (<=, |)) breaks at the chain 1<=1|2
    d = divisibility_biposet(3).d
    check = is_isotone(Mapping(3, 3, (2, 1, 0)), d, d)
    assert not check.ok
    assert check.witness == (0, 0, 1)


def test_isotone_dimension_guard():
    d = divisibility_biposet(3).d
    with pytest.raises(UsageError):
        is_isotone(Mapping.identity(2), d, d)


# isomorphism

def test_isomorphism_identity():
    bp = divisibility_biposet(4)
    assert is_isomorphism(Mapping.identity(4), bp, bp)


def test_isomorphism_rejects_non_bijection():
    bp = divisibility_biposet(2)
    check = is_isomorphism(Mapping(2, 2, (0, 0)), bp, bp)
    assert not check.ok
    assert check.reason == "not a bijection"
    assert check.witness is None


def test_isomorphism_biconditional_witness():
    # identity embeds the discrete pair into a chain: isotone but not iso
    src = as_bp(reflexive(2, [], []))
    dst = as_bp(reflexive(2, [(0, 1)], [(0, 1)]))
    assert is_isotone(Mapping.identity(2), src.d, dst.d)
    check = is_isomorphism(Mapping.identity(2), src, dst)
    assert not check.ok
    assert check.witness == (0, 0, 1)


def test_find_isomorphism_matches_brute_force_at_n2():
    structs = [as_bp(d) for d in enumerate_biposets(2)]
    for src in structs:
        for dst in structs:
            got = find_isomorphism(src, dst)
            wins = [
                perm for perm in itertools.permutations(range(2))
                if is_isomorphism(Mapping(2, 2, perm), src, dst)
            ]
            if wins:
                assert got is not None
                assert got.img == min(wins)
            else:
                assert got is None


def test_find_isomorphism_relabels_a_scrambled_copy():
    bp = divisibility_biposet(4)
    perm = (2, 0, 3, 1)
    inv = Mapping(4, 4, perm).inverse().img
    scrambled = biposet(
        ["w", "x", "y", "z"],
        [(perm[i], perm[j]) for i, j in bp.d.r1.pairs()],
        [(perm[i], perm[j]) for i, j in bp.d.r2.pairs()],
    )
    got = find_isomorphism(scrambled, bp)
    assert got is not None
    assert is_isomorphism(got, scrambled, bp)
    assert is_isomorphism(Mapping(4, 4, inv), scrambled, bp)


def test_find_isomorphism_handles_non_reflexive_inputs():
    d = diamond(2, [(0, 1)], [(1, 0)])
    got = find_isomorphism(as_bp(d), as_bp(d))
    assert got is not None and got.img == (0, 1)


def test_find_isomorphism_size_mismatch():
    assert find_isomorphism(divisibility_biposet(2), divisibility_biposet(3)) is None


# self-duality

def test_self_dual_witness_swap():
    # one strict edge in r1 only; reversing it is the swap
    bp = biposet(["a", "b"], [(0, 0), (1, 1), (0, 1)], [(0, 0), (1, 1)])
    got = self_dual_witness(bp)
    assert got is not None and got.img == (1, 0)
    assert is_isomorphism(got, bp, dual_biposet(bp))


def test_self_dual_witness_absent():
    # 0 has two outgoing r2 edges; no dual element matches that degree
    bp = biposet(
        ["a", "b", "c"],
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)],
    )
    assert self_dual_witness(bp) is None


def test_self_dual_witness_divisibility():
    assert self_dual_witness(divisibility_biposet(3)) is None


def test_powerset_style_symmetric_structures_are_self_dual():
    # equality pair: dual equals the original, identity works
    bp = biposet(["p", "q"], [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    got = self_dual_witness(bp)
    assert got is not None and got.img == (0, 1)


# slow references for the bitmask paths

def _random_diamond(rng, n, refl, density):
    def rel():
        return Rel(n, tuple(
            sum(1 << j for j in range(n) if (refl and i == j) or rng.random() < density)
            for i in range(n)
        ))
    return Diamond(rel(), rel())


def _relabel(d, perm):
    def rel(r):
        return Rel.from_pairs(r.n, ((perm[i], perm[j]) for i, j in r.pairs()))
    return Diamond(rel(d.r1), rel(d.r2))


def _chain_reference(f, src, dst):
    # the definition as stated: every (a, b, c) through chain()
    if not f.is_bijection():
        return (False, None, "not a bijection")
    n = src.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if chain(src.d, a, b, c) != chain(dst.d, f(a), f(b), f(c)):
                    return (False, (a, b, c), None)
    return (True, None, None)


def test_is_isomorphism_matches_triple_loop_reference():
    rng = random.Random(20221)
    seen = {"iso": 0, "witness": 0, "non_bijection": 0}
    for _ in range(1500):
        n = rng.randint(1, 5)
        refl = rng.random() < 0.5
        src = as_bp(_random_diamond(rng, n, refl, rng.choice([0.2, 0.5, 0.8])))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            dst = as_bp(_relabel(src.d, perm))
        else:
            dst = as_bp(_random_diamond(rng, n, rng.random() < 0.5, rng.choice([0.2, 0.5, 0.8])))
        if rng.random() < 0.7:
            img = list(range(n))
            rng.shuffle(img)
        else:
            img = [rng.randrange(n) for _ in range(n)]
        f = Mapping(n, n, tuple(img))
        got = is_isomorphism(f, src, dst)
        want = _chain_reference(f, src, dst)
        assert (got.ok, got.witness, got.reason) == want
        seen["iso" if want[0] else "witness" if want[1] else "non_bijection"] += 1
    assert min(seen.values()) > 100


def _vf2_graph(bp):
    # r1/r2 membership as the edge attribute; loops included
    g = nx.DiGraph()
    g.add_nodes_from(range(bp.n))
    for i, j in set(bp.d.r1.pairs()) | set(bp.d.r2.pairs()):
        g.add_edge(i, j, kind=(bp.d.r1.has(i, j), bp.d.r2.has(i, j)))
    return g


def _same_kind(x, y):
    return x["kind"] == y["kind"]


def _vf2_isomorphisms(src, dst):
    matcher = DiGraphMatcher(_vf2_graph(src), _vf2_graph(dst), edge_match=_same_kind)
    return [tuple(m[i] for i in range(src.n)) for m in matcher.isomorphisms_iter()]


def _switch_edges(rng, d):
    # replace a->b, c->e by a->e, c->b in r1, or else in r2: every degree is kept
    for comp in ("r1", "r2"):
        rel = getattr(d, comp)
        rows = list(rel.rows)
        strict = [(i, j) for i, j in rel.pairs() if i != j]
        for _ in range(1000):
            (a, b), (c, e) = rng.sample(strict, 2)
            if len({a, b, c, e}) == 4 and not (rows[a] >> e) & 1 and not (rows[c] >> b) & 1:
                rows[a] ^= (1 << b) | (1 << e)
                rows[c] ^= (1 << e) | (1 << b)
                switched = Rel(d.n, tuple(rows))
                return Diamond(switched, d.r2) if comp == "r1" else Diamond(d.r1, switched)
    raise AssertionError("no switchable edge pair")


def test_find_isomorphism_agrees_with_vf2_on_larger_structures():
    rng = random.Random(7)
    cases = [powerset_biposet(5).d, divisibility_biposet(24).d, divisibility_biposet(40).d]
    cases += [_random_diamond(rng, n, True, 0.3) for n in (20, 28, 36)]
    found = absent = 0
    for d in cases:
        perm = list(range(d.n))
        rng.shuffle(perm)
        src = as_bp(d)
        for dst_d in (_relabel(d, perm), _switch_edges(rng, _relabel(d, perm))):
            dst = as_bp(dst_d)
            got = find_isomorphism(src, dst)
            isos = _vf2_isomorphisms(src, dst)
            if isos:
                assert got is not None and got.img == min(isos)
                found += 1
            else:
                assert got is None
                absent += 1
    assert found >= len(cases) and absent >= 1


def test_find_isomorphism_agrees_with_vf2_at_64_elements():
    rng = random.Random(64)
    for d in (powerset_biposet(6).d, divisibility_biposet(64).d):
        perm = list(range(d.n))
        rng.shuffle(perm)
        src, dst = as_bp(d), as_bp(_relabel(d, perm))
        for target in (dst, as_bp(_switch_edges(rng, dst.d))):
            got = find_isomorphism(src, target)
            vf2 = nx.is_isomorphic(_vf2_graph(src), _vf2_graph(target), edge_match=_same_kind)
            assert (got is not None) == vf2
            if got is not None:
                assert is_isomorphism(got, src, target)


# time bounds at the caps

def test_self_dual_witness_of_powerset_8_within_time_bound():
    bp = powerset_biposet(8)
    start = time.perf_counter()
    got = self_dual_witness(bp)
    elapsed = time.perf_counter() - start
    assert got is not None and got.img[0] == 255
    assert elapsed < 5.0, f"self_dual_witness(powerset_biposet(8)) took {elapsed:.2f} s"


def test_find_isomorphism_deeper_than_the_recursion_limit():
    # a path i -> i+1 reverses onto its dual; the search depth is the element count
    n = sys.getrecursionlimit() + 200
    step = Rel(n, tuple((1 << i) | ((1 << (i + 1)) if i + 1 < n else 0) for i in range(n)))
    bp = as_bp(Diamond(step, Rel.identity(n)))
    got = self_dual_witness(bp)
    assert got is not None and got.img == tuple(reversed(range(n)))
