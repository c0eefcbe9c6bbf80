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
    find_isomorphism,
    is_isomorphism,
    is_isotone,
    powerset_biposet,
    self_dual_witness,
)

from biposet import morphisms

from conftest import all_diamonds, diamond, reflexive


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
    # every ordered pair of n = 2 diamonds, reflexive or not
    structs = [as_bp(d) for d in all_diamonds(2)]
    found = 0
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
                found += 1
            else:
                assert got is None
    assert found == 4318


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


def test_a_shared_row_tuple_is_prepared_once_per_side(monkeypatch):
    # a powerset and its dual each have one row tuple as r1 and r2, so the
    # search prepares two relations, not four, and finds the same least
    # isomorphism, the complement, as when it prepared all four
    real, calls = morphisms.prepare, []
    monkeypatch.setattr(morphisms, "prepare", lambda rows: calls.append(rows) or real(rows))
    bp = powerset_biposet(4)
    got = find_isomorphism(bp, dual_biposet(bp))
    assert len(calls) == 2
    assert got.img == (15, 7, 11, 3, 13, 5, 9, 1, 14, 6, 10, 2, 12, 4, 8, 0)


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


def _isotone_reference(f, src, dst):
    # the definition as stated: every (a, b, c) through chain()
    n = src.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if chain(src, a, b, c) and not chain(dst, f(a), f(b), f(c)):
                    return (False, (a, b, c))
    return (True, None)


def test_is_isotone_matches_triple_loop_reference():
    # sizes may differ, maps need not be injective, structures need not be reflexive
    rng = random.Random(20222)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        src = _random_diamond(rng, m, rng.random() < 0.5, rng.choice([0.2, 0.5, 0.8]))
        dst = _random_diamond(rng, n, rng.random() < 0.5, rng.choice([0.2, 0.5, 0.8]))
        f = Mapping(m, n, tuple(rng.randrange(n) for _ in range(m)))
        got = is_isotone(f, src, dst)
        want = _isotone_reference(f, src, dst)
        assert (got.ok, got.witness) == want
        seen[want[0]] += 1
    assert min(seen.values()) > 300


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


# non-reflexive structures: the same search on the chain-visible edges

def _least_isomorphism(src, dst):
    # the reference: every bijection in lexicographic order through is_isomorphism
    n = src.n
    for perm in itertools.permutations(range(n)):
        if is_isomorphism(Mapping(n, n, perm), src, dst):
            return perm
    return None


def _trim(rng, d):
    # empty some r2 rows and some r1 columns, so that E1 and E2 drop edges
    dead_rows, dead_cols = rng.getrandbits(d.n), rng.getrandbits(d.n)
    r1 = Rel(d.n, tuple(row & ~dead_cols for row in d.r1.rows))
    r2 = Rel(d.n, tuple(0 if dead_rows >> b & 1 else row for b, row in enumerate(d.r2.rows)))
    return Diamond(r1, r2)


def test_find_isomorphism_answers_a_loopless_path_by_the_identity():
    # no r2 edge, so no chain: every bijection is an isomorphism, the least
    # is the identity, and the dual has no chain either
    n = 9
    path = as_bp(diamond(n, [(i, i + 1) for i in range(n - 1)], []))
    start = time.perf_counter()
    assert find_isomorphism(path, path).img == tuple(range(n))
    assert self_dual_witness(path).img == tuple(range(n))
    assert time.perf_counter() - start < 0.5
    loops = as_bp(reflexive(n, [(i, i + 1) for i in range(n - 1)], []))
    assert find_isomorphism(loops, loops).img == tuple(range(n))


def test_find_isomorphism_non_reflexive_results_match_the_permutation_scan():
    rng = random.Random(88)
    found = absent = 0
    for n in range(1, 7):
        for _ in range(6):
            d = _random_diamond(rng, n, False, rng.choice([0.2, 0.4, 0.6]))
            for src_d in (d, _trim(rng, d)):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = _relabel(src_d, perm)
                src = as_bp(src_d)
                for dst_d in (relabelled, Diamond(src_d.r1, relabelled.r2),
                              _random_diamond(rng, n, False, 0.4)):
                    dst = as_bp(dst_d)
                    got = find_isomorphism(src, dst)
                    want = _least_isomorphism(src, dst)
                    assert (got.img if got else None) == want
                    found += want is not None
                    absent += want is None
    assert found > 80 and absent > 60
    # equal degrees, loops apart: a loop plus a 2-cycle against a 3-cycle
    ident = [(i, i) for i in range(3)]
    loop = as_bp(diamond(3, [(0, 0), (1, 2), (2, 1)], ident))
    cycle = as_bp(diamond(3, [(0, 1), (1, 2), (2, 0)], ident))
    assert find_isomorphism(loop, cycle) is None and find_isomorphism(cycle, loop) is None


def test_find_isomorphism_on_a_loopless_path_of_200_elements_within_time_bound():
    # r1 a loopless directed path, r2 the identity: the chains are the r1
    # edges, so each relabelling has exactly one isomorphism onto it
    n = 200
    edges = [(i, i + 1) for i in range(n - 1)]
    loops = [(i, i) for i in range(n)]
    d = diamond(n, edges, loops)
    perm = list(range(n))
    random.Random(200).shuffle(perm)
    start = time.perf_counter()
    assert find_isomorphism(as_bp(d), as_bp(_relabel(d, perm))).img == tuple(perm)
    assert find_isomorphism(as_bp(d), as_bp(diamond(n, edges + [(0, 2)], loops))) is None
    assert time.perf_counter() - start < 2.0
