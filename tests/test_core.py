import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biposet import (
    BiPoset,
    Diamond,
    GroundSet,
    Mapping,
    Rel,
    UsageError,
    biposet,
    chain,
    check_axioms,
    check_classical_por,
    diamond_leq,
    is_isomorphism,
    naive_check_axioms,
    serialize_mapping,
)
from biposet import core
from biposet.core import bits, lsb, preimage_rows, prepare

from conftest import all_reflexive_diamonds, diamond, traced_peak


@st.composite
def rels(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return Rel(n, tuple(rows))


def test_ground_set_rejects_duplicates():
    with pytest.raises(UsageError):
        GroundSet(("a", "a"))


def test_ground_set_rejects_empty():
    with pytest.raises(UsageError):
        GroundSet(())


@pytest.mark.parametrize("build, message", [
    (lambda: GroundSet(("a", "")), "element labels must be non-empty"),
    (lambda: Rel(0, ()), "relation dimension must be at least 1"),
    (lambda: Rel(2, (1,)), "row count does not match dimension"),
    (lambda: is_isomorphism(Mapping.identity(2), biposet(["a"], [(0, 0)], [(0, 0)]),
                            biposet(["b"], [(0, 0)], [(0, 0)])),
     "mapping dimensions do not match the structures"),
    (lambda: serialize_mapping(Mapping.identity(2), GroundSet(("a",)), GroundSet(("b", "c"))),
     "mapping dimensions do not match the ground sets"),
])
def test_boundary_guards_raise_usage_error(build, message):
    with pytest.raises(UsageError, match=message):
        build()


def test_ground_set_index():
    g = GroundSet(("x", "y"))
    assert g.index("y") == 1
    with pytest.raises(UsageError):
        g.index("z")


def test_rel_from_pairs_and_has():
    r = Rel.from_pairs(3, [(0, 1), (1, 2), (0, 1)])
    assert r.has(0, 1) and r.has(1, 2)
    assert not r.has(1, 0)
    assert sorted(r.pairs()) == [(0, 1), (1, 2)]


def test_rel_rejects_out_of_range():
    with pytest.raises(UsageError):
        Rel.from_pairs(2, [(0, 2)])
    # negative rows and rows with a bit at or past n
    for rows in ((1, 5), (1, -1), (-2, 1), (8, 0), (1, 1 << 70)):
        with pytest.raises(UsageError, match="row mask has bits outside the ground set"):
            Rel(2, rows)


def test_rel_identity_and_full():
    assert Rel.identity(3).rows == (1, 2, 4)
    assert Rel.full(2).rows == (3, 3)


@given(rels())
def test_transpose_is_involutive(r):
    assert r.transpose().transpose() == r


@given(rels())
def test_transpose_swaps_rows_and_cols(r):
    t = r.transpose()
    for i in range(r.n):
        for j in range(r.n):
            assert r.has(i, j) == t.has(j, i)


@given(rels(max_n=6), st.lists(st.integers(0, 5), min_size=1, max_size=6))
def test_preimage_rows_reads_each_row_back_through_the_map(r, img):
    img = tuple(v % r.n for v in img)
    want = tuple(sum(1 << i for i in range(len(img)) if (row >> img[i]) & 1) for row in r.rows)
    assert preimage_rows(r.rows, img) == want


def test_code_is_row_major():
    r = Rel(2, (1, 2))
    assert r.code == 1 + (2 << 2)


@given(rels(), rels())
def test_and_intersects(a, b):
    if a.n != b.n:
        with pytest.raises(UsageError):
            a & b
        return
    c = a & b
    for i in range(a.n):
        for j in range(a.n):
            assert c.has(i, j) == (a.has(i, j) and b.has(i, j))


def test_diamond_requires_matching_dims():
    with pytest.raises(UsageError):
        Diamond(Rel.identity(2), Rel.identity(3))


def test_chain_reads_first_then_second():
    # a r1 b and b r2 c, nothing else
    d = diamond(3, [(0, 1)], [(1, 2)])
    assert chain(d, 0, 1, 2)
    assert not chain(d, 1, 0, 2)
    assert not chain(d, 0, 2, 1)


def test_diamond_leq_needs_both_components():
    d = diamond(2, [(0, 1)], [(0, 1)])
    assert diamond_leq(d, 0, 1)
    d2 = diamond(2, [(0, 1)], [])
    assert not diamond_leq(d2, 0, 1)


def test_chain_checks_bounds():
    d = diamond(2, [], [])
    with pytest.raises(UsageError):
        chain(d, 0, 0, 2)


def test_biposet_dimension_guard():
    with pytest.raises(UsageError):
        BiPoset(GroundSet(("a",)), diamond(2, [], []))


def test_biposet_convenience_constructor():
    bp = biposet(["a", "b"], [(0, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)])
    assert bp.n == 2
    assert bp.d.r2.has(0, 1)
    assert bp.certificate is None


def test_leq_rows_is_componentwise_and():
    d = diamond(2, [(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 1)])
    assert d.leq_rows() == (1, 2)


# the set-bit primitives and the prepared view against per-bit definitions

# masks below 256 take the table; a wider mask takes its bit length when it
# has one set bit, compress when dense and the peel when sparse, so each
# width >= 255 is drawn sparse (0-3 bits, plus the top one) and dense.
# Relations stop at 257 elements, where the per-bit references still take
# milliseconds; their rows go through the same bits as the wider masks
WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 255, 256, 257)


def _rows(rng, n, width, dense):
    """n masks below 1 << width: dense ones set about half their bits, sparse
    ones at most three."""
    if dense:
        return tuple(rng.getrandbits(width) for _ in range(n))
    return tuple(sum(1 << b for b in rng.sample(range(width), min(width, rng.randint(0, 3))))
                 for _ in range(n))


@pytest.mark.parametrize("width", WIDTHS + (1024, 4096))
def test_bits_and_lsb_match_the_per_bit_definition(width):
    rng = random.Random(width)
    top = 1 << (width - 1)
    for dense in (False, True):
        for mask in _rows(rng, 40, width, dense):
            for m in (mask, mask | top):
                want = tuple(i for i in range(width) if m >> i & 1)
                assert bits(m) == want
                if m:
                    assert lsb(m) == want[0]


@pytest.mark.parametrize("n", WIDTHS)
def test_relation_readers_match_per_bit_definitions(n):
    rng = random.Random(n)
    for dense in (False, True):
        rows = _rows(rng, n, n, dense)
        if dense:
            rows = tuple(row | 1 << a for a, row in enumerate(rows))
        m = [[row >> b & 1 for b in range(n)] for row in rows]
        rbits, cols, reflexive, sym = prepare(rows)
        assert rbits == tuple(tuple(b for b in range(n) if m[a][b]) for a in range(n))
        assert cols == tuple(sum(m[a][c] << a for a in range(n)) for c in range(n))
        assert reflexive == all(m[a][a] for a in range(n))
        assert sym == tuple(sum((m[a][b] & m[b][a]) << b for b in range(n)) for a in range(n))
        assert Rel(n, rows).transpose().rows == cols
        assert list(Rel(n, rows).pairs()) == [(a, b) for a in range(n) for b in range(n)
                                              if m[a][b]]
        img = tuple(rng.randrange(n) for _ in range(n))
        assert preimage_rows(rows, img) == tuple(
            sum(m[k][v] << i for i, v in enumerate(img)) for k in range(n))


# prepare's memo

@pytest.fixture
def empty_memo():
    """core.prepare's memo, emptied before one test and after it."""
    core._PREPARED.clear()
    yield core._PREPARED
    core._PREPARED.clear()


def test_memo_agrees_with_reference_cold_and_warm_up_to_n3(empty_memo):
    # every reflexive pair at n <= 3 with resolved witnesses: the first pass
    # starts from an empty memo and fills it, the second reads every relation
    # from it, so no test order can hide a bad entry
    cases = [d for n in (1, 2, 3) for d in all_reflexive_diamonds(n)]
    refs = [naive_check_axioms(d) for d in cases]
    for _ in ("cold", "warm"):
        for d, ref in zip(cases, refs):
            verdict = check_axioms(d)
            assert verdict.ok == ref.ok and verdict == ref, d
    assert len(empty_memo) == 1 + 4 + 64


def test_memo_holds_every_small_reflexive_relation_within_its_bound(empty_memo):
    rels = [Rel(n, rows) for n in range(1, 5)
            for rows in itertools.product(range(1 << n), repeat=n)
            if all(rows[a] >> a & 1 for a in range(n))]
    ds = [Diamond(r, r) for r in rels]
    _, peak = traced_peak(lambda: [check_axioms(d).ok for d in ds])
    assert len(rels) == len(empty_memo) == 1 + 4 + 64 + 4096
    assert peak < 2_000_000, f"memo peak {peak / 1e6:.1f} MB"


def test_memo_skips_non_reflexive_and_wider_relations(empty_memo):
    loose = Rel(3, (0b011, 0b010, 0b000))
    wide = Rel.identity(5)
    for d in (Diamond(loose, loose), Diamond(wide, wide), Diamond(loose.transpose(), loose)):
        check_axioms(d).ok
        check_classical_por(d.r1)
    assert not empty_memo


def test_deferred_verdicts_sharing_a_memoised_relation_resolve_alike(empty_memo):
    # two failing verdicts hold the one memoised preparation of `shared`,
    # as r1 and as r2; each resolves to the repr an empty memo gives
    shared = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    ds = [Diamond(shared, Rel.full(3)), Diamond(Rel.full(3), shared)]
    warm = [check_axioms(d) for d in ds]
    assert shared.rows in empty_memo and not any(v.ok for v in warm)
    reprs = [repr(v) for v in reversed(warm)][::-1]
    empty_memo.clear()
    cold = [repr(check_axioms(d)) for d in ds]
    assert reprs == cold == [repr(naive_check_axioms(d)) for d in ds]
