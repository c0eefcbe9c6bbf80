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
    diamond_leq,
    is_isomorphism,
    serialize_mapping,
)
from biposet.core import preimage_rows

from conftest import diamond


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
