import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biposet import (
    Diamond,
    Rel,
    UsageError,
    check_axioms,
    check_classical_por,
    divisibility_biposet,
    dual,
    dual_biposet,
    intersect_many,
    powerset_biposet,
)
from biposet.constructions import DIVISIBILITY_CAP, POWERSET_CAP

from conftest import diamond


@st.composite
def diamonds(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (1 << n) - 1
    r1 = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    r2 = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return Diamond(Rel(n, tuple(r1)), Rel(n, tuple(r2)))


def test_intersect_requires_input():
    with pytest.raises(UsageError):
        intersect_many([])


def test_intersect_requires_same_dimension():
    with pytest.raises(UsageError):
        intersect_many([diamond(2, [], []), diamond(3, [], [])])


def test_intersect_componentwise():
    a = diamond(2, [(0, 0), (0, 1)], [(0, 0), (1, 1)])
    b = diamond(2, [(0, 0), (1, 0)], [(1, 1)])
    c = intersect_many([a, b])
    assert c.r1.rows == (1, 0)
    assert c.r2.rows == (0, 2)


def test_intersect_of_swapped_divisibility_components():
    # le restricted to divisibility equals divisibility on positive integers
    d = divisibility_biposet(3).d
    swapped = Diamond(d.r2, d.r1)
    got = intersect_many([d, swapped])
    assert got.r1.rows == (7, 2, 4)
    assert got.r2.rows == (7, 2, 4)
    assert check_axioms(got).ok


def test_intersect_is_idempotent_and_commutative():
    a = diamond(3, [(0, 1), (1, 2)], [(0, 2)])
    b = diamond(3, [(0, 1)], [(0, 2), (2, 1)])
    assert intersect_many([a, a]) == a
    assert intersect_many([a, b]) == intersect_many([b, a])


@given(diamonds())
@settings(max_examples=200)
def test_dual_is_involutive(d):
    assert dual(dual(d)) == d


@given(diamonds())
@settings(max_examples=200)
def test_dual_transposes_both_components(d):
    t = dual(d)
    for i in range(d.n):
        for j in range(d.n):
            assert d.r1.has(i, j) == t.r1.has(j, i)
            assert d.r2.has(i, j) == t.r2.has(j, i)


def test_dual_biposet_carries_no_certificate():
    bp = divisibility_biposet(3)
    assert bp.certificate == "valid"
    assert dual_biposet(bp).certificate is None


def test_dual_of_a_valid_structure_can_be_invalid():
    # frozen counterexample to the duality claim
    d = diamond(
        3,
        [(0, 0), (0, 2), (1, 0), (1, 1), (2, 2)],
        [(0, 0), (0, 1), (1, 1), (2, 2)],
    )
    assert check_axioms(d).ok
    assert not check_axioms(dual(d)).ok


def test_powerset_sizes_and_validity():
    for k in range(4):
        bp = powerset_biposet(k)
        assert bp.n == 1 << k
        assert bp.certificate == "valid"


def test_powerset_inclusion_edges():
    bp = powerset_biposet(2)
    assert bp.ground.labels == ("s0", "s1", "s2", "s3")
    # s1 = {0} and s2 = {1} are incomparable; both sit below s3
    assert bp.d.r1.has(1, 3) and bp.d.r2.has(1, 3)
    assert not bp.d.r1.has(1, 2) and not bp.d.r1.has(2, 1)
    assert bp.d.r1 == bp.d.r2


def test_powerset_rows_match_the_inclusion_predicate():
    for k in range(10):
        size = 1 << k
        want = Rel.from_predicate(size, lambda i, j: (i & ~j) == 0)
        bp = powerset_biposet(k)
        assert bp.d.r1 == want and bp.d.r2 == want


def test_powerset_cap():
    with pytest.raises(UsageError):
        powerset_biposet(POWERSET_CAP + 1)
    with pytest.raises(UsageError):
        powerset_biposet(-1)


def test_divisibility_small():
    bp = divisibility_biposet(3)
    assert bp.ground.labels == ("1", "2", "3")
    assert bp.d.code == (311, 279)
    # r1 is the numeric order, r2 divisibility
    assert bp.d.r1.has(1, 2)
    assert not bp.d.r2.has(1, 2)
    assert check_classical_por(bp.d.r1).ok
    assert check_classical_por(bp.d.r2).ok


def test_divisibility_twelve_is_valid():
    bp = divisibility_biposet(12)
    assert check_axioms(bp.d).ok
    assert bp.d.r2.has(0, 11) and bp.d.r2.has(2, 11)  # 1|12 and 3|12
    assert not bp.d.r2.has(4, 11)                     # 5 does not divide 12


def test_divisibility_rejects_nonpositive():
    with pytest.raises(UsageError):
        divisibility_biposet(0)


def test_powerset_at_the_cap_within_time_bound(powerset_at_cap):
    bp, elapsed = powerset_at_cap
    assert bp.certificate == "valid" and bp.n == 1 << POWERSET_CAP
    assert sum(row.bit_count() for row in bp.d.r1.rows) == 3 ** POWERSET_CAP
    assert elapsed < 10.0, f"powerset_biposet({POWERSET_CAP}) took {elapsed:.1f} s"


def test_dual_at_the_cap_within_time_bound(powerset_at_cap):
    # r1 and r2 share one row tuple, so the dual transposes it once; inclusion
    # transposed is its converse, so row x of the dual holds the subsets of x
    bp, _ = powerset_at_cap
    start = time.perf_counter()
    dual_bp = dual_biposet(bp)
    elapsed = time.perf_counter() - start
    assert dual_bp.d.r1 is dual_bp.d.r2
    assert all(row == sum(1 << y for y in range(x + 1) if y & ~x == 0)
               for x, row in enumerate(dual_bp.d.r1.rows[:64]))
    assert elapsed < 3.0, f"dual_biposet at the powerset cap took {elapsed:.2f} s"


def test_divisibility_rows_match_the_predicates():
    for k in range(1, 73):
        bp = divisibility_biposet(k)
        assert bp.d.r1 == Rel.from_predicate(k, lambda i, j: i <= j)
        assert bp.d.r2 == Rel.from_predicate(k, lambda i, j: (j + 1) % (i + 1) == 0)


def test_divisibility_cap():
    with pytest.raises(UsageError, match="cap"):
        divisibility_biposet(DIVISIBILITY_CAP + 1)


def test_divisibility_at_the_cap_within_time_bound():
    start = time.perf_counter()
    bp = divisibility_biposet(DIVISIBILITY_CAP)
    elapsed = time.perf_counter() - start
    assert bp.certificate == "valid" and bp.n == DIVISIBILITY_CAP
    assert bp.d.r2.rows[0] == (1 << DIVISIBILITY_CAP) - 1     # 1 divides everything
    assert elapsed < 10.0, f"divisibility_biposet({DIVISIBILITY_CAP}) took {elapsed:.1f} s"
