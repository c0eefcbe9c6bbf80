import time

import pytest

from biposet import (
    BiPoset,
    Rel,
    UsageError,
    biposet,
    check_classical_por,
    divisibility_biposet,
    extremal_report,
    powerset_biposet,
    sided_extreme,
)
from biposet.core import GroundSet, diamond_leq
from biposet.extremal import two_sided_values
from biposet.oracle import _structures

from conftest import reflexive


def chain_pair(n):
    le = Rel.from_predicate(n, lambda i, j: i <= j)
    return biposet([f"c{i}" for i in range(n)], list(le.pairs()), list(le.pairs()))


def test_sided_extreme_validates_input():
    bad = biposet(["a", "b"], [(0, 0)], [(0, 0), (1, 1)])
    with pytest.raises(UsageError):
        sided_extreme(bad, 1, "greatest")


def test_sided_extreme_argument_guards():
    bp = powerset_biposet(1)
    with pytest.raises(UsageError):
        sided_extreme(bp, 3, "greatest")
    with pytest.raises(UsageError):
        sided_extreme(bp, 1, "top")


def test_sided_extreme_on_chain():
    bp = chain_pair(3)
    assert sided_extreme(bp, 1, "greatest") == [2]
    assert sided_extreme(bp, 2, "greatest") == [2]
    assert sided_extreme(bp, 1, "least") == [0]
    assert sided_extreme(bp, 2, "least") == [0]


def test_sided_extreme_reports_ties():
    # r1 total: every element is r1-greatest and r1-least at once
    bp = biposet(["a", "b"], [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (1, 1)])
    assert sided_extreme(bp, 1, "greatest") == [0, 1]
    assert sided_extreme(bp, 1, "least") == [0, 1]
    assert sided_extreme(bp, 2, "greatest") == []


def test_two_sided_values():
    bp = chain_pair(2)
    assert two_sided_values(bp.d, [1], [1], want_sup=True) == {1}
    assert two_sided_values(bp.d, [0], [1], want_sup=True) == {1}
    assert two_sided_values(bp.d, [0], [1], want_sup=False) == {0}
    # incomparable qualifier pair produces no value at all
    d = reflexive(2, [(0, 1)], [(1, 0)])
    assert two_sided_values(d, [0], [1], want_sup=True) == set()


def test_report_bounded_powerset():
    rep = extremal_report(powerset_biposet(2))
    assert (rep.x, rep.y, rep.u, rep.v) == (3, 3, 0, 0)
    assert (rep.g_max, rep.g_min, rep.l_max, rep.l_min) == (3, 3, 0, 0)
    assert rep.bounded
    assert rep.notes == ()


def test_report_divisibility_unbounded():
    rep = extremal_report(divisibility_biposet(3))
    assert rep.x == 2          # the label "3"
    assert rep.y is None       # divisibility has no greatest below 6
    assert rep.g_max is None and rep.g_min is None
    assert rep.u == 0 and rep.v == 0
    assert rep.l_max == 0 and rep.l_min == 0
    assert not rep.bounded
    assert rep.notes == ()


def test_report_incomparable_pairs_noted():
    # r1-greatest is b, r2-greatest is a, and the two never diamond-compare
    bp = biposet(
        ["a", "b"],
        [(0, 0), (1, 1), (0, 1)],
        [(0, 0), (1, 1), (1, 0)],
    )
    rep = extremal_report(bp)
    assert rep.x == 1 and rep.y == 0
    assert rep.g_max is None and rep.g_min is None
    assert rep.u == 0 and rep.v == 1
    assert rep.l_max is None and rep.l_min is None
    assert not rep.bounded
    assert rep.notes == (
        "greatest pair incomparable: b a",
        "least pair incomparable: a b",
    )


def test_report_tie_anomaly_notes():
    bp = biposet(["a", "b"], [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (1, 1)])
    rep = extremal_report(bp)
    assert rep.x is None and rep.u is None
    assert any("component-1 greatest is not unique: a b" == note for note in rep.notes)
    assert any("component-1 least is not unique: a b" == note for note in rep.notes)


def test_report_single_element():
    rep = extremal_report(biposet(["o"], [(0, 0)], [(0, 0)]))
    assert rep == extremal_report(powerset_biposet(0))
    assert rep.bounded
    assert (rep.g_max, rep.g_min, rep.l_max, rep.l_min) == (0, 0, 0, 0)


def test_classical_check_and_extremal_report_at_the_cap_within_time_bound(powerset_at_cap):
    bp, _ = powerset_at_cap
    top = bp.n - 1
    start = time.perf_counter()
    verdict = check_classical_por(bp.d.r1)
    report = extremal_report(bp)
    elapsed = time.perf_counter() - start
    assert verdict.ok
    assert (report.x, report.y, report.u, report.v) == (top, top, 0, 0)
    assert report.bounded and report.notes == ()
    assert elapsed < 8.0, f"classical check and extremal report at the cap took {elapsed:.1f} s"


def column_extremes(r, direction):
    """The x whose column (greatest) or row (least) of r is full, by definition."""
    if direction == "greatest":
        return [x for x in range(r.n) if all(r.has(y, x) for y in range(r.n))]
    return [x for x in range(r.n) if all(r.has(x, y) for y in range(r.n))]


def every_valid_structure_up_to_n3():
    for n in (1, 2, 3):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        for d in _structures(n):
            yield BiPoset(ground, d)


def test_sided_extreme_matches_the_column_definition_up_to_n3():
    for bp in every_valid_structure_up_to_n3():
        for comp, r in ((1, bp.d.r1), (2, bp.d.r2)):
            for direction in ("greatest", "least"):
                assert sided_extreme(bp, comp, direction) == column_extremes(r, direction)


def test_no_r2_extreme_lies_strictly_below_an_r1_extreme_up_to_n3():
    # the case _bound leaves out: antisymmetry forbids it on a valid structure
    for bp in every_valid_structure_up_to_n3():
        for direction in ("greatest", "least"):
            for p in column_extremes(bp.d.r1, direction):
                for q in column_extremes(bp.d.r2, direction):
                    assert p == q or not diamond_leq(bp.d, q, p)
