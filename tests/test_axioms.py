"""The fast checkers against the direct-quantifier reference, plus frozen
single-structure verdicts."""

import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biposet import (
    AxiomVerdict,
    Check,
    Diamond,
    Rel,
    UsageError,
    biposet,
    check_axioms,
    check_classical_por,
    divisibility_biposet,
    enumerate_biposets,
    naive_check_axioms,
    naive_check_classical,
    powerset_biposet,
    validated,
    validity_kernel,
)

from biposet import GOLDEN_COUNTS, axioms
from biposet.core import prepare
from conftest import all_diamonds, bool_arrays, diamond, reflexive, row_cells, traced_peak


@st.composite
def diamonds(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = (1 << n) - 1
    r1 = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    r2 = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return Diamond(Rel(n, tuple(r1)), Rel(n, tuple(r2)))


@st.composite
def single_rels(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return Rel(n, tuple(rows))


def _agrees_with_reference(d):
    """check_axioms(d) against the reference: ok read before any witness,
    then the Checks in reverse axiom order, then the whole verdict."""
    verdict, ref = check_axioms(d), naive_check_axioms(d)
    assert verdict.ok == ref.ok, d
    assert verdict.transitive == ref.transitive, d
    assert verdict.antisymmetric == ref.antisymmetric, d
    assert verdict.reflexive == ref.reflexive, d
    assert verdict == ref, d
    return verdict


# agreement with the reference implementation

@given(diamonds())
@settings(max_examples=300)
def test_checker_agrees_with_reference(d):
    assert check_axioms(d) == naive_check_axioms(d)


def test_checker_agrees_with_reference_on_seeded_n4_draws():
    # the draws the n4 benchmark checks: reflexive, with uniform 12-bit
    # off-diagonal codes for r1 and r2 (bit k sets the k-th cell, row-major)
    cells = [(i, j) for i in range(4) for j in range(4) if i != j]

    def rel(code):
        rows = [1 << i for i in range(4)]
        for k, (i, j) in enumerate(cells):
            rows[i] |= (code >> k & 1) << j
        return Rel(4, tuple(rows))

    rng = random.Random(2024)
    ds = [Diamond(rel(rng.getrandbits(12)), rel(rng.getrandbits(12))) for _ in range(2000)]
    verdicts = [_agrees_with_reference(d) for d in ds]
    assert 0 < sum(v.ok for v in verdicts) < 200


def test_checker_agrees_exhaustively_up_to_n2():
    # every pair, reflexive or not, decided by the signatures' one AND
    for n in (1, 2):
        for d in all_diamonds(n):
            _agrees_with_reference(d)


# the one AND of two signatures on at most 4 points, against the prepared
# path and the reference

def all_rows(n, reflexive_only=False):
    """Every row tuple of a relation on n points, in code order."""
    rows = itertools.product(range(1 << n), repeat=n)
    return [r for r in rows if not reflexive_only or all(r[a] >> a & 1 for a in range(n))]


def test_signature_decision_agrees_with_the_prepared_one_on_every_pair_at_n3():
    # all 512 x 512 pairs, reflexive or not, with each relation's signatures
    # and preparation computed once; the searches decide, up to the first
    # axiom that fails
    rows = all_rows(3)
    sig1, sig2 = zip(*map(axioms._signatures, rows))
    preps = [prepare(r) for r in rows]
    valid = 0
    for rows1, s1, (bits1, _, sym1) in zip(rows, sig1, preps):
        for rows2, s2, (bits2, cols2, sym2) in zip(rows, sig2, preps):
            ok = not s1 & s2
            holds = (axioms._check_reflexive(rows1, rows2)
                     and axioms._antisymmetric(rows1, sym1, rows2, sym2)
                     and axioms._transitive(rows1, bits1, rows2, bits2, cols2))
            assert ok is holds.ok, (rows1, rows2)
            valid += ok
    assert valid == GOLDEN_COUNTS[3]


def test_signature_decision_finds_exactly_the_kernel_valid_structures_at_n4():
    # the signatures decide the 4,096^2 reflexive pairs, ANDed in numpy, a
    # 64-bit word at a time and 256 r1 rows per block; the bit-plane kernel
    # decides every r1 against each of the 355 preorders, the only r2 a
    # valid structure can have, found here by transitivity alone
    rows = all_rows(4, reflexive_only=True)
    sigs = [axioms._signatures(r) for r in rows]
    low1, high1, low2, high2 = (
        np.array([s[role] >> shift & (1 << 64) - 1 for s in sigs], dtype=np.uint64)
        for role in (0, 1) for shift in (0, 64))
    valid = set()
    for start in range(0, len(rows), 256):
        block = slice(start, start + 256)
        meet = (low1[block, None] & low2) | (high1[block, None] & high2)
        for i, j in zip(*np.nonzero(meet == 0)):
            valid.add((rows[start + i], rows[j]))
    pre = [r for r in rows
           if all(r[b] | r[a] == r[a] for a in range(4) for b in range(4) if r[a] >> b & 1)]
    assert len(pre) == 355
    ok = validity_kernel(np.repeat(row_cells(rows, 4), len(pre), axis=0),
                         np.tile(row_cells(pre, 4), (len(rows), 1, 1)))
    assert valid == {(rows[k // len(pre)], pre[k % len(pre)]) for k in np.nonzero(ok)[0].tolist()}
    assert len(valid) == 167_655


def test_signature_decision_agrees_with_the_reference_on_seeded_non_reflexive_n4_pairs():
    # each pair has at least one relation without some loop, so the
    # reference resolves every witness of a failing verdict
    rng = random.Random(404)
    full = set(all_rows(4, reflexive_only=True))
    cases = []
    while len(cases) < 300:
        rows1, rows2 = (tuple(rng.getrandbits(4) for _ in range(4)) for _ in range(2))
        if rows1 not in full or rows2 not in full:
            cases.append(Diamond(Rel(4, rows1), Rel(4, rows2)))
    for d in cases:
        assert not _agrees_with_reference(d).ok


def test_ok_on_warm_n4_draws_neither_prepares_nor_searches(monkeypatch):
    # once the signatures of the draws' relations are memoised, deciding
    # reads the table alone
    rng = random.Random(4)
    ds = [Diamond(*(Rel(4, tuple(rng.getrandbits(4) | 1 << a for a in range(4)))
                    for _ in range(2))) for _ in range(3000)]
    warm = [check_axioms(d).ok for d in ds]

    def called(*args):
        raise AssertionError("prepared or searched while deciding")

    for name in ("prepare", "_signatures", "_axiom_checks", "_transitive_pair",
                 "_check_reflexive", "_antisymmetric", "_transitive"):
        monkeypatch.setattr(axioms, name, called)
    assert [check_axioms(d).ok for d in ds] == warm
    assert 0 < sum(warm) < len(ds)


def test_past_4_points_a_row_tuple_shared_by_r1_and_r2_is_prepared_once(monkeypatch):
    # the powerset's r1 and r2 are one row tuple, the divisibility's two
    real, calls = axioms.prepare, []
    monkeypatch.setattr(axioms, "prepare", lambda rows: calls.append(rows) or real(rows))
    for bp, prepared in ((powerset_biposet(4), 1), (divisibility_biposet(12), 2)):
        calls.clear()
        assert check_axioms(bp.d).ok and len(calls) == prepared


@given(single_rels())
@settings(max_examples=300)
def test_classical_checker_agrees_with_reference(r):
    assert check_classical_por(r) == naive_check_classical(r)


def test_classical_checker_agrees_exhaustively_at_n2():
    for code in range(1 << 4):
        r = Rel(2, (code & 3, code >> 2))
        assert check_classical_por(r) == naive_check_classical(r)


# frozen verdicts on pinned structures

def test_identity_pair_is_valid():
    d = Diamond(Rel.identity(3), Rel.identity(3))
    assert check_axioms(d).ok


def test_full_identity_pair_is_valid():
    # r1 total, r2 discrete: valid even though r1 alone is not antisymmetric
    d = Diamond(Rel.full(2), Rel.identity(2))
    verdict = check_axioms(d)
    assert verdict.ok
    assert not check_classical_por(d.r1).ok


def test_missing_loop_fails_reflexivity_with_least_witness():
    d = diamond(3, [(0, 0), (2, 2)], [(0, 0), (1, 1), (2, 2)])
    verdict = check_axioms(d)
    assert not verdict.reflexive.ok
    assert verdict.reflexive.witness == (1,)


def test_antisymmetry_failure_witness():
    # 0 and 1 related both ways in r1, joined to 2 by r2, and r2 loops back
    d = reflexive(
        3,
        [(0, 1), (1, 0), (0, 2)],
        [(0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1)],
    )
    verdict = check_axioms(d)
    assert not verdict.antisymmetric.ok
    assert verdict.antisymmetric.witness == (0, 0, 1)
    assert naive_check_axioms(d).antisymmetric == verdict.antisymmetric


def test_validity_is_decided_without_searching_a_witness(monkeypatch):
    # the antisymmetry failure above: ok comes from the decision alone, and
    # each least witness is searched only when its Check is read
    d = reflexive(3, [(0, 1), (1, 0), (0, 2)],
                  [(0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1)])

    def searched(*args):
        raise AssertionError("witness searched while deciding")

    for name in ("_check_reflexive", "_antisymmetric", "_transitive"):
        monkeypatch.setattr(axioms, name, searched)
    verdict = check_axioms(d)
    assert verdict.ok is False and not verdict
    monkeypatch.undo()
    assert verdict.antisymmetric == Check(False, (0, 0, 1))
    assert verdict == naive_check_axioms(d)


def test_deferred_verdict_matches_the_eager_one():
    d = reflexive(3, [(0, 1), (1, 0), (0, 2)],
                  [(0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1)])
    read = check_axioms(d)
    eager = AxiomVerdict(read.reflexive, read.antisymmetric, read.transitive)
    assert check_axioms(d) == eager and eager == check_axioms(d)
    assert hash(check_axioms(d)) == hash(eager)
    assert repr(check_axioms(d)) == repr(eager) == (
        "AxiomVerdict(reflexive=Check(ok=True, witness=None, reason=None), "
        "antisymmetric=Check(ok=False, witness=(0, 0, 1), reason=None), "
        "transitive=Check(ok=False, witness=(1, 0, 0, 2, 0), reason='first'))")
    assert not eager.ok and not eager
    assert pickle.loads(pickle.dumps(check_axioms(d))) == eager
    assert AxiomVerdict(*[Check(True)] * 3).ok
    assert check_axioms(d) != check_axioms(Diamond(Rel.identity(3), Rel.identity(3)))
    for verdict in (check_axioms(d), eager):
        with pytest.raises(AttributeError):
            verdict.reflexive = Check(True)
        with pytest.raises(AttributeError):
            verdict.extra = 1


def test_verdict_compares_unequal_to_other_types():
    d = reflexive(3, [(0, 1), (1, 0), (0, 2)],
                  [(0, 1), (1, 0), (0, 2), (1, 2), (2, 0), (2, 1)])
    assert (check_axioms(d) == 0) is False


def test_deferred_verdict_refuses_searches_that_all_hold(monkeypatch):
    # a failing decision whose searches find nothing is an internal error
    d = diamond(2, [(0, 0)], [(0, 0), (1, 1)])
    verdict = check_axioms(d)
    assert not verdict.ok
    monkeypatch.setattr(axioms, "_check_reflexive", lambda rows1, rows2: Check(True))
    with pytest.raises(RuntimeError, match="disagree"):
        list(verdict.items())


def test_transitivity_failure_least_witness_and_detail():
    # frozen: valid structure whose transpose pair breaks transitivity
    d = diamond(
        3,
        [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)],
        [(0, 0), (1, 0), (1, 1), (2, 2)],
    )
    verdict = check_axioms(d)
    assert verdict.reflexive.ok and verdict.antisymmetric.ok
    assert not verdict.transitive.ok
    assert verdict.transitive.witness == (2, 0, 0, 1, 0)
    assert verdict.transitive.reason == "first"
    assert naive_check_axioms(d) == verdict


def test_classical_pair_is_always_valid():
    # two classical partial orders over one set always form a valid pair
    for n in (2, 3):
        full = (1 << n) - 1
        classical = []
        for code in range((full + 1) ** n):
            rows = tuple((code >> (i * n)) & full for i in range(n))
            r = Rel(n, rows)
            if check_classical_por(r).ok:
                classical.append(r)
        assert len(classical) == {2: 3, 3: 19}[n]
        for r1 in classical:
            for r2 in classical:
                assert check_axioms(Diamond(r1, r2)).ok


def test_transitive_detail_values_at_n2():
    # two elements never break both conclusion chains at the least witness
    seen = set()
    for d in all_diamonds(2):
        verdict = check_axioms(d)
        if not verdict.transitive.ok:
            seen.add(verdict.transitive.reason)
    assert seen == {"first", "second"}


def test_transitive_detail_both():
    d = diamond(
        3,
        [(0, 0), (1, 1), (1, 2), (2, 0), (2, 2)],
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)],
    )
    verdict = check_axioms(d)
    assert not verdict.transitive.ok
    assert verdict.transitive.witness == (1, 2, 1, 0, 0)
    assert verdict.transitive.reason == "both"
    assert naive_check_axioms(d) == verdict


def test_classical_verdict_witnesses():
    r = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2)])
    verdict = check_classical_por(r)
    assert not verdict.antisymmetric.ok
    assert verdict.antisymmetric.witness == (0, 1)
    assert not verdict.transitive.ok
    assert verdict.transitive.witness == (0, 1, 2)


def test_every_axiom_verdict_field_is_a_core_check():
    # one verdict type: each axiom of both checkers and both references is a
    # core.Check, and items() reads them in axiom order
    cases = list(all_diamonds(2)) + [
        diamond(3, [(0, 0), (1, 1), (1, 2), (2, 0), (2, 2)],
                [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)]),
    ]
    for d in cases:
        for verdict in (check_axioms(d), naive_check_axioms(d),
                        check_classical_por(d.r1), naive_check_classical(d.r1)):
            assert isinstance(verdict, AxiomVerdict)
            names = [name for name, _ in verdict.items()]
            assert names == ["reflexive", "antisymmetric", "transitive"]
            for name, ax in verdict.items():
                assert type(ax) is Check and ax is getattr(verdict, name)
                assert ax.ok == (ax.witness is None)
    labels = {check_axioms(d).transitive.reason for d in cases}
    assert labels == {None, "first", "second", "both"}


def test_validated_caches_certificate():
    bp = biposet(["a"], [(0, 0)], [(0, 0)])
    out = validated(bp)
    assert out.certificate == "valid"
    assert validated(out) is out


def test_validated_raises_with_axiom_name():
    bp = biposet(["a", "b"], [(0, 0)], [(0, 0), (1, 1)])
    with pytest.raises(UsageError, match="reflexive"):
        validated(bp)


def test_checker_agrees_with_reference_on_random_diamonds_up_to_n7():
    # the whole verdict, witnesses and detail included, on seeded inputs that
    # are not reflexive in general, plus valid structures with one or two
    # cells flipped, whose least transitivity witness sits deep in the scan;
    # past 4 points each axiom fails somewhere, so every witness of the
    # one-pass searches meets the reference
    rng = random.Random(77)
    valid = [divisibility_biposet(k).d for k in range(1, 8)]
    valid += [powerset_biposet(k).d for k in (1, 2)]
    valid += rng.sample(list(enumerate_biposets(3)), 60)
    valid += [Diamond(d.r2, d.r1) for d in valid]
    cases = []
    for _ in range(1500):
        n = rng.randint(1, 7)
        density = rng.choice((0.2, 0.5, 0.8, 0.95))
        r1, r2 = ([sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
                  for _ in range(2))
        cases.append(Diamond(Rel(n, tuple(r1)), Rel(n, tuple(r2))))
    for _ in range(1500):
        d = rng.choice(valid)
        rows = [list(d.r1.rows), list(d.r2.rows)]
        for _ in range(rng.randint(1, 2)):
            rows[rng.randrange(2)][rng.randrange(d.n)] ^= 1 << rng.randrange(d.n)
        cases.append(Diamond(Rel(d.n, tuple(rows[0])), Rel(d.n, tuple(rows[1]))))
    details, failed_past_4 = set(), set()
    for d in cases:
        verdict = _agrees_with_reference(d)
        details.add(verdict.transitive.reason)
        if d.n > 4:
            failed_past_4.update(name for name, ax in verdict.items() if not ax)
    assert details == {None, "first", "second", "both"}
    assert failed_past_4 == {"reflexive", "antisymmetric", "transitive"}
    assert sum(check_axioms(d).ok for d in cases) > 50


def test_validity_kernel_matches_check_axioms_on_seeded_cases():
    # seeded inputs that are not reflexive in general, batched once per n;
    # every reflexive n=3 pair is test_oracle's all_reflexive_n3 test
    rng = random.Random(31)
    by_n = {}
    for _ in range(3000):
        n = rng.randint(1, 7)
        density = rng.choice((0.3, 0.7, 0.95))
        r1, r2 = ([sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
                  for _ in range(2))
        by_n.setdefault(n, []).append(Diamond(Rel(n, tuple(r1)), Rel(n, tuple(r2))))
    valid = 0
    for n, ds in by_n.items():
        got = validity_kernel(*bool_arrays(ds, n)).tolist()
        assert got == [check_axioms(d).ok for d in ds], n
        valid += sum(got)
    assert 50 < valid < 3000


def test_wide_rows_share_their_index_ints():
    # a wide row's set-bit tuple points into one tuple of the indices, so a
    # set bit costs one pointer; with a new int per index at 257 or above
    # this call peaked at 4.4 MB
    verdict, peak = traced_peak(check_axioms, divisibility_biposet(512).d)
    assert verdict.ok
    assert peak < 2_000_000, f"check_axioms peak {peak / 1e6:.1f} MB"
