"""The fast checkers against the direct-quantifier reference, plus frozen
single-structure verdicts."""

import pickle
import random

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

from biposet import axioms
from conftest import all_diamonds, bool_arrays, diamond, reflexive


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


def test_checker_agrees_exhaustively_at_n2():
    for d in all_diamonds(2):
        assert check_axioms(d) == naive_check_axioms(d)


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
    # cells flipped, whose least transitivity witness sits deep in the scan
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
    details = set()
    for d in cases:
        details.add(_agrees_with_reference(d).transitive.reason)
    assert details == {None, "first", "second", "both"}
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
