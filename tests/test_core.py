import copy
import dataclasses
import itertools
import pickle
import pprint
import random
import sys
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biposet import (
    AdjointReport,
    BiPoset,
    Check,
    Diamond,
    ExtremalReport,
    Finding,
    GaloisPair,
    GroundSet,
    Mapping,
    Rel,
    UsageError,
    biposet,
    chain,
    check_axioms,
    check_classical_por,
    diamond_leq,
    dual,
    enumerate_biposets,
    is_isomorphism,
    naive_check_axioms,
    powerset_biposet,
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
    # inputs that once built a value whose hash, or whose size, was broken
    (lambda: GroundSet(["a", "b"]), "element labels must be a tuple of str"),
    (lambda: GroundSet(("a", 1)), "element labels must be a tuple of str"),
    (lambda: Rel(True, (1,)), "relation dimension must be an int, not bool"),
    (lambda: Rel(2.0, (1, 2)), "relation dimension must be an int, not float"),
    (lambda: Mapping(True, True, (0,)), "mapping source size must be an int, not bool"),
    (lambda: Mapping(1, True, (0,)), "mapping target size must be an int, not bool"),
    (lambda: Mapping(1, "2", (0,)), "mapping target size must be an int, not str"),
    (lambda: Mapping(2, 2, [0, 1]), "mapping image must be a tuple, not list"),
    (lambda: Mapping(2, 2, (0.0, 1.0)), "mapping image value must be an int, not float"),
    (lambda: Mapping(2, 2, (True, False)), "mapping image value must be an int, not bool"),
    (lambda: Mapping(2, 2, (0, True)), "mapping image value must be an int, not bool"),
    (lambda: Mapping(2, 2, (np.int64(0), 1)), "mapping image value must be an int, not int64"),
    (lambda: Mapping(2, 2, ("a", "b")), "mapping image value must be an int, not str"),
    (lambda: Mapping(0, 0, ()), "mapping sizes must be at least 1"),
    (lambda: Mapping(0, 1, ()), "mapping sizes must be at least 1"),
    (lambda: Mapping(1, 0, (0,)), "mapping sizes must be at least 1"),
    (lambda: Mapping(-1, 2, ()), "mapping sizes must be at least 1"),
    (lambda: GaloisPair((0, 1), (1, 0)), "pair maps must be Mapping, not tuple"),
    (lambda: GaloisPair(Mapping(1, 1, (0,)), "x"), "pair maps must be Mapping, not str"),
    (lambda: GaloisPair(None, Mapping(1, 1, (0,))), "pair maps must be Mapping, not NoneType"),
    (lambda: GaloisPair(Mapping(1, 1, (0,)), None), "pair maps must be Mapping, not NoneType"),
    # a BiPoset where a Diamond is expected
    (lambda: check_axioms(biposet(["a"], [(0, 0)], [(0, 0)])),
     r"check_axioms takes a Diamond .*, not BiPoset"),
    (lambda: dual(powerset_biposet(1)), r"dual takes a Diamond .*, not BiPoset"),
    (lambda: check_axioms(None), r"check_axioms takes a Diamond .*, not NoneType"),
    # a value of another class where a Diamond or BiPoset takes one
    (lambda: Diamond(powerset_biposet(1), powerset_biposet(1)),
     "Diamond takes two Rels, not BiPoset and BiPoset"),
    (lambda: Diamond(Rel.identity(1), (1,)), "Diamond takes two Rels, not Rel and tuple"),
    (lambda: Diamond(RelTwin(1, (1,)), Rel.identity(1)),
     "Diamond takes two Rels, not RelTwin and Rel"),
    (lambda: BiPoset(("a", "b"), powerset_biposet(1).d),
     "BiPoset takes a GroundSet and a Diamond, not tuple and Diamond"),
    (lambda: BiPoset(GroundSet(("a",)), biposet(["a"], [(0, 0)], [(0, 0)])),
     "BiPoset takes a GroundSet and a Diamond, not GroundSet and BiPoset"),
])
def test_boundary_guards_raise_usage_error(build, message):
    with pytest.raises(UsageError, match=message):
        build()


# the value classes are written by hand; their twins are what
# @dataclass(frozen=True, slots=True) made of them


@dataclasses.dataclass(frozen=True, slots=True)
class GroundSetTwin:
    labels: tuple[str, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class RelTwin:
    n: int
    rows: tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class DiamondTwin:
    r1: RelTwin
    r2: RelTwin


@dataclasses.dataclass(frozen=True, slots=True)
class BiPosetTwin:
    ground: GroundSetTwin
    d: DiamondTwin
    certificate: Optional[str] = None


@dataclasses.dataclass(frozen=True, slots=True)
class CheckTwin:
    ok: bool
    witness: Optional[tuple] = None
    reason: Optional[str] = None


@dataclasses.dataclass(frozen=True, slots=True)
class MappingTwin:
    src_n: int
    dst_n: int
    img: tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class GaloisPairTwin:
    f: MappingTwin
    g: MappingTwin


@dataclasses.dataclass(frozen=True, slots=True)
class AdjointReportTwin:
    f_isotone: bool
    g_isotone: bool
    unit_holds: bool
    counit_holds: bool


@dataclasses.dataclass(frozen=True, slots=True)
class ExtremalReportTwin:
    x: Optional[int]
    y: Optional[int]
    g_max: Optional[int]
    g_min: Optional[int]
    u: Optional[int]
    v: Optional[int]
    l_max: Optional[int]
    l_min: Optional[int]
    bounded: bool
    notes: tuple[str, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class FindingTwin:
    claim: str
    scale: tuple[int, ...]
    verdict: str
    witness: Optional[dict] = None
    instances_checked: int = 0
    seed: Optional[int] = None
    budget: Optional[int] = None
    notes: tuple[str, ...] = ()


KINDS = ("GroundSet", "Rel", "Diamond", "BiPoset", "Check", "Mapping", "GaloisPair",
         "AdjointReport", "ExtremalReport", "Finding")


def _mapping_args(draw, src_n, dst_n):
    return src_n, dst_n, draw(st.tuples(*[st.integers(0, dst_n - 1)] * src_n))


@st.composite
def values_and_twins(draw, kind=None):
    """A value class instance and its twin, of the given kind or any, from
    spaces small enough that two draws are often equal."""
    kind = kind or draw(st.sampled_from(KINDS))
    if kind in ("Mapping", "GaloisPair"):
        p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        f = _mapping_args(draw, p, q)
        if kind == "Mapping":
            return Mapping(*f), MappingTwin(*f)
        g = _mapping_args(draw, q, p)
        return (GaloisPair(Mapping(*f), Mapping(*g)),
                GaloisPairTwin(MappingTwin(*f), MappingTwin(*g)))
    if kind == "AdjointReport":
        flags = draw(st.tuples(*[st.booleans()] * 4))
        return AdjointReport(*flags), AdjointReportTwin(*flags)
    if kind == "ExtremalReport":
        args = (*draw(st.tuples(*[st.none() | st.integers(0, 1)] * 8)), draw(st.booleans()),
                tuple(draw(st.lists(st.sampled_from(["tie", "apart"]), max_size=1))))
        return ExtremalReport(*args), ExtremalReportTwin(*args)
    if kind == "GroundSet":
        labels = tuple(draw(st.lists(st.text("ab", min_size=1, max_size=2), min_size=1,
                                     max_size=2, unique=True)))
        return GroundSet(labels), GroundSetTwin(labels)
    if kind == "Check":
        args = (draw(st.booleans()), draw(st.none() | st.tuples(st.integers(0, 1))),
                draw(st.none() | st.sampled_from(["first", "both"])))
        args = args[:draw(st.integers(1, 3))]     # the defaults too
        return Check(*args), CheckTwin(*args)
    if kind == "Finding":
        # a witness is a dict, so the twin of such a Finding has no hash
        args = (draw(st.sampled_from(["DOUBLE_DUAL", "UNIQUE_GMAX"])),
                draw(st.tuples(st.integers(1, 2)) | st.tuples(st.integers(1, 2), st.just(1))),
                draw(st.sampled_from(["verified-at-scale", "counterexample"])),
                draw(st.none() | st.dictionaries(st.sampled_from(["P", "f"]), st.integers(0, 1),
                                                 max_size=1)),
                draw(st.integers(0, 1)), draw(st.none() | st.integers(0, 1)),
                draw(st.none() | st.integers(0, 1)),
                tuple(draw(st.lists(st.sampled_from(["a note"]), max_size=1))))
        args = args[:draw(st.integers(3, 8))]     # the defaults too
        return Finding(*args), FindingTwin(*args)
    n = draw(st.integers(1, 2))
    rows = [draw(st.tuples(*[st.integers(0, (1 << n) - 1)] * n)) for _ in range(2)]
    if kind == "Rel":
        return Rel(n, rows[0]), RelTwin(n, rows[0])
    d = Diamond(Rel(n, rows[0]), Rel(n, rows[1]))
    d_twin = DiamondTwin(RelTwin(n, rows[0]), RelTwin(n, rows[1]))
    if kind == "Diamond":
        return d, d_twin
    labels = ("a", "b")[:n] if draw(st.booleans()) else ("b", "a")[:n]
    certificate = draw(st.none() | st.just("valid"))
    return (BiPoset(GroundSet(labels), d, certificate),
            BiPosetTwin(GroundSetTwin(labels), d_twin, certificate))


def _hash(value):
    """hash(value), or the message of the TypeError an unhashable field
    raises."""
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _raised(action):
    with pytest.raises(dataclasses.FrozenInstanceError) as info:
        action()
    return str(info.value)


@given(values_and_twins())
def test_each_value_class_behaves_as_its_dataclass_twin(pair):
    value, twin = pair
    assert repr(value) == repr(twin).replace("Twin(", "(")
    if type(value) is Finding and value.witness is not None:
        # the one difference: a Finding hashes every field but its witness
        assert _hash(value) == hash(value._replace(witness=None)) != _hash(twin)
    else:
        assert _hash(value) == _hash(twin)
    assert type(value).__match_args__ == type(twin).__match_args__
    for name in type(twin).__match_args__:
        assert _raised(lambda: setattr(value, name, 1)) == _raised(lambda: setattr(twin, name, 1))
        assert _raised(lambda: delattr(value, name)) == _raised(lambda: delattr(twin, name))
    # where the twin raises TypeError (Python 3.11's slotted frozen dataclasses)
    assert _raised(lambda: setattr(value, "extra", 1)) == "cannot assign to field 'extra'"
    assert _raised(lambda: delattr(value, "extra")) == "cannot delete field 'extra'"
    for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(back) is type(value) and back == value and repr(back) == repr(value)


def test_the_signature_slots_of_a_rel_are_no_fields():
    # shared or not, a Rel on at most 4 points carries its signatures in two
    # slots that no field names (repr, ==, hash and pickling read the
    # fields: the twin tests) and that cannot be assigned
    for rows in ((0b11, 0b10), (0b01, 0b00)):
        r = Rel(2, rows)
        assert Rel.__match_args__ == tuple(f.name for f in dataclasses.fields(r)) == ("n", "rows")
        assert repr(r) == f"Rel(n=2, rows={rows})" and r.__reduce__() == (Rel, (2, rows))
        for name in ("_sig1", "_sig2"):
            assert _raised(lambda: setattr(r, name, 0)) == f"cannot assign to field {name!r}"
            assert _raised(lambda: delattr(r, name)) == f"cannot delete field {name!r}"
        assert (r._sig1, r._sig2) == core._signatures(rows)


@given(values_and_twins(), values_and_twins())
def test_value_classes_compare_as_their_dataclass_twins(first, second):
    (a, ta), (b, tb) = first, second
    assert (a == b, a != b) == (ta == tb, ta != tb)
    if a == b:
        assert _hash(a) == _hash(b)


def _fields(cls_or_value):
    return [(f.name, f.default) for f in dataclasses.fields(cls_or_value)]


@given(st.sampled_from(KINDS).flatmap(lambda kind: st.tuples(values_and_twins(kind),
                                                             values_and_twins(kind))))
def test_the_dataclass_functions_apply_as_to_the_twins(pairs):
    (value, twin), (other, other_twin) = pairs
    cls, twin_cls = type(value), type(twin)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert _fields(cls) == _fields(value) == _fields(twin_cls)
    params = ("init", "repr", "eq", "order", "unsafe_hash", "frozen")
    assert ([getattr(cls.__dataclass_params__, p) for p in params]
            == [getattr(twin_cls.__dataclass_params__, p) for p in params])
    assert dataclasses.replace(value) == value
    every = {name: getattr(other, name) for name in cls.__match_args__}
    assert dataclasses.replace(value, **every) == other == value._replace(**every)
    assert dataclasses.replace(twin, **{name: getattr(other_twin, name)
                                        for name in cls.__match_args__}) == other_twin
    for replace in (dataclasses.replace, type(value)._replace):
        with pytest.raises(TypeError):
            replace(value, extra=1)
    assert dataclasses.asdict(value) == dataclasses.asdict(twin)
    assert dataclasses.astuple(value) == dataclasses.astuple(twin)
    # pprint reads __dataclass_params__ once a repr is wider than its width
    # and prints a hand-written value as its repr, however narrow the width
    wide = pprint.pformat(twin, width=1000).replace("Twin(", "(")
    assert pprint.pformat(value) == pprint.pformat(value, width=20) == repr(value) == wide


def test_the_value_base_is_no_dataclass():
    assert dataclasses.fields(Rel) and not dataclasses.is_dataclass(core._Value)
    assert not hasattr(core._Value, "__dataclass_fields__")
    assert not hasattr(core._Value, "__dataclass_params__")


def test_dataclasses_replace_drops_the_certificate_of_a_structure():
    bp = powerset_biposet(3)
    bare = dataclasses.replace(bp, certificate=None)
    assert bp.certificate is not None and bare.certificate is None
    assert bare == BiPoset(bp.ground, bp.d) and bare.d is bp.d


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
        rbits, cols, sym = prepare(rows)
        assert rbits == tuple(tuple(b for b in range(n) if m[a][b]) for a in range(n))
        assert cols == tuple(sum(m[a][c] << a for a in range(n)) for c in range(n))
        assert sym == tuple(sum((m[a][b] & m[b][a]) << b for b in range(n)) for a in range(n))
        assert Rel(n, rows).transpose().rows == cols
        assert list(Rel(n, rows).pairs()) == [(a, b) for a in range(n) for b in range(n)
                                              if m[a][b]]
        img = tuple(rng.randrange(n) for _ in range(n))
        assert preimage_rows(rows, img) == tuple(
            sum(m[k][v] << i for i, v in enumerate(img)) for k in range(n))


# the tables of small relations, prepare's views and Rel's shared relations
# (the empty_memo fixture empties both), and the signatures each small Rel
# carries

def shared_rels():
    """The shared Rels, each of which carries core._signatures(rows)."""
    rels = list(core._RELS.values())
    assert all((r._sig1, r._sig2) == core._signatures(r.rows) for r in rels)
    return rels


def test_memo_agrees_with_reference_cold_and_warm_up_to_n3(empty_memo):
    # every reflexive pair at n <= 3 with resolved witnesses, built and
    # checked twice: the first pass starts from empty tables and fills them,
    # the second takes every relation, with the signatures it carries, from
    # Rel's table and its preparation from prepare's memo, so no test order
    # can hide a bad entry. Deciding prepares nothing; the first
    # witness read of a failing verdict prepares its two relations.
    passes, refs = [], []
    for _ in ("cold", "warm"):
        cases = [d for n in (1, 2, 3) for d in all_reflexive_diamonds(n)]
        verdicts = [check_axioms(d) for d in cases]
        oks = [verdict.ok for verdict in verdicts]
        if not refs:
            assert not empty_memo
            refs = [naive_check_axioms(d) for d in cases]
        for d, verdict, ok, ref in zip(cases, verdicts, oks, refs):
            assert ok == ref.ok and verdict == ref, d
        passes.append(cases)
    cold, warm = passes
    assert all(a.r1 is b.r1 and a.r2 is b.r2 for a, b in zip(cold, warm))
    assert len(shared_rels()) == 1 + 4 + 64
    failing = {d.r1.rows for d, ref in zip(cold, refs) if not ref.ok}
    failing |= {d.r2.rows for d, ref in zip(cold, refs) if not ref.ok}
    assert set(empty_memo) == failing and len(empty_memo) <= 1 + 4 + 64


def test_memo_holds_every_small_reflexive_relation_within_its_bound(empty_memo):
    # every relation on at most 4 points, reflexive or not, is built; Rel's
    # table holds the reflexive ones only, one entry each, and prepare's
    # memo the relations of the verdicts whose witnesses are read, here
    # every failing one. The signatures the shared Rels carry are sized by
    # getsizeof, two slots and two ints each: their big-int arithmetic runs
    # 25 times slower traced.
    rels = [Rel(n, rows) for n in range(1, 5)
            for rows in itertools.product(range(1 << n), repeat=n)]
    small = [r for r in rels if all(r.rows[a] >> a & 1 for a in range(r.n))]
    ds = [Diamond(r, r) for r in small]
    verdicts = [check_axioms(d) for d in ds]
    assert len(small) == len(shared_rels()) == 1 + 4 + 64 + 4096
    assert not empty_memo
    assert all(core._RELS[r.rows] is r for r in small)
    assert len(rels) - len(small) == sum(r.rows not in core._RELS for r in rels)
    # a Rel has two slots more than a Diamond, the two that hold its signatures
    slots = sys.getsizeof(small[0]) - sys.getsizeof(ds[0])
    table = sum(slots + sys.getsizeof(r._sig1) + sys.getsizeof(r._sig2) for r in small)
    assert table < 2_000_000, f"signatures {table / 1e6:.1f} MB"
    failing = [d.r1.rows for d, verdict in zip(ds, verdicts) if not verdict.ok]
    for verdict in verdicts:
        verdict.transitive
    assert set(empty_memo) == set(failing) and len(empty_memo) <= len(small)
    empty_memo.clear()
    _, peak = traced_peak(lambda: [prepare(rows) for rows in failing])
    assert peak < 2_000_000, f"prepare's memo peak {peak / 1e6:.1f} MB"


def test_memo_skips_non_reflexive_and_wider_relations(empty_memo):
    loose = Rel(3, (0b011, 0b010, 0b000))
    wide = Rel.identity(5)
    for d in (Diamond(loose, loose), Diamond(wide, wide), Diamond(loose.transpose(), loose)):
        check_axioms(d).transitive
        check_classical_por(d.r1)
    assert not empty_memo and not core._RELS
    assert Rel.identity(5) is not wide and Rel(3, loose.rows) is not loose
    # a non-reflexive Rel carries the two bits that fail every structure;
    # a Rel on more than 4 points carries no signatures
    assert (loose._sig1, loose._sig2) == core._signatures(loose.rows) == core._NOT_REFLEXIVE
    assert not hasattr(wide, "_sig1") and not hasattr(wide, "_sig2")


# Rel's shared small relations

def test_equal_small_relations_are_one_instance_however_built():
    r = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
    assert Rel(3, (0b011, 0b010, 0b100)) is r
    assert Rel.from_predicate(3, lambda i, j: i == j or (i, j) == (0, 1)) is r
    assert r.transpose().transpose() is r and r & Rel.full(3) is r


def test_a_shared_relation_is_its_own_pickle_and_copy():
    r = Rel(3, (0b011, 0b010, 0b111))
    for back in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert back is r
    assert copy.deepcopy(Diamond(r, r)).r2 is r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_double_dual_holds_the_relations_it_started_from(n):
    for d in enumerate_biposets(n):
        back = dual(dual(d))
        assert back.r1 is d.r1 and back.r2 is d.r2


def test_small_n4_draws_retain_one_relation_per_distinct_row_tuple(empty_memo):
    # 20,000 seeded reflexive n = 4 pairs from fresh row tuples: unshared,
    # their 40,000 Rels and row tuples retain about 5.7 MiB
    rng = random.Random(7)

    def draw():
        return tuple(rng.getrandbits(4) | 1 << a for a in range(4))

    tracemalloc.start()
    try:
        ds = [Diamond(Rel(4, draw()), Rel(4, draw())) for _ in range(20_000)]
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ds) == 20_000 and len(core._RELS) <= 4096
    assert retained <= 2.5 * 2**20, f"{retained / 2**20:.2f} MiB retained"


# each bad input raises the same error whether or not the Rel of the equal
# int rows is already shared
@pytest.mark.parametrize("cached", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("n, rows, ints, message", [
    pytest.param(2, [1, 3], (1, 3), "relation rows must be a tuple, not list", id="list"),
    pytest.param(1, (True,), (1,), "relation row mask must be an int, not bool", id="bool"),
    pytest.param(2, (1, True), (1, 3), "relation row mask must be an int, not bool",
                 id="bool-second"),
    pytest.param(2, (np.int64(1), 3), (1, 3), "relation row mask must be an int, not int64",
                 id="numpy"),
    pytest.param(True, (1,), (1,), "relation dimension must be an int, not bool", id="bool-n"),
    pytest.param(2.0, (1, 3), (1, 3), "relation dimension must be an int, not float",
                 id="float-n"),
    pytest.param(4, (1, 3, 5), (1, 3, 5), "row count does not match dimension", id="n-above"),
    pytest.param(1, (1, 3), (1, 3), "row count does not match dimension", id="n-below"),
    pytest.param(2, (1, 4), (1, 2), "row mask has bits outside the ground set",
                 id="out-of-range"),
])
def test_rel_refuses_bad_rows_whether_or_not_an_equal_rel_is_shared(
        empty_memo, n, rows, ints, message, cached):
    if cached:
        assert Rel(len(ints), ints) is core._RELS[ints]
    with pytest.raises(UsageError, match=message):
        Rel(n, rows)


def test_deferred_verdicts_sharing_a_memoised_relation_resolve_alike(empty_memo):
    # two failing verdicts are decided from the signatures `shared`
    # carries, as r1 and as r2, and the first witness read prepares it
    # once for both; each resolves to the repr an empty memo gives
    shared = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    ds = [Diamond(shared, Rel.full(3)), Diamond(Rel.full(3), shared)]
    warm = [check_axioms(d) for d in ds]
    assert shared in shared_rels() and not any(v.ok for v in warm)
    assert not empty_memo
    reprs = [repr(v) for v in reversed(warm)][::-1]
    assert shared.rows in empty_memo
    empty_memo.clear()
    cold = [repr(check_axioms(d)) for d in ds]
    assert reprs == cold == [repr(naive_check_axioms(d)) for d in ds]
