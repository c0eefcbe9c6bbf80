import itertools
import time
import tracemalloc

import numpy as np
import pytest

from biposet import Diamond, Rel, powerset_biposet
from biposet import oracle
from biposet.constructions import POWERSET_CAP


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw allocated during the call).
    numpy reports its buffers to tracemalloc, so array temporaries count."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


# the oracle caches built from what tests patch (oracle._structures,
# oracle._leq_galois); _structures, _preorder_codes and _ground are built
# from nothing a test patches, and a patch replaces the name, not the cache
DERIVED_CACHES = (oracle._orbits, oracle._poset_classes, oracle._galois_count)


def clear_oracle_caches():
    """Empty the oracle caches built from what tests patch."""
    for cached in DERIVED_CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_oracle_caches():
    """The derived oracle caches empty before and after the test, for a test
    that patches what they are built from: the test reads no class or count
    built without its patch, and no later test reads one built with it."""
    clear_oracle_caches()
    yield
    clear_oracle_caches()


@pytest.fixture(scope="session")
def structures4():
    """oracle._structures(4), enumerated once per session for every n = 4
    test, with the seconds that first call took."""
    start = time.perf_counter()
    structs = oracle._structures(4)
    return structs, time.perf_counter() - start


@pytest.fixture(scope="session")
def powerset_at_cap():
    """powerset_biposet(POWERSET_CAP), built once per session for every test
    at the cap, with the seconds that first build took."""
    start = time.perf_counter()
    bp = powerset_biposet(POWERSET_CAP)
    return bp, time.perf_counter() - start


def diamond(n, pairs1, pairs2):
    return Diamond(Rel.from_pairs(n, pairs1), Rel.from_pairs(n, pairs2))


def reflexive(n, pairs1, pairs2):
    loops = [(i, i) for i in range(n)]
    return diamond(n, list(pairs1) + loops, list(pairs2) + loops)


def all_diamonds(n):
    """The complete diamond space at size n, reflexive or not."""
    codes = range(1 << (n * n))
    for c1, c2 in itertools.product(codes, codes):
        r1 = Rel(n, tuple((c1 >> (i * n)) & ((1 << n) - 1) for i in range(n)))
        r2 = Rel(n, tuple((c2 >> (i * n)) & ((1 << n) - 1) for i in range(n)))
        yield Diamond(r1, r2)


def all_reflexive_diamonds(n):
    mask = (1 << n) - 1
    rels = []
    for code in range(1 << (n * n)):
        rows = tuple((code >> (i * n)) & mask for i in range(n))
        if all((rows[i] >> i) & 1 for i in range(n)):
            rels.append(Rel(n, rows))
    for r1 in rels:
        for r2 in rels:
            yield Diamond(r1, r2)


def bool_arrays(ds, n):
    """(B, n, n) bool arrays of the diamonds' two relations, as validity_kernel takes them."""
    def cells(rel):
        return [[(row >> j) & 1 for j in range(n)] for row in rel.rows]

    R1 = np.array([cells(d.r1) for d in ds], dtype=bool).reshape(len(ds), n, n)
    R2 = np.array([cells(d.r2) for d in ds], dtype=bool).reshape(len(ds), n, n)
    return R1, R2
