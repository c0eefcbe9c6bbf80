"""Print sha256 digests of the oracle's frozen outputs for this checkout.

    python3 scripts/frozen_digest.py

Six lines, one digest each: the codes of enumerate_biposets(1..4); the
reprs and replay results of verify_claim(c, n) for every registered claim
at n = 1..4; duality_sample(n, 30_000, s) for n = 2..4 and s = 0..4;
validity_kernel on 99 seeded batches, nine at each n = 1..11; the repr
of check_axioms(d), every least witness included, on a fixed corpus: all
4,096 reflexive pairs at n = 3, seeded free and reflexive draws at
n = 1..9, and every one-cell flip of powerset_biposet(1..3) and
divisibility_biposet(1..7); the text of serialize_structure and of
emit_dot for components 1, 2 and both on every structure at n = 1..3,
powerset_biposet(0..6) and divisibility_biposet(1..24). A change that keeps
these outputs prints the same six lines as its parent commit.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import biposet  # noqa: E402


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def enumeration():
    for n in range(1, 5):
        for d in biposet.enumerate_biposets(n):
            yield d.code


def findings():
    for n in range(1, 5):
        for claim in biposet.CLAIM_IDS:
            f = biposet.verify_claim(claim, n)
            yield repr(f), biposet.replay_finding(f)


def duality():
    for n in range(2, 5):
        for seed in range(5):
            yield biposet.duality_sample(n, 30_000, seed)


def kernel():
    # nine batches per n: three densities, each drawn free, drawn reflexive,
    # and as linear orders (r, r) with one cell of r1 flipped at that rate
    for n in range(1, 12):
        for k in range(9):
            rng = np.random.default_rng(100 * n + k)
            density = (0.3, 0.7, 0.95)[k % 3]
            R1 = rng.random((300, n, n)) < density
            R2 = rng.random((300, n, n)) < density
            if k >= 3:
                R1[:, range(n), range(n)] = R2[:, range(n), range(n)] = True
            if k >= 6:
                rank = rng.permuted(np.tile(np.arange(n), (300, 1)), axis=1)
                R2 = rank[:, :, None] <= rank[:, None, :]
                R1 = R2.copy()
                flip = np.flatnonzero(rng.random(300) < density)
                R1[flip, rng.integers(0, n, len(flip)), rng.integers(0, n, len(flip))] ^= True
            yield biposet.validity_kernel(R1, R2).tolist()


def _diamond(n, rows1, rows2):
    return biposet.Diamond(biposet.Rel(n, tuple(rows1)), biposet.Rel(n, tuple(rows2)))


def axiom_corpus():
    # a reflexive n = 3 relation per 6-bit code: bit k sets the k-th
    # off-diagonal cell, row-major
    offdiag = [(i, j) for i in range(3) for j in range(3) if i != j]
    rels = []
    for code in range(64):
        rows = [1 << i for i in range(3)]
        for k, (i, j) in enumerate(offdiag):
            rows[i] |= (code >> k & 1) << j
        rels.append(rows)
    for rows1 in rels:
        for rows2 in rels:
            yield _diamond(3, rows1, rows2)
    for n in range(1, 10):
        rng = random.Random(n)
        for k in range(600):
            density = (0.3, 0.7, 0.95)[k % 3]
            rows1, rows2 = ([sum(1 << j for j in range(n) if rng.random() < density)
                             for _ in range(n)] for _ in range(2))
            if k >= 300:   # the second half drawn reflexive
                rows1 = [row | 1 << i for i, row in enumerate(rows1)]
                rows2 = [row | 1 << i for i, row in enumerate(rows2)]
            yield _diamond(n, rows1, rows2)
    valid = [biposet.powerset_biposet(k) for k in range(1, 4)]
    valid += [biposet.divisibility_biposet(k) for k in range(1, 8)]
    for bp in valid:
        n = bp.n
        for side in range(2):
            for i in range(n):
                for j in range(n):
                    rows = [list(bp.d.r1.rows), list(bp.d.r2.rows)]
                    rows[side][i] ^= 1 << j
                    yield _diamond(n, *rows)


def axioms():
    for d in axiom_corpus():
        yield repr(biposet.check_axioms(d))


def writers():
    grounds = {n: biposet.GroundSet(tuple(f"e{i}" for i in range(n))) for n in range(1, 4)}
    structures = [biposet.BiPoset(grounds[n], d)
                  for n in range(1, 4) for d in biposet.enumerate_biposets(n)]
    structures += [biposet.powerset_biposet(k) for k in range(7)]
    structures += [biposet.divisibility_biposet(k) for k in range(1, 25)]
    for bp in structures:
        yield biposet.serialize_structure(bp)
        for component in ("1", "2", "both"):
            yield biposet.emit_dot(bp, component)


if __name__ == "__main__":
    for name, lines in (("enumerate_biposets", enumeration()), ("verify_claim", findings()),
                        ("duality_sample", duality()), ("validity_kernel", kernel()),
                        ("check_axioms", axioms()), ("writers", writers())):
        print(f"{name:<20} {digest(lines)}")
