"""Print sha256 digests of the oracle's frozen outputs for this checkout.

    python3 scripts/frozen_digest.py

Four lines, one digest each: the codes of enumerate_biposets(1..4); the
reprs and replay results of verify_claim(c, n) for every registered claim
at n = 1..4; duality_sample(n, 30_000, s) for n = 2..4 and s = 0..4; and
validity_kernel on 99 seeded batches, nine at each n = 1..11. A change that
keeps these outputs prints the same four lines as its parent commit.
"""

import hashlib
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


if __name__ == "__main__":
    for name, lines in (("enumerate_biposets", enumeration()), ("verify_claim", findings()),
                        ("duality_sample", duality()), ("validity_kernel", kernel())):
        print(f"{name:<20} {digest(lines)}")
