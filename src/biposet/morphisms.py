"""Mappings between binary posets: isotone maps, isomorphisms, self-duality.

An isotone map preserves chains forward. An isomorphism is a bijection with
the chain condition in both directions; for reflexive structures this is
the same as preserving both relations edge-wise, which is what the
backtracking search exploits. Both the isomorphism check and the search
work on the row bitmasks of `Rel`: the check compares whole chain sets per
(a, b) and the search compares incremental row/column masks per candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .constructions import dual_biposet
from .core import BiPoset, Check, Diamond, Rel, UsageError, bits


@dataclass(frozen=True, slots=True)
class Mapping:
    src_n: int
    dst_n: int
    img: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.img) != self.src_n:
            raise UsageError("mapping image length does not match source size")
        if any(not 0 <= v < self.dst_n for v in self.img):
            raise UsageError("mapping image value out of range")

    def __call__(self, i: int) -> int:
        return self.img[i]

    @staticmethod
    def identity(n: int) -> "Mapping":
        return Mapping(n, n, tuple(range(n)))

    def is_bijection(self) -> bool:
        return self.src_n == self.dst_n and len(set(self.img)) == self.src_n

    def after(self, inner: "Mapping") -> "Mapping":
        """Composition self . inner (apply inner first)."""
        if inner.dst_n != self.src_n:
            raise UsageError("mapping dimensions do not compose")
        return Mapping(inner.src_n, self.dst_n, tuple(self.img[v] for v in inner.img))

    def inverse(self) -> "Mapping":
        if not self.is_bijection():
            raise UsageError("only bijections invert")
        inv = [0] * self.dst_n
        for i, v in enumerate(self.img):
            inv[v] = i
        return Mapping(self.dst_n, self.src_n, tuple(inv))


def is_isotone(f: Mapping, src: Diamond, dst: Diamond) -> Check:
    """Forward chain preservation, least violating triple on failure."""
    if f.src_n != src.n or f.dst_n != dst.n:
        raise UsageError("mapping dimensions do not match the structures")
    n = src.n
    img = f.img
    for a in range(n):
        row1a = src.r1.rows[a]
        for b in range(n):
            if not ((row1a >> b) & 1):
                continue
            row2b = src.r2.rows[b]
            fa, fb = img[a], img[b]
            dst_ok = (dst.r1.rows[fa] >> fb) & 1
            for c in range(n):
                if not ((row2b >> c) & 1):
                    continue
                if not (dst_ok and (dst.r2.rows[fb] >> img[c]) & 1):
                    return Check(False, (a, b, c))
    return Check(True)


def _pull_back(rel: Rel, img: tuple[int, ...], inv: tuple[int, ...]) -> list[int]:
    """Row masks of {(i, j) : rel has (img[i], img[j])} for a bijection img."""
    return [sum(1 << inv[k] for k in bits(rel.rows[fi])) for fi in img]


def is_isomorphism(f: Mapping, src: BiPoset, dst: BiPoset) -> Check:
    """Bijection with the two-way chain condition.

    Returns ok=False with a reason for non-bijections, and the least triple
    where the biconditional breaks otherwise. Inputs are not re-validated;
    the condition is evaluated as stated.

    Both dst relations are pulled back through f once; then for each (a, b)
    the chain sets {c : a r1 b, b r2 c} of the two sides are compared as
    masks, and the least c of a mismatch is the lowest bit of their XOR.
    """
    if f.src_n != src.n or f.dst_n != dst.n:
        raise UsageError("mapping dimensions do not match the structures")
    if not f.is_bijection():
        return Check(False, reason="not a bijection")
    img = f.img
    inv = f.inverse().img
    s1, s2 = src.d.r1.rows, src.d.r2.rows
    p1 = _pull_back(dst.d.r1, img, inv)
    p2 = _pull_back(dst.d.r2, img, inv)
    for a in range(src.n):
        row_s, row_p = s1[a], p1[a]
        for b in bits(row_s | row_p):
            diff = (s2[b] if (row_s >> b) & 1 else 0) ^ (p2[b] if (row_p >> b) & 1 else 0)
            if diff:
                return Check(False, (a, b, next(bits(diff))))
    return Check(True)


def _is_reflexive(d: Diamond) -> bool:
    return all((d.r1.rows[a] >> a) & (d.r2.rows[a] >> a) & 1 for a in range(d.n))


def _row_col_masks(d: Diamond) -> tuple[tuple[int, ...], ...]:
    """Rows of r1, columns of r1, rows of r2, columns of r2."""
    return (d.r1.rows, d.r1.transpose().rows, d.r2.rows, d.r2.transpose().rows)


def _toggle(masks: list[int], members: int, bit: int) -> None:
    for k in bits(members):
        masks[k] ^= bit


def find_isomorphism(src: BiPoset, dst: BiPoset) -> Optional[Mapping]:
    """Search for an isomorphism; image-lexicographically least if any.

    Edge-wise backtracking with degree-signature pruning is complete for
    reflexive structures, where chains determine edges; anything else falls
    back to scanning all bijections. Source i may take target j when, over
    the assigned prefix 0..i-1, the r1/r2 row and column masks of i equal
    those of j read through the assignment; the target side is kept as four
    masks per j, updated on assign and undone on backtrack.
    """
    if src.n != dst.n:
        return None
    n = src.n
    sd, dd = src.d, dst.d

    if not (_is_reflexive(sd) and _is_reflexive(dd)):
        for perm in itertools.permutations(range(n)):
            f = Mapping(n, n, perm)
            if is_isomorphism(f, src, dst):
                return f
        return None

    s_masks = _row_col_masks(sd)
    d_masks = _row_col_masks(dd)
    sig_src = [tuple(ms[i].bit_count() for ms in s_masks) for i in range(n)]
    sig_dst = [tuple(ms[j].bit_count() for ms in d_masks) for j in range(n)]
    if sorted(sig_src) != sorted(sig_dst):
        return None

    # bit i2 of t_row1[j] is set iff dst r1 has (j, assigned[i2]); assigning
    # j2 at depth i2 flips that bit for every j in column j2, and so on
    t_row1, t_col1, t_row2, t_col2 = ([0] * n for _ in range(4))
    d_row1, d_col1, d_row2, d_col2 = d_masks
    s_row1, s_col1, s_row2, s_col2 = s_masks

    def flip(i: int, j: int) -> None:
        bit = 1 << i
        _toggle(t_row1, d_col1[j], bit)
        _toggle(t_col1, d_row1[j], bit)
        _toggle(t_row2, d_col2[j], bit)
        _toggle(t_col2, d_row2[j], bit)

    # explicit stack: depth reaches n, which may exceed the recursion limit
    assigned: list[int] = []
    used = [False] * n
    start = 0
    while len(assigned) < n:
        i = len(assigned)
        low = (1 << i) - 1
        want = (s_row1[i] & low, s_col1[i] & low, s_row2[i] & low, s_col2[i] & low)
        sig = sig_src[i]
        for j in range(start, n):
            if used[j] or sig != sig_dst[j]:
                continue
            if (t_row1[j], t_col1[j], t_row2[j], t_col2[j]) == want:
                assigned.append(j)
                used[j] = True
                flip(i, j)
                start = 0
                break
        else:
            if not assigned:
                return None
            j = assigned.pop()
            used[j] = False
            flip(i - 1, j)
            start = j + 1

    f = Mapping(n, n, tuple(assigned))
    result = is_isomorphism(f, src, dst)
    if not result:
        raise RuntimeError("edge search returned a non-isomorphism")
    return f


def self_dual_witness(bp: BiPoset) -> Optional[Mapping]:
    """Isomorphism from the structure to its dual, if one exists."""
    return find_isomorphism(bp, dual_biposet(bp))
