"""Mappings between binary posets: isotone maps, isomorphisms, self-duality.

An isotone map preserves chains forward. An isomorphism is a bijection with
the chain condition in both directions; for reflexive structures this is
the same as preserving both relations edge-wise, which is what the
backtracking search exploits. The checks read the target relations back
through the map once (`core.preimage_rows`) and compare row masks, r2 rows
in is_isotone and chain sets per (a, b) in is_isomorphism, at O(|relation|)
word operations; the search compares incremental row/column masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .axioms import _check_reflexive
from .constructions import dual_biposet
from .core import BiPoset, Check, Diamond, UsageError, bits, preimage_rows

# largest size at which find_isomorphism scans all n! bijections of a
# non-reflexive pair (8! = 40,320 candidates, about a second)
PERMUTATION_SCAN_CAP = 8


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
    """Forward chain preservation, least violating triple on failure.

    For a r1 b the violating c are the r2 row of b minus {c : f(b) r2 f(c)}
    (dst r2 read back through f), or the whole row if f(a) r1 f(b) fails."""
    if f.src_n != src.n or f.dst_n != dst.n:
        raise UsageError("mapping dimensions do not match the structures")
    img = f.img
    s2, d1 = src.r2.rows, dst.r1.rows
    p2 = preimage_rows(dst.r2.rows, img)
    for a, row1a in enumerate(src.r1.rows):
        fa_row = d1[img[a]]
        for b in bits(row1a):
            fb = img[b]
            bad = s2[b] & ~p2[fb] if (fa_row >> fb) & 1 else s2[b]
            if bad:
                return Check(False, (a, b, next(bits(bad))))
    return Check(True)


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
    s1, s2 = src.d.r1.rows, src.d.r2.rows
    p1 = preimage_rows(dst.d.r1.rows, img)
    p2 = preimage_rows(dst.d.r2.rows, img)
    for a, fa in enumerate(img):
        row_s, row_p = s1[a], p1[fa]
        for b in bits(row_s | row_p):
            diff = ((s2[b] if (row_s >> b) & 1 else 0)
                    ^ (p2[img[b]] if (row_p >> b) & 1 else 0))
            if diff:
                return Check(False, (a, b, next(bits(diff))))
    return Check(True)


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
    back to scanning all bijections, which is refused with UsageError above
    PERMUTATION_SCAN_CAP elements. Source i may take target j when, over
    the assigned prefix 0..i-1, the r1/r2 row and column masks of i equal
    those of j read through the assignment; the target side is kept as four
    masks per j, updated on assign and undone on backtrack.
    """
    if src.n != dst.n:
        return None
    n = src.n
    sd, dd = src.d, dst.d

    if not all(_check_reflexive(d.r1.rows, d.r2.rows) for d in (sd, dd)):
        if n > PERMUTATION_SCAN_CAP:
            raise UsageError(
                f"isomorphism search on non-reflexive structures scans all n! bijections "
                f"and is limited to n <= {PERMUTATION_SCAN_CAP} (got n={n})")
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
