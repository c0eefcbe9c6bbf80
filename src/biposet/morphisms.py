"""Mappings between binary posets: isotone maps, isomorphisms, self-duality.

An isotone map preserves chains forward. An isomorphism is a bijection with
the chain condition in both directions. Let E1 be the r1 edges (a, b) whose
b has an r2 successor and E2 the r2 edges (b, c) whose b has an r1
predecessor. Then chain(a, b, c) iff a E1 b and b E2 c, and E1 and E2 are
the two projections of the chain set, so a bijection is an isomorphism iff
it preserves E1 and E2 both ways (on reflexive structures E1 = r1, E2 = r2).
The checks read the target relations back through the map once
(`core.preimage_rows`) and compare row masks, r2 rows in is_isotone and
chain sets per (a, b) in is_isomorphism, at O(|relation|) word operations;
the search compares incremental E1/E2 rows and `core.prepare` columns.
"""

from __future__ import annotations

from typing import Optional

from .constructions import dual_biposet
from .core import (BiPoset, Check, Diamond, UsageError, _check_int, _check_ints, _Value, bits,
                   lsb, preimage_rows, prepare)


class Mapping(_Value):
    __match_args__ = __slots__ = ("src_n", "dst_n", "img")

    def __init__(self, src_n: int, dst_n: int, img: tuple[int, ...]) -> None:
        _check_int(src_n, "mapping source size")
        _check_int(dst_n, "mapping target size")
        _check_ints(img, "mapping image", "mapping image value")
        if len(img) != src_n:
            raise UsageError("mapping image length does not match source size")
        if img and (min(img) < 0 or max(img) >= dst_n):
            raise UsageError("mapping image value out of range")
        object.__setattr__(self, "src_n", src_n)
        object.__setattr__(self, "dst_n", dst_n)
        object.__setattr__(self, "img", img)

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
                return Check(False, (a, b, lsb(bad)))
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
                return Check(False, (a, b, lsb(diff)))
    return Check(True)


def _row_col_masks(d: Diamond) -> tuple[tuple[int, ...], ...]:
    """Rows of E1, columns of E1, rows of E2, columns of E2."""
    rows1, rows2 = d.r1.rows, d.r2.rows
    cols1 = prepare(rows1)[1]
    cols2 = cols1 if rows2 == rows1 else prepare(rows2)[1]     # a shared row tuple once
    live1 = sum(1 << b for b, col in enumerate(cols1) if col)   # b with an r1 predecessor
    live2 = sum(1 << b for b, row in enumerate(rows2) if row)   # b with an r2 successor
    return (tuple(row & live2 for row in rows1),
            tuple(col if row2 else 0 for col, row2 in zip(cols1, rows2)),
            tuple(row if col1 else 0 for row, col1 in zip(rows2, cols1)),
            tuple(col & live1 for col in cols2))


def _toggle(masks: list[int], members: int, bit: int) -> None:
    for k in bits(members):
        masks[k] ^= bit


def find_isomorphism(src: BiPoset, dst: BiPoset) -> Optional[Mapping]:
    """Search for an isomorphism; image-lexicographically least if any.

    Backtracking over E1 and E2 (module docstring) is complete for every
    structure, reflexive or not. Source i may take target j when their
    E1/E2 degrees agree and, over the assigned prefix 0..i-1, the E1/E2 row
    and column masks of i equal those of j read through the assignment; the
    target side is kept as four masks per j, updated on assign and undone on
    backtrack. The worst case is exponential in n.
    """
    if src.n != dst.n:
        return None
    n = src.n
    s_masks = _row_col_masks(src.d)
    d_masks = _row_col_masks(dst.d)
    # equal degrees settle the loops, the one cell the prefix test skips
    sig_src = [tuple(ms[i].bit_count() for ms in s_masks) for i in range(n)]
    sig_dst = [tuple(ms[j].bit_count() for ms in d_masks) for j in range(n)]
    if sorted(sig_src) != sorted(sig_dst):
        return None

    # bit i2 of t_row1[j] is set iff dst E1 has (j, assigned[i2]); assigning
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
