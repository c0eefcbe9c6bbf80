"""Text formats and DOT emission.

Structure files (.bpo) are line oriented UTF-8: optional # comment lines,
one `elements:` line, then `r1: x y` / `r2: x y` pair lines. Duplicate
pairs are idempotent; undeclared names and duplicate declarations are
errors. Mapping files (.map) hold `src -> dst` lines and must be total.
A Galois pair file is a .map with `f:` and `g:` section headers.

The command line that reads and writes these files is cli.py.

Only core is imported with this module. The axiom checker, which DOT's
component helper needs, and the morphisms and Galois modules, which the
mapping and pair readers build, are imported by the function that uses
them: the enumeration and the claims import this module only to write or
read a witness's text.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from .core import BiPoset, Diamond, GroundSet, Rel, UsageError, bits

if TYPE_CHECKING:
    from .axioms import AxiomVerdict
    from .galois import GaloisPair
    from .morphisms import Mapping

NAME_RE = re.compile(r"[A-Za-z0-9_{}]+\Z")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _check_name(name: str, where: str) -> None:
    if not NAME_RE.match(name):
        raise UsageError(f"invalid element name {name}, {where}")


def _written_labels(ground: GroundSet) -> tuple[str, ...]:
    """The labels of ground, each checked as the readers check it, so that
    every writer's output parses back."""
    for name in ground.labels:
        _check_name(name, "cannot write it")
    return ground.labels


def parse_structure(text: str) -> BiPoset:
    """Read a .bpo document. Elements keep declaration order; no validation.

    One pass. Names are checked on the elements line only, so a pair line
    costs one head lookup and two name lookups and ORs one bit into its
    row. A line that misses any of them is blank, a comment, the elements
    line or an error, which is named as a token-by-token read names it.
    """
    labels: Optional[list[str]] = None
    rows: dict[str, list[int]] = {}     # "r1:" and "r2:" once elements are read
    index: dict[str, int] = {}
    bit: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        try:
            head, x, y = tokens
            rows[head][index[x]] |= bit[y]
            continue
        except (ValueError, KeyError):
            pass    # read below, outside the handler, so an error chains no KeyError
        if not tokens or tokens[0].startswith("#"):
            continue
        if labels is not None:
            _reject_pair_line(tokens, index, lineno)
        labels = _read_elements(tokens, lineno)
        index = {name: i for i, name in enumerate(labels)}
        bit = {name: 1 << i for i, name in enumerate(labels)}
        rows = {"r1:": [0] * len(labels), "r2:": [0] * len(labels)}

    if labels is None:
        raise UsageError("no elements line found")
    n = len(labels)
    return BiPoset(
        GroundSet(tuple(labels)),
        Diamond(Rel(n, tuple(rows["r1:"])), Rel(n, tuple(rows["r2:"]))),
    )


def _read_elements(tokens: list[str], lineno: int) -> list[str]:
    """The names the first significant line declares, each checked."""
    if tokens[0] != "elements:":
        raise UsageError(f"expected an elements line, line {lineno}")
    names = tokens[1:]
    if not names:
        raise UsageError(f"elements line declares no elements, line {lineno}")
    seen: set[str] = set()
    for name in names:
        _check_name(name, f"line {lineno}")
        if name in seen:
            raise UsageError(f"duplicate element {name}, line {lineno}")
        seen.add(name)
    return names


def _reject_pair_line(tokens: list[str], index: dict[str, int], lineno: int) -> None:
    """Raise the error of a line after the elements line that is not a pair
    of declared names, checking its tokens in order."""
    head = tokens[0]
    if head == "elements:":
        raise UsageError(f"second elements line, line {lineno}")
    if head not in ("r1:", "r2:") or len(tokens) != 3:
        raise UsageError(f"expected 'r1: x y' or 'r2: x y', line {lineno}")
    for name in tokens[1:]:
        _check_name(name, f"line {lineno}")
        if name not in index:
            raise UsageError(f"undeclared element {name}, line {lineno}")


def serialize_structure(bp: BiPoset) -> str:
    """Canonical .bpo text: row-major pair order, one pair per line."""
    labels = _written_labels(bp.ground)
    lines = ["elements: " + " ".join(labels)]
    for prefix, rel in (("r1:", bp.d.r1), ("r2:", bp.d.r2)):
        for label, row in zip(labels, rel.rows):
            head = f"{prefix} {label} "
            lines.extend([head + labels[j] for j in bits(row)])
    return "\n".join(lines) + "\n"


_ARROW_RE = re.compile(r"([A-Za-z0-9_{}]+)\s*->\s*([A-Za-z0-9_{}]+)\Z")


def _parse_arrow_lines(lines, src: GroundSet, dst: GroundSet) -> Mapping:
    from .morphisms import Mapping

    src_index = {name: i for i, name in enumerate(src.labels)}
    dst_index = {name: i for i, name in enumerate(dst.labels)}
    assigned: dict[int, int] = {}
    for lineno, line in lines:
        m = _ARROW_RE.match(line)
        if not m:
            raise UsageError(f"expected '<src> -> <dst>', line {lineno}")
        sname, dname = m.group(1), m.group(2)
        si, di = src_index.get(sname), dst_index.get(dname)
        if si is None:
            raise UsageError(f"undeclared element {sname}, line {lineno}")
        if di is None:
            raise UsageError(f"undeclared element {dname}, line {lineno}")
        if si in assigned and assigned[si] != di:
            raise UsageError(f"conflicting assignment for {sname}, line {lineno}")
        assigned[si] = di
    for i, name in enumerate(src.labels):
        if i not in assigned:
            raise UsageError(f"mapping is not total: {name} unassigned")
    return Mapping(src.n, dst.n, tuple(assigned[i] for i in range(src.n)))


def parse_mapping(text: str, src: GroundSet, dst: GroundSet) -> Mapping:
    """Read a .map document against declared source and target grounds."""
    return _parse_arrow_lines(_significant_lines(text), src, dst)


def serialize_mapping(m: Mapping, src: GroundSet, dst: GroundSet) -> str:
    if m.src_n != src.n or m.dst_n != dst.n:
        raise UsageError("mapping dimensions do not match the ground sets")
    src_labels, dst_labels = _written_labels(src), _written_labels(dst)
    lines = [f"{src_labels[i]} -> {dst_labels[m(i)]}" for i in range(src.n)]
    return "\n".join(lines) + "\n"


def parse_pair(text: str, P: BiPoset, Q: BiPoset) -> GaloisPair:
    """Read a two-section pair file: `f:` lines P->Q, `g:` lines Q->P."""
    from .galois import GaloisPair

    sections: dict[str, list] = {}
    current: Optional[str] = None
    for lineno, line in _significant_lines(text):
        if line in ("f:", "g:"):
            name = line[0]
            if name in sections:
                raise UsageError(f"duplicate section {line}, line {lineno}")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise UsageError(f"expected section header 'f:' or 'g:', line {lineno}")
        sections[current].append((lineno, line))
    for name in ("f", "g"):
        if name not in sections:
            raise UsageError(f"missing section {name}:")
    f = _parse_arrow_lines(sections["f"], P.ground, Q.ground)
    g = _parse_arrow_lines(sections["g"], Q.ground, P.ground)
    return GaloisPair(f, g)


def serialize_pair(pair: GaloisPair, P: BiPoset, Q: BiPoset) -> str:
    return (
        "f:\n" + serialize_mapping(pair.f, P.ground, Q.ground)
        + "g:\n" + serialize_mapping(pair.g, Q.ground, P.ground)
    )


# ---------------------------------------------------------------------------
# DOT


def _covering_pairs(rel: Rel) -> list[tuple[int, int]]:
    # transitive reduction of a relation known to be a classical partial order:
    # j covers i when j is in strict(i) but in no strict(k) for k in strict(i)
    strict = [row & ~(1 << i) for i, row in enumerate(rel.rows)]
    out = []
    for i, above in enumerate(strict):
        beyond = 0
        for k in bits(above):
            beyond |= strict[k]
        out.extend((i, j) for j in bits(above & ~beyond))
    return out


def _raw_pairs(rel: Rel) -> list[tuple[int, int]]:
    return [(i, j) for i, j in rel.pairs() if i != j]


def _components(bp: BiPoset, component: str) -> list[tuple[int, Rel, AxiomVerdict]]:
    """(component, relation, classical verdict) for each component that
    component names: "1", "2" or "both", or the str() of one. Equal r1 and
    r2 rows are classified once, so both entries hold the same verdict.
    """
    from .axioms import check_classical_por

    component = str(component)
    if component not in ("1", "2", "both"):
        raise UsageError("component must be 1, 2 or both")
    r1, r2 = bp.d.r1, bp.d.r2
    if component != "both":
        rel = r1 if component == "1" else r2
        return [(int(component), rel, check_classical_por(rel))]
    v1 = check_classical_por(r1)
    return [(1, r1, v1), (2, r2, v1 if r2.rows == r1.rows else check_classical_por(r2))]


def emit_dot(bp: BiPoset, component: str = "1") -> str:
    """Directed-graph text for one component or an overlay of both.

    A component that is a classical partial order on its own is reduced to
    its covering relation and drawn bottom-up; otherwise its raw edges are
    kept and a comment says so. In the overlay the second component is
    dashed.
    """
    comps = _components(bp, component)
    labels = _written_labels(bp.ground)
    lines = ["digraph biposet {"]
    if all(verdict.ok for _, _, verdict in comps):
        lines.append("  rankdir=BT;")
    lines.extend(f"  // component {comp} is not a classical partial order; raw edges, no reduction"
                 for comp, _, verdict in comps if not verdict.ok)
    lines.extend(f'  "{name}";' for name in labels)
    edges: dict[int, list[str]] = {}    # keyed by verdict, so equal rows are drawn once
    for comp, rel, verdict in comps:
        if id(verdict) not in edges:
            pairs = _covering_pairs(rel) if verdict.ok else _raw_pairs(rel)
            edges[id(verdict)] = [f'  "{labels[i]}" -> "{labels[j]}"' for i, j in pairs]
        suffix = " [style=dashed];" if len(comps) == 2 and comp == 2 else ";"
        lines.extend(edge + suffix for edge in edges[id(verdict)])
    lines.append("}")
    return "\n".join(lines) + "\n"
