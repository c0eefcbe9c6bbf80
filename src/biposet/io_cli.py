"""Text formats, DOT emission, and the command line surface.

Structure files (.bpo) are line oriented UTF-8: optional # comment lines,
one `elements:` line, then `r1: x y` / `r2: x y` pair lines. Duplicate
pairs are idempotent; undeclared names and duplicate declarations are
errors. Mapping files (.map) hold `src -> dst` lines and must be total.
A Galois pair file is a .map with `f:` and `g:` section headers.

Exit codes: 0 the property holds, 1 it fails (witness printed in
replayable fragments), 2 usage or parse error.

Only core and axioms, which parsing, serialising, DOT and `check` need, are
imported with this module. Every other module is imported by the command
handler or parse helper that uses it, so `biposet check` never loads the
oracle and only `hunt` and `enumerate` do.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional, TextIO

from .axioms import AxiomCheck, check_axioms, check_classical_por, validated
from .core import BiPoset, Diamond, GroundSet, Rel, UsageError, bits

if TYPE_CHECKING:
    from .galois import GaloisPair
    from .morphisms import Mapping

NAME_RE = re.compile(r"[A-Za-z0-9_{}]+\Z")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


def _check_name(name: str, lineno: int) -> str:
    if not NAME_RE.match(name):
        raise UsageError(f"invalid element name {name}, line {lineno}")
    return name


def parse_structure(text: str) -> BiPoset:
    """Read a .bpo document. Elements keep declaration order; no validation."""
    labels: Optional[list[str]] = None
    index: dict[str, int] = {}
    pairs1: set[tuple[int, int]] = set()
    pairs2: set[tuple[int, int]] = set()

    for lineno, line in _significant_lines(text):
        tokens = line.split()
        head = tokens[0]
        if labels is None:
            if head != "elements:":
                raise UsageError(f"expected an elements line, line {lineno}")
            names = tokens[1:]
            if not names:
                raise UsageError(f"elements line declares no elements, line {lineno}")
            labels = []
            for name in names:
                _check_name(name, lineno)
                if name in index:
                    raise UsageError(f"duplicate element {name}, line {lineno}")
                index[name] = len(labels)
                labels.append(name)
            continue
        if head == "elements:":
            raise UsageError(f"second elements line, line {lineno}")
        if head not in ("r1:", "r2:") or len(tokens) != 3:
            raise UsageError(f"expected 'r1: x y' or 'r2: x y', line {lineno}")
        xy = []
        for name in tokens[1:]:
            _check_name(name, lineno)
            if name not in index:
                raise UsageError(f"undeclared element {name}, line {lineno}")
            xy.append(index[name])
        (pairs1 if head == "r1:" else pairs2).add((xy[0], xy[1]))

    if labels is None:
        raise UsageError("no elements line found")
    n = len(labels)
    return BiPoset(
        GroundSet(tuple(labels)),
        Diamond(Rel.from_pairs(n, pairs1), Rel.from_pairs(n, pairs2)),
    )


def serialize_structure(bp: BiPoset) -> str:
    """Canonical .bpo text: row-major pair order, one pair per line."""
    labels = bp.ground.labels
    lines = ["elements: " + " ".join(labels)]
    for prefix, rel in (("r1:", bp.d.r1), ("r2:", bp.d.r2)):
        for i, j in rel.pairs():
            lines.append(f"{prefix} {labels[i]} {labels[j]}")
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
    lines = [f"{src.labels[i]} -> {dst.labels[m(i)]}" for i in range(src.n)]
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


def emit_dot(bp: BiPoset, component: str = "1") -> str:
    """Directed-graph text for one component or an overlay of both.

    A component that is a classical partial order on its own is reduced to
    its covering relation and drawn bottom-up; otherwise its raw edges are
    kept and a comment says so. In the overlay the second component is
    dashed.
    """
    component = str(component)
    if component not in ("1", "2", "both"):
        raise UsageError("component must be 1, 2 or both")
    labels = bp.ground.labels
    wanted = [1, 2] if component == "both" else [int(component)]

    edge_groups = []
    comments = []
    all_classical = True
    for comp in wanted:
        rel = bp.d.r1 if comp == 1 else bp.d.r2
        if check_classical_por(rel).ok:
            edge_groups.append((comp, _covering_pairs(rel)))
        else:
            all_classical = False
            comments.append(
                f"// component {comp} is not a classical partial order; raw edges, no reduction"
            )
            edge_groups.append((comp, _raw_pairs(rel)))

    lines = ["digraph biposet {"]
    if all_classical:
        lines.append("  rankdir=BT;")
    lines.extend("  " + c for c in comments)
    for name in labels:
        lines.append(f'  "{name}";')
    for comp, pairs in edge_groups:
        suffix = " [style=dashed]" if component == "both" and comp == 2 else ""
        for i, j in pairs:
            lines.append(f'  "{labels[i]}" -> "{labels[j]}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _load(path: str) -> BiPoset:
    return parse_structure(_read(path))


@contextmanager
def _out_stream(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _fmt_witness(labels: tuple[str, ...], ax: AxiomCheck) -> str:
    parts = " ".join(labels[i] for i in ax.witness)
    return parts + (f" ({ax.detail})" if ax.detail else "")


def _cmd_check(args, out: TextIO) -> int:
    bp = _load(args.file)
    verdict = check_axioms(bp.d)
    for name in ("reflexive", "antisymmetric", "transitive"):
        ax = getattr(verdict, name)
        if ax.ok:
            print(f"{name}: ok", file=out)
        else:
            print(f"{name}: fail at {_fmt_witness(bp.ground.labels, ax)}", file=out)
    print("valid" if verdict.ok else "invalid", file=out)
    return 0 if verdict.ok else 1


def _cmd_classical_check(args, out: TextIO) -> int:
    bp = _load(args.file)
    comps = [1, 2] if args.component == "both" else [int(args.component)]
    all_ok = True
    for comp in comps:
        rel = bp.d.r1 if comp == 1 else bp.d.r2
        verdict = check_classical_por(rel)
        if verdict.ok:
            print(f"component {comp}: ok", file=out)
            continue
        all_ok = False
        for name in ("reflexive", "antisymmetric", "transitive"):
            ax = getattr(verdict, name)
            if not ax.ok:
                print(f"component {comp}: fail {name} at "
                      f"{_fmt_witness(bp.ground.labels, ax)}", file=out)
    return 0 if all_ok else 1


def _cmd_dual(args, out: TextIO) -> int:
    from .constructions import dual_biposet

    out.write(serialize_structure(dual_biposet(_load(args.file))))
    return 0


def _cmd_intersect(args, out: TextIO) -> int:
    from .constructions import intersect_many

    bps = [_load(path) for path in args.files]
    first = bps[0]
    for bp in bps[1:]:
        if bp.ground.labels != first.ground.labels:
            raise UsageError("element sets differ, cannot intersect")
    inter = intersect_many([bp.d for bp in bps])
    out.write(serialize_structure(BiPoset(first.ground, inter)))
    return 0


def _cmd_powerset(args, out: TextIO) -> int:
    from .constructions import powerset_biposet

    out.write(serialize_structure(powerset_biposet(args.k)))
    return 0


def _cmd_divisibility(args, out: TextIO) -> int:
    from .constructions import divisibility_biposet

    out.write(serialize_structure(divisibility_biposet(args.k)))
    return 0


def _cmd_extremal(args, out: TextIO) -> int:
    from .extremal import extremal_report

    bp = validated(_load(args.file))
    report = extremal_report(bp)
    labels = bp.ground.labels

    def show(idx: Optional[int]) -> str:
        return labels[idx] if idx is not None else "-"

    for field in ("x", "y", "g_max", "g_min", "u", "v", "l_max", "l_min"):
        print(f"{field}: {show(getattr(report, field))}", file=out)
    print(f"bounded: {'yes' if report.bounded else 'no'}", file=out)
    for note in report.notes:
        print(f"note: {note}", file=out)
    return 0 if report.bounded else 1


def _cmd_iso(args, out: TextIO) -> int:
    from .morphisms import find_isomorphism

    A = _load(args.file_a)
    B = _load(args.file_b)
    m = find_isomorphism(A, B)
    if m is None:
        print("no isomorphism found", file=out)
        return 1
    out.write(serialize_mapping(m, A.ground, B.ground))
    return 0


def _cmd_selfdual(args, out: TextIO) -> int:
    from .morphisms import self_dual_witness

    bp = _load(args.file)
    m = self_dual_witness(bp)
    if m is None:
        print("not self-dual", file=out)
        return 1
    out.write(serialize_mapping(m, bp.ground, bp.ground))
    return 0


def _cmd_galois_check(args, out: TextIO) -> int:
    from .galois import is_galois

    P = _load(args.file_p)
    Q = _load(args.file_q)
    pair = parse_pair(_read(args.pair), P, Q)
    verdict = is_galois(pair, P, Q, args.mode)
    if verdict.ok:
        print(f"galois ({args.mode}): holds", file=out)
        return 0
    a, b = verdict.witness
    print(f"galois ({args.mode}): fails at a={P.ground.labels[a]} b={Q.ground.labels[b]}",
          file=out)
    return 1


def _cmd_galois_adjoint(args, out: TextIO) -> int:
    from .galois import find_adjoint

    P = _load(args.file_p)
    Q = _load(args.file_q)
    f = parse_mapping(_read(args.mapfile), P.ground, Q.ground)
    found = find_adjoint(f, P, Q, args.side)
    if not found:
        print(f"no {args.side} adjoint", file=out)
        return 1
    for i, g in enumerate(found):
        if i:
            print(file=out)
        out.write(serialize_mapping(g, Q.ground, P.ground))
    return 0


def _cmd_enumerate(args, out: TextIO) -> int:
    from .oracle import _ground, enumerate_biposets

    n = args.n
    count = 0
    structs = enumerate_biposets(n)     # refuses a bad n before anything is written
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    for d in structs:
        text = serialize_structure(BiPoset(_ground(n), d))
        if args.out is not None:
            name = f"n{n}_{d.r1.code}_{d.r2.code}.bpo"
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            if count:
                print(file=out)
            out.write(text)
        count += 1
    if args.out is not None:
        print(f"wrote {count} structures to {args.out}", file=out)
    return 0


def _cmd_hunt(args, out: TextIO) -> int:
    from .oracle import verify_claim

    finding = verify_claim(args.claim, args.n, budget=args.budget, seed=args.seed)
    print(f"claim: {finding.claim}", file=out)
    print(f"verdict: {finding.verdict}", file=out)
    print(f"scale: {' '.join(str(v) for v in finding.scale)}", file=out)
    print(f"instances checked: {finding.instances_checked}", file=out)
    if finding.seed is not None:
        print(f"seed: {finding.seed}", file=out)
    if finding.budget is not None:
        print(f"budget: {finding.budget}", file=out)
    for note in finding.notes:
        print(f"note: {note}", file=out)
        if note.startswith("scales above "):
            # a sweep cap must be seen even when stdout goes to a file
            print(f"note: {note}", file=sys.stderr)
    if finding.witness:
        print("witness:", file=out)
        for key, value in finding.witness.items():
            if isinstance(value, str) and "\n" in value:
                print(f"# --- {key}", file=out)
                out.write(value if value.endswith("\n") else value + "\n")
            else:
                print(f"# --- {key}: {value}", file=out)
    return 0 if finding.verified else 1


def _cmd_dot(args, out: TextIO) -> int:
    out.write(emit_dot(_load(args.file), args.component))
    return 0


class _ClaimIds:
    """hunt's claim choices, read from the oracle's claim table only when
    argparse checks a value (`in` iterates) or prints them, so building the
    parser does not load the oracle."""

    def __iter__(self):
        from .oracle import CLAIM_IDS

        return iter(CLAIM_IDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biposet",
        description="Finite binary posets: axioms, constructions, morphisms, "
                    "Galois connections, and a small-model claim oracle.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    def add(name: str, func, help_text: str):
        sp = subs.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        return sp

    sp = add("check", _cmd_check, "evaluate the three axioms on a structure file")
    sp.add_argument("file")

    sp = add("classical-check", _cmd_classical_check,
             "classical partial-order check per component")
    sp.add_argument("file")
    sp.add_argument("--component", choices=["1", "2", "both"], default="both")

    sp = add("dual", _cmd_dual, "emit the dual structure")
    sp.add_argument("file")

    sp = add("intersect", _cmd_intersect, "intersect structures over one element set")
    sp.add_argument("files", nargs="+")

    sp = add("powerset", _cmd_powerset, "powerset structure on k generators")
    sp.add_argument("--k", type=int, required=True)

    sp = add("divisibility", _cmd_divisibility, "divisibility structure on 1..k")
    sp.add_argument("--k", type=int, required=True)

    sp = add("extremal", _cmd_extremal, "extremal-element report (0 bounded, 1 not)")
    sp.add_argument("file")

    sp = add("iso", _cmd_iso, "search for an isomorphism between two structures")
    sp.add_argument("file_a")
    sp.add_argument("file_b")

    sp = add("selfdual", _cmd_selfdual, "search for an isomorphism onto the dual")
    sp.add_argument("file")

    galois = subs.add_parser("galois", help="Galois connection commands")
    gsubs = galois.add_subparsers(dest="galois_cmd", required=True)
    sp = gsubs.add_parser("check", help="verify a pair file against two structures")
    sp.set_defaults(func=_cmd_galois_check)
    sp.add_argument("--out", default=None)
    sp.add_argument("file_p")
    sp.add_argument("file_q")
    sp.add_argument("pair")
    sp.add_argument("--mode", choices=["hetero", "monotone", "antitone"], default="hetero")
    sp = gsubs.add_parser("adjoint", help="list adjoints of a mapping")
    sp.set_defaults(func=_cmd_galois_adjoint)
    sp.add_argument("--out", default=None)
    sp.add_argument("file_p")
    sp.add_argument("file_q")
    sp.add_argument("mapfile")
    sp.add_argument("--side", choices=["right", "left"], default="right")

    sp = add("enumerate", _cmd_enumerate, "enumerate all valid structures at size n")
    sp.add_argument("--n", type=int, required=True)

    sp = add("hunt", _cmd_hunt, "verify one registered claim or print a counterexample")
    # the metavar keeps add_argument from iterating the choices
    sp.add_argument("claim", choices=_ClaimIds(), metavar="claim",
                    help="a registered claim: %(choices)s")
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("dot", _cmd_dot, "emit a DOT digraph")
    sp.add_argument("file")
    sp.add_argument("--component", choices=["1", "2", "both"], default="1")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.cmd == "enumerate":
            # --out names a directory here; the stream helper is bypassed
            return args.func(args, sys.stdout)
        with _out_stream(args.out) as out:
            return args.func(args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
