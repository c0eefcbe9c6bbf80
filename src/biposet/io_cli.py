"""Text formats, DOT emission, and the command line surface.

Structure files (.bpo) are line oriented UTF-8: optional # comment lines,
one `elements:` line, then `r1: x y` / `r2: x y` pair lines. Duplicate
pairs are idempotent; undeclared names and duplicate declarations are
errors. Mapping files (.map) hold `src -> dst` lines and must be total.
A Galois pair file is a .map with `f:` and `g:` section headers.

Exit codes: 0 the property holds, 1 it fails (witness printed in
replayable fragments), 2 usage or parse error or unwritable output: a full
or closed stdout, an --out file that cannot be opened, written or closed,
and enumerate's --out directory and files. Each prints one
`error: cannot write ...` line on stderr and no traceback.

Only core and axioms, which parsing, serialising, DOT and `check` need, are
imported with this module. Every other module is imported by the command
handler or parse helper that uses it, so `biposet check` never loads the
oracle and only `hunt` does; `enumerate` loads the enumeration instead.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from typing import TYPE_CHECKING, Optional, TextIO

from .axioms import AxiomVerdict, _fmt_witness, check_axioms, check_classical_por, validated
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


def _load_each(*paths: str) -> list[BiPoset]:
    """The structure in each file, a file named more than once (the same
    os.path.realpath) parsed once and shared."""
    keys = [os.path.realpath(path) for path in paths]
    loaded: dict[str, BiPoset] = {}
    for key, path in zip(keys, paths):
        if key not in loaded:
            loaded[key] = _load(path)
    return [loaded[key] for key in keys]


def _cmd_check(args, out: TextIO) -> int:
    bp = _load(args.file)
    verdict = check_axioms(bp.d)
    for name, ax in verdict.items():
        if ax.ok:
            print(f"{name}: ok", file=out)
        else:
            print(f"{name}: fail at {_fmt_witness(bp.ground.labels, ax)}", file=out)
    print("valid" if verdict.ok else "invalid", file=out)
    return 0 if verdict.ok else 1


def _cmd_classical_check(args, out: TextIO) -> int:
    bp = _load(args.file)
    all_ok = True
    for comp, _, verdict in _components(bp, args.component):
        if verdict.ok:
            print(f"component {comp}: ok", file=out)
            continue
        all_ok = False
        for name, ax in verdict.items():
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

    bps = _load_each(*args.files)
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

    A, B = _load_each(args.file_a, args.file_b)
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

    P, Q = _load_each(args.file_p, args.file_q)
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

    P, Q = _load_each(args.file_p, args.file_q)
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
    from .enumeration import _ground, enumerate_biposets

    n = args.n
    count = 0
    structs = enumerate_biposets(n)     # refuses a bad n before anything is written
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    for d in structs:
        text = serialize_structure(BiPoset(_ground(n), d))
        if args.out is not None:
            path = os.path.join(args.out, f"n{n}_{d.r1.code}_{d.r2.code}.bpo")
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                # a failed write or close names no file; main would blame stdout
                raise OSError(exc.errno, exc.strerror, path) from exc
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

    finding = verify_claim(args.claim, args.n, seed=args.seed)
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

    def add(name: str, func, help_text: str, parent=subs):
        sp = parent.add_parser(name, help=help_text)
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
    sp = add("check", _cmd_galois_check, "verify a pair file against two structures", gsubs)
    sp.add_argument("file_p")
    sp.add_argument("file_q")
    sp.add_argument("pair")
    sp.add_argument("--mode", choices=["hetero", "antitone"], default="hetero")
    sp = add("adjoint", _cmd_galois_adjoint, "list adjoints of a mapping", gsubs)
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
    sp.add_argument("--seed", type=int, default=None)

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
    # enumerate's --out names a directory that its handler writes into
    path = None if args.cmd == "enumerate" else args.out
    try:
        # --out is opened once the handler returns, so a handler that fails,
        # or reads the file --out names, leaves that file as it was
        out = sys.stdout if path is None else io.StringIO()
        code = args.func(args, out)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        sys.stdout.flush()      # a full or closed stdout raises here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # _read reports unreadable input as a UsageError, so this is output;
        # one without a file name came from --out or stdout
        where = exc.filename or path or "stdout"
        if where == "stdout":
            # the null device takes fd 1 so the flush at exit is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {where}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
