"""The command line: `biposet <command> ...`, the console script and
`python -m biposet`.

Exit codes: 0 the property holds, 1 it fails (witness printed in
replayable fragments), 2 usage or parse error or unwritable output: a full
or closed stdout, an --out file that cannot be opened, written or closed,
and enumerate's --out directory and files. Each prints one
`error: cannot write ...` line on stderr and no traceback.

A call pays only for the command it runs, and main reads it once. A call
that names a command is read by that command's parser alone, which prints
the full parser's usage line, so every help and error text is the full
parser's; the full parser (_build_parser()) serves only calls that name no
command. Only core is imported with this module. Each handler imports the
modules it uses: the text formats (io_cli) to read or write a file, axioms
to check one, the oracle for `hunt`. So `biposet check` never loads the
oracle, `enumerate` loads the enumeration instead, and a `hunt` whose claim
is verified reads and writes no text and loads no io_cli.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Optional, TextIO

from .core import BiPoset, UsageError

# the subcommands in the full parser's order; a call naming one builds its parser alone
COMMANDS = ("check", "classical-check", "dual", "intersect", "powerset", "divisibility",
            "extremal", "iso", "selfdual", "galois", "enumerate", "hunt", "dot")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc


def _load(path: str) -> BiPoset:
    from .io_cli import parse_structure

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


def _write_structure(bp: BiPoset, out: TextIO) -> int:
    from .io_cli import serialize_structure

    out.write(serialize_structure(bp))
    return 0


def _cmd_check(args, out: TextIO) -> int:
    from .axioms import _fmt_witness, check_axioms

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
    from .axioms import _fmt_witness
    from .io_cli import _components

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

    return _write_structure(dual_biposet(_load(args.file)), out)


def _cmd_intersect(args, out: TextIO) -> int:
    from .constructions import intersect_many

    bps = _load_each(*args.files)
    first = bps[0]
    for bp in bps[1:]:
        if bp.ground.labels != first.ground.labels:
            raise UsageError("element sets differ, cannot intersect")
    inter = intersect_many([bp.d for bp in bps])
    return _write_structure(BiPoset(first.ground, inter), out)


def _cmd_powerset(args, out: TextIO) -> int:
    from .constructions import powerset_biposet

    return _write_structure(powerset_biposet(args.k), out)


def _cmd_divisibility(args, out: TextIO) -> int:
    from .constructions import divisibility_biposet

    return _write_structure(divisibility_biposet(args.k), out)


def _cmd_extremal(args, out: TextIO) -> int:
    from .axioms import validated
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
    from .io_cli import serialize_mapping
    from .morphisms import find_isomorphism

    A, B = _load_each(args.file_a, args.file_b)
    m = find_isomorphism(A, B)
    if m is None:
        print("no isomorphism found", file=out)
        return 1
    out.write(serialize_mapping(m, A.ground, B.ground))
    return 0


def _cmd_selfdual(args, out: TextIO) -> int:
    from .io_cli import serialize_mapping
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
    from .io_cli import parse_pair

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
    from .io_cli import parse_mapping, serialize_mapping

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
    from .io_cli import serialize_structure

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
    from .io_cli import emit_dot

    out.write(emit_dot(_load(args.file), args.component))
    return 0


class _ClaimIds:
    """hunt's claim choices, read from the oracle's claim table only when
    argparse checks a value (`in` iterates) or prints them, so building the
    parser does not load the oracle."""

    def __iter__(self):
        from .oracle import CLAIM_IDS

        return iter(CLAIM_IDS)


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser, or with only, one of COMMANDS, the same parser with
    that subcommand alone. Its usage line names every command, as argparse
    renders the full parser's choices, so its help and errors are the full
    parser's. The full parser keeps argparse's default metavar, since its
    errors name the subcommand argument by metavar: `cmd`."""
    parser = argparse.ArgumentParser(
        prog="biposet",
        description="Finite binary posets: axioms, constructions, morphisms, "
                    "Galois connections, and a small-model claim oracle.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True,
                                 metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")

    def add(name: str, func, help_text: str, parent=subs):
        """The parser of a subcommand, None when only names another one."""
        if parent is subs and only not in (None, name):
            return None
        sp = parent.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        return sp

    if sp := add("check", _cmd_check, "evaluate the three axioms on a structure file"):
        sp.add_argument("file")

    if sp := add("classical-check", _cmd_classical_check,
                 "classical partial-order check per component"):
        sp.add_argument("file")
        sp.add_argument("--component", choices=["1", "2", "both"], default="both")

    if sp := add("dual", _cmd_dual, "emit the dual structure"):
        sp.add_argument("file")

    if sp := add("intersect", _cmd_intersect, "intersect structures over one element set"):
        sp.add_argument("files", nargs="+")

    if sp := add("powerset", _cmd_powerset, "powerset structure on k generators"):
        sp.add_argument("--k", type=int, required=True)

    if sp := add("divisibility", _cmd_divisibility, "divisibility structure on 1..k"):
        sp.add_argument("--k", type=int, required=True)

    if sp := add("extremal", _cmd_extremal, "extremal-element report (0 bounded, 1 not)"):
        sp.add_argument("file")

    if sp := add("iso", _cmd_iso, "search for an isomorphism between two structures"):
        sp.add_argument("file_a")
        sp.add_argument("file_b")

    if sp := add("selfdual", _cmd_selfdual, "search for an isomorphism onto the dual"):
        sp.add_argument("file")

    if only in (None, "galois"):
        galois = subs.add_parser("galois", help="Galois connection commands")
        gsubs = galois.add_subparsers(dest="galois_cmd", required=True)
        sp = add("check", _cmd_galois_check, "verify a pair file against two structures",
                 gsubs)
        sp.add_argument("file_p")
        sp.add_argument("file_q")
        sp.add_argument("pair")
        sp.add_argument("--mode", choices=["hetero", "antitone"], default="hetero")
        sp = add("adjoint", _cmd_galois_adjoint, "list adjoints of a mapping", gsubs)
        sp.add_argument("file_p")
        sp.add_argument("file_q")
        sp.add_argument("mapfile")
        sp.add_argument("--side", choices=["right", "left"], default="right")

    if sp := add("enumerate", _cmd_enumerate, "enumerate all valid structures at size n"):
        sp.add_argument("--n", type=int, required=True)

    if sp := add("hunt", _cmd_hunt, "verify one registered claim or print a counterexample"):
        # the metavar keeps add_argument from iterating the choices
        sp.add_argument("claim", choices=_ClaimIds(), metavar="claim",
                        help="a registered claim: %(choices)s")
        sp.add_argument("--n", type=int, default=3)
        sp.add_argument("--seed", type=int, default=None)

    if sp := add("dot", _cmd_dot, "emit a DOT digraph"):
        sp.add_argument("file")
        sp.add_argument("--component", choices=["1", "2", "both"], default="1")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
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
