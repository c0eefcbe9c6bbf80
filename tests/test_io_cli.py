import ast
import os
import re
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biposet import (
    BiPoset,
    GaloisPair,
    GroundSet,
    Mapping,
    UsageError,
    biposet,
    divisibility_biposet,
    dual_biposet,
    emit_dot,
    enumerate_biposets,
    is_isomorphism,
    main,
    parse_mapping,
    parse_pair,
    parse_structure,
    powerset_biposet,
    serialize_mapping,
    serialize_pair,
    serialize_structure,
)
import biposet as biposet_pkg
from biposet.constructions import DIVISIBILITY_CAP, POWERSET_CAP
from biposet.core import Diamond, Rel
from biposet.enumeration import MAX_ENUM_N
from biposet import axioms, cli, io_cli
from biposet.io_cli import _covering_pairs


def as_bp(d, prefix="e"):
    return BiPoset(GroundSet(tuple(f"{prefix}{i}" for i in range(d.n))), d)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# structure round-trips

def test_round_trip_all_n2():
    for d in enumerate_biposets(2):
        bp = as_bp(d)
        back = parse_structure(serialize_structure(bp))
        assert back.ground.labels == bp.ground.labels
        assert back.d.code == d.code


def test_round_trip_named_structures():
    for bp in (powerset_biposet(2), divisibility_biposet(4)):
        back = parse_structure(serialize_structure(bp))
        assert back.ground.labels == bp.ground.labels
        assert back.d.code == bp.d.code


@st.composite
def any_diamonds(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    full = (1 << n) - 1
    rows = st.tuples(*[st.integers(min_value=0, max_value=full)] * n)
    return Diamond(Rel(n, draw(rows)), Rel(n, draw(rows)))


@settings(max_examples=150, deadline=None)
@given(any_diamonds())
def test_round_trip_random(d):
    back = parse_structure(serialize_structure(as_bp(d)))
    assert back.d.code == d.code


def test_parse_ignores_comments_blanks_and_duplicates():
    text = (
        "# header comment\n"
        "elements: a b\n"
        "\n"
        "r1: a a\n"
        "r1: a a\n"
        "r2: b a\n"
    )
    bp = parse_structure(text)
    assert bp.ground.labels == ("a", "b")
    assert bp.d.r1.has(0, 0) and not bp.d.r1.has(1, 0)
    assert bp.d.r2.has(1, 0)


@pytest.mark.parametrize("label", ["a b", "a-b", 'a"b', "a\nb"])
def test_writers_refuse_labels_the_readers_reject(label):
    bp = biposet([label, "c"], [(0, 1)], [(1, 0)])
    for write_out in (serialize_structure, emit_dot,
                      lambda bp: serialize_mapping(Mapping.identity(2), bp.ground, bp.ground),
                      lambda bp: serialize_pair(
                          GaloisPair(Mapping.identity(2), Mapping.identity(2)), bp, bp)):
        with pytest.raises(UsageError, match=", cannot write it$"):
            write_out(bp)


def test_parse_accepts_braced_names():
    bp = parse_structure("elements: s{0} s{0_1}\nr1: s{0} s{0_1}\n")
    assert bp.ground.labels == ("s{0}", "s{0_1}")
    assert bp.d.r1.has(0, 1)


@pytest.mark.parametrize("text,msg", [
    ("", "no elements line found"),
    ("r1: a b\n", "expected an elements line, line 1"),
    ("elements:\n", "elements line declares no elements, line 1"),
    ("elements: a-b\n", "invalid element name a-b, line 1"),
    ("elements: a a\n", "duplicate element a, line 1"),
    ("elements: a\nelements: b\n", "second elements line, line 2"),
    ("elements: a\nfoo\n", "expected 'r1: x y' or 'r2: x y', line 2"),
    ("elements: a\nr1: a\n", "expected 'r1: x y' or 'r2: x y', line 2"),
    ("elements: a b\n# c\nr1: a c\n", "undeclared element c, line 3"),
])
def test_parse_structure_errors(text, msg):
    with pytest.raises(UsageError, match="^" + msg.replace("'", "'") + "$"):
        parse_structure(text)


# mapping files

def test_mapping_round_trip():
    src = GroundSet(("a", "b", "c"))
    dst = GroundSet(("p", "q"))
    m = Mapping(3, 2, (1, 0, 1))
    text = serialize_mapping(m, src, dst)
    assert text == "a -> q\nb -> p\nc -> q\n"
    assert parse_mapping(text, src, dst) == m


def test_mapping_parse_tolerates_tight_arrows_and_repeats():
    src = GroundSet(("a", "b"))
    dst = GroundSet(("p",))
    assert parse_mapping("a->p\nb -> p\nb -> p\n", src, dst).img == (0, 0)


@pytest.mark.parametrize("text,msg", [
    ("a -> p\n", "mapping is not total: b unassigned"),
    ("a => p\n", "expected '<src> -> <dst>', line 1"),
    ("c -> p\nb -> p\n", "undeclared element c, line 1"),
    ("a -> p\nb -> r\n", "undeclared element r, line 2"),
    ("a -> p\na -> q\nb -> p\n", "conflicting assignment for a, line 2"),
])
def test_mapping_parse_errors(text, msg):
    src = GroundSet(("a", "b"))
    dst = GroundSet(("p", "q"))
    with pytest.raises(UsageError, match="^" + msg + "$"):
        parse_mapping(text, src, dst)


# pair files

def test_pair_round_trip():
    bp = divisibility_biposet(2)
    pair = GaloisPair(Mapping(2, 2, (0, 0)), Mapping(2, 2, (1, 1)))
    text = serialize_pair(pair, bp, bp)
    assert text == "f:\n1 -> 1\n2 -> 1\ng:\n1 -> 2\n2 -> 2\n"
    assert parse_pair(text, bp, bp) == pair


def test_pair_parse_allows_comments_inside_sections():
    bp = divisibility_biposet(2)
    pair = parse_pair("f:\n1 -> 1\n2 -> 2\ng:\n# inner\n1 -> 1\n2 -> 2\n", bp, bp)
    assert pair.f.img == (0, 1) and pair.g.img == (0, 1)


@pytest.mark.parametrize("text,msg", [
    ("1 -> 1\n", "expected section header 'f:' or 'g:', line 1"),
    ("f:\n1 -> 1\n2 -> 2\n", "missing section g:"),
    ("f:\n1 -> 1\n2 -> 2\nf:\n1 -> 1\n", "duplicate section f:, line 4"),
])
def test_pair_parse_errors(text, msg):
    bp = divisibility_biposet(2)
    with pytest.raises(UsageError, match="^" + msg + "$"):
        parse_pair(text, bp, bp)


# DOT output

def test_dot_discrete_structure():
    bp = biposet(["a", "b"], [(0, 0), (1, 1)], [(0, 0), (1, 1)])
    assert emit_dot(bp) == (
        "digraph biposet {\n"
        "  rankdir=BT;\n"
        '  "a";\n'
        '  "b";\n'
        "}\n"
    )


def test_dot_reduces_classical_component_to_covers():
    got = emit_dot(divisibility_biposet(3), "1")
    assert got == (
        "digraph biposet {\n"
        "  rankdir=BT;\n"
        '  "1";\n'
        '  "2";\n'
        '  "3";\n'
        '  "1" -> "2";\n'
        '  "2" -> "3";\n'
        "}\n"
    )


def test_dot_overlay_dashes_second_component():
    got = emit_dot(divisibility_biposet(3), "both")
    assert '  "1" -> "2" [style=dashed];\n' in got
    assert '  "1" -> "3" [style=dashed];\n' in got
    assert '  "2" -> "3";\n' in got
    assert "rankdir=BT;" in got


def test_dot_keeps_raw_edges_when_not_classical():
    bp = biposet(["a", "b"], [(0, 0), (0, 1), (1, 0), (1, 1)], [(0, 0), (1, 1)])
    got = emit_dot(bp, "1")
    assert "rankdir" not in got
    assert "// component 1 is not a classical partial order; raw edges, no reduction" in got
    assert '  "a" -> "b";\n' in got
    assert '  "b" -> "a";\n' in got


def test_dot_component_guard():
    with pytest.raises(UsageError):
        emit_dot(divisibility_biposet(3), "3")


def test_dot_well_formed_on_all_n2():
    for d in enumerate_biposets(2):
        for mode in ("1", "2", "both"):
            got = emit_dot(as_bp(d), mode)
            lines = got.splitlines()
            assert lines[0] == "digraph biposet {"
            assert lines[-1] == "}"
            for line in lines[1:-1]:
                assert line.startswith("  ")
                body = line.strip()
                assert (
                    body == "rankdir=BT;"
                    or body.startswith("//")
                    or body.endswith(";")
                )



def test_covering_pairs_match_networkx_transitive_reduction():
    cases = [powerset_biposet(k) for k in range(0, 6)]
    cases += [divisibility_biposet(k) for k in (1, 2, 12, 30, 60)]
    for bp in cases:
        for rel in (bp.d.r1, bp.d.r2):
            g = nx.DiGraph()
            g.add_nodes_from(range(rel.n))
            g.add_edges_from((i, j) for i, j in rel.pairs() if i != j)
            assert _covering_pairs(rel) == sorted(nx.transitive_reduction(g).edges())


def test_dot_of_powerset_9_within_time_bound():
    bp = powerset_biposet(9)
    start = time.perf_counter()
    got = emit_dot(bp, "both")
    elapsed = time.perf_counter() - start
    # 9 * 2^8 covering edges per component, plus the header, nodes and brace
    assert len(got.splitlines()) == 3 + 512 + 2 * 9 * 256
    assert elapsed < 3.0, f"emit_dot(powerset_biposet(9), 'both') took {elapsed:.2f} s"


def test_dot_overlay_of_shared_rows_classifies_them_once(monkeypatch):
    # powerset r1 and r2 share one row tuple; each overlay line is as before
    bp = powerset_biposet(3)
    calls = []
    real = axioms.check_classical_por
    monkeypatch.setattr(axioms, "check_classical_por", lambda rel: calls.append(rel) or real(rel))
    got = emit_dot(bp, "both")
    assert calls == [bp.d.r1]
    one = emit_dot(bp, "1").splitlines()
    edges = [line for line in one if " -> " in line]
    assert got.splitlines() == one[:-1] + [e[:-1] + " [style=dashed];" for e in edges] + ["}"]


@pytest.mark.parametrize("build,calls", [(powerset_biposet, 1), (divisibility_biposet, 2)])
def test_both_components_classify_equal_rows_once(build, calls, tmp_path, monkeypatch, capsys):
    # powerset r1 and r2 have equal rows, which parse_structure reads as two tuples
    text = serialize_structure(build(3))
    path = write(tmp_path, "s.bpo", text)
    bp = parse_structure(text)
    assert bp.d.r1.rows is not bp.d.r2.rows
    counted = []
    real = axioms.check_classical_por
    monkeypatch.setattr(axioms, "check_classical_por",
                        lambda rel: counted.append(rel) or real(rel))
    emit_dot(bp, "both")
    assert len(counted) == calls
    counted.clear()
    assert main(["classical-check", path, "--component", "both"]) == 0
    assert capsys.readouterr().out == "component 1: ok\ncomponent 2: ok\n"
    assert len(counted) == calls


# at POWERSET_CAP: 4,096 elements, 531,441 pairs in each relation, a
# 1,062,883-line .bpo file

def test_structure_text_round_trip_at_the_cap_within_time_bound(powerset_at_cap,
                                                                 powerset_at_cap_file):
    bp, _ = powerset_at_cap
    _, text, serialize_s = powerset_at_cap_file
    assert text.count("\n") == 1 + 2 * 3 ** 12
    start = time.perf_counter()
    back = parse_structure(text)
    parse_s = time.perf_counter() - start
    assert back.d == bp.d and back.ground == bp.ground
    assert parse_s < 2.0, f"parse_structure at the powerset cap took {parse_s:.2f} s"
    assert serialize_s + parse_s < 4.0, (
        f"serialize_structure and parse_structure at the powerset cap took "
        f"{serialize_s:.2f} + {parse_s:.2f} s")


def test_dot_overlay_at_the_cap_within_time_bound(powerset_at_cap):
    bp, _ = powerset_at_cap
    start = time.perf_counter()
    got = emit_dot(bp, "both")
    elapsed = time.perf_counter() - start
    # 12 * 2^11 covering edges per component, plus the header, nodes and brace
    assert len(got.splitlines()) == 3 + 4096 + 2 * 12 * 2048
    assert elapsed < 2.0, f"emit_dot(powerset_biposet(12), 'both') took {elapsed:.2f} s"


def _checkout_env():
    """The environment with this checkout's src first on the path."""
    src = os.path.dirname(os.path.dirname(biposet_pkg.__file__))
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _cli_subprocess(*argv):
    """`python -m biposet argv` against this checkout: (its stdout, seconds
    taken), after checking that it exits 0 with nothing on stderr."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "biposet", *argv], env=_checkout_env(),
                         capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert (out.returncode, out.stderr) == (0, ""), argv
    return out.stdout, elapsed


def test_cli_check_at_the_cap_within_time_bound(powerset_at_cap_file):
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("check", path)
    assert stdout == "reflexive: ok\nantisymmetric: ok\ntransitive: ok\nvalid\n"
    assert elapsed < 3.5, f"biposet check at the powerset cap took {elapsed:.2f} s"


def test_cli_classical_check_at_the_cap_within_time_bound(powerset_at_cap_file):
    # r1 and r2 have equal rows, so both lines come from one classification
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("classical-check", path, "--component", "both")
    assert stdout == "component 1: ok\ncomponent 2: ok\n"
    assert elapsed < 3.5, f"biposet classical-check at the powerset cap took {elapsed:.2f} s"


def test_cli_dual_at_the_cap_within_time_bound(powerset_at_cap, powerset_at_cap_file):
    bp, _ = powerset_at_cap
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("dual", path)
    back, want = parse_structure(stdout), dual_biposet(bp)
    assert back.d == want.d and back.ground == want.ground
    assert elapsed < 4.0, f"biposet dual at the powerset cap took {elapsed:.2f} s"


def test_cli_powerset_at_the_cap_within_time_bound(powerset_at_cap_file):
    _, text, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("powerset", "--k", str(POWERSET_CAP))
    assert stdout == text
    assert elapsed < 3.5, f"biposet powerset --k {POWERSET_CAP} took {elapsed:.2f} s"


def test_cli_intersect_at_the_cap_within_time_bound(powerset_at_cap_file):
    # a structure intersected with itself is itself, line for line
    path, text, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("intersect", path, path)
    assert stdout == text
    assert elapsed < 4.0, f"biposet intersect at the powerset cap took {elapsed:.2f} s"


def test_cli_extremal_at_the_cap_within_time_bound(powerset_at_cap_file):
    # the empty set is least and the full set greatest in both components
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("extremal", path)
    want = [f"{field}: s{2 ** POWERSET_CAP - 1}" for field in ("x", "y", "g_max", "g_min")]
    want += [f"{field}: s0" for field in ("u", "v", "l_max", "l_min")]
    assert stdout.splitlines() == [*want, "bounded: yes"]
    assert elapsed < 3.5, f"biposet extremal at the powerset cap took {elapsed:.2f} s"


def test_cli_galois_adjoint_at_the_cap_within_time_bound(powerset_at_cap, powerset_at_cap_file,
                                                          tmp_path):
    # the identity is its own right adjoint; both structure files are read
    bp, _ = powerset_at_cap
    path, _, _ = powerset_at_cap_file
    ident = serialize_mapping(Mapping.identity(bp.n), bp.ground, bp.ground)
    mapfile = write(tmp_path, "id.map", ident)
    stdout, elapsed = _cli_subprocess("galois", "adjoint", path, path, mapfile)
    assert stdout == ident
    assert elapsed < 4.0, f"biposet galois adjoint at the powerset cap took {elapsed:.2f} s"


def test_cli_iso_at_the_cap_within_time_bound(powerset_at_cap, powerset_at_cap_file):
    # the identity is the least isomorphism of a structure onto itself
    bp, _ = powerset_at_cap
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("iso", path, path)
    assert stdout == serialize_mapping(Mapping.identity(bp.n), bp.ground, bp.ground)
    assert elapsed < 5.0, f"biposet iso at the powerset cap took {elapsed:.2f} s"


def test_cli_selfdual_at_the_cap_within_time_bound(powerset_at_cap, powerset_at_cap_file):
    bp, _ = powerset_at_cap
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("selfdual", path)
    assert is_isomorphism(parse_mapping(stdout, bp.ground, bp.ground), bp, dual_biposet(bp))
    assert elapsed < 6.0, f"biposet selfdual at the powerset cap took {elapsed:.2f} s"


@pytest.mark.parametrize("mode", ["hetero", "antitone"])
def test_cli_galois_check_at_the_cap_within_time_bound(powerset_at_cap, powerset_at_cap_file,
                                                       tmp_path, mode):
    # the identity pair is Galois under inclusion, and the complement pair
    # (subset s<m> to s<n - 1 - m>) antitone Galois: b is in the complement
    # of a iff a is in that of b
    bp, _ = powerset_at_cap
    path, _, _ = powerset_at_cap_file
    img = tuple(range(bp.n))
    f = Mapping(bp.n, bp.n, img if mode == "hetero" else img[::-1])
    pairfile = write(tmp_path, f"{mode}.pair", serialize_pair(GaloisPair(f, f), bp, bp))
    stdout, elapsed = _cli_subprocess("galois", "check", path, path, pairfile, "--mode", mode)
    assert stdout == f"galois ({mode}): holds\n"
    assert elapsed < 3.0, f"biposet galois check --mode {mode} at the cap took {elapsed:.2f} s"


def test_cli_dot_overlay_at_the_cap_within_time_bound(powerset_at_cap_file):
    # one classification of the shared rows, 12 * 2^11 covering edges drawn twice
    path, _, _ = powerset_at_cap_file
    stdout, elapsed = _cli_subprocess("dot", path, "--component", "both")
    lines = stdout.splitlines()
    assert lines[:2] == ["digraph biposet {", "  rankdir=BT;"] and lines[-1] == "}"
    assert len(lines) == 3 + 2 ** POWERSET_CAP + 2 * POWERSET_CAP * 2 ** (POWERSET_CAP - 1)
    assert elapsed < 4.0, f"biposet dot --component both at the powerset cap took {elapsed:.2f} s"


def test_cli_enumerate_at_the_cap_within_time_bound(structures4):
    # 167,655 structure texts, about 29 MB, one blank line apart
    structs, _ = structures4
    stdout, elapsed = _cli_subprocess("enumerate", "--n", str(MAX_ENUM_N))
    assert stdout.count("elements: ") == len(structs) == 167_655
    first, last = stdout[:stdout.index("\n\n")], stdout[stdout.rindex("\n\n") + 2:]
    assert (parse_structure(first).d, parse_structure(last).d) == (structs[0], structs[-1])
    assert elapsed < 4.5, f"biposet enumerate --n {MAX_ENUM_N} took {elapsed:.2f} s"


def test_cli_divisibility_at_the_cap_within_time_bound():
    # the elements line, every pair of <= and every pair of divisibility
    k = DIVISIBILITY_CAP
    stdout, elapsed = _cli_subprocess("divisibility", "--k", str(k))
    lines = stdout.splitlines()
    assert lines[0] == "elements: " + " ".join(map(str, range(1, k + 1)))
    assert len(lines) == 1 + k * (k + 1) // 2 + sum(k // i for i in range(1, k + 1))
    assert lines[-1] == f"r2: {k} {k}"
    assert elapsed < 3.0, f"biposet divisibility --k {k} took {elapsed:.2f} s"


# CLI: structure commands

def test_cli_check_valid(tmp_path, capsys):
    path = write(tmp_path, "d.bpo", serialize_structure(divisibility_biposet(3)))
    assert main(["check", path]) == 0
    got = capsys.readouterr().out
    assert got == "reflexive: ok\nantisymmetric: ok\ntransitive: ok\nvalid\n"


def test_cli_check_invalid_reports_least_witness(tmp_path, capsys):
    text = (
        "elements: e0 e1 e2\n"
        "r1: e0 e0\nr1: e0 e1\nr1: e1 e1\nr1: e2 e0\nr1: e2 e2\n"
        "r2: e0 e0\nr2: e1 e0\nr2: e1 e1\nr2: e2 e2\n"
    )
    path = write(tmp_path, "bad.bpo", text)
    assert main(["check", path]) == 1
    got = capsys.readouterr().out
    assert "transitive: fail at e2 e0 e0 e1 e0 (first)" in got
    assert got.endswith("invalid\n")


@pytest.mark.parametrize("text, line", [
    # r2 sends e1 to e0 and e0 to e2 but not e1 to e2: only chain(a, b, e) breaks
    ("elements: e0 e1 e2\nr1: e0 e0\nr1: e1 e1\nr1: e2 e2\n"
     "r2: e0 e0\nr2: e0 e2\nr2: e1 e0\nr2: e1 e1\nr2: e2 e2\n",
     "transitive: fail at e1 e1 e0 e1 e2 (second)"),
    # both conclusion chains break at the least witness
    ("elements: e0 e1 e2\nr1: e0 e0\nr1: e1 e1\nr1: e1 e2\nr1: e2 e0\nr1: e2 e2\n"
     "r2: e0 e0\nr2: e0 e1\nr2: e1 e0\nr2: e1 e1\nr2: e2 e1\nr2: e2 e2\n",
     "transitive: fail at e1 e2 e1 e0 e0 (both)"),
])
def test_cli_check_labels_each_transitive_failure(tmp_path, capsys, text, line):
    path = write(tmp_path, "bad.bpo", text)
    assert main(["check", path]) == 1
    got = capsys.readouterr().out
    assert got == f"reflexive: ok\nantisymmetric: ok\n{line}\ninvalid\n"


def test_cli_check_out_flag(tmp_path, capsys):
    path = write(tmp_path, "d.bpo", serialize_structure(powerset_biposet(1)))
    dest = tmp_path / "report.txt"
    assert main(["check", path, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().endswith("valid\n")


def test_cli_out_may_name_the_input_file(tmp_path, capsys):
    # --out is written after the handler has read its input
    bp = divisibility_biposet(3)
    path = write(tmp_path, "same.bpo", serialize_structure(bp))
    assert main(["dual", path, "--out", path]) == 0
    assert capsys.readouterr() == ("", "")
    assert Path(path).read_text(encoding="utf-8") == serialize_structure(dual_biposet(bp))


def test_cli_failing_command_leaves_its_out_file_as_it_was(tmp_path, capsys):
    dest = write(tmp_path, "r.txt", "keep\n")
    missing = str(tmp_path / "missing.bpo")
    assert main(["check", missing, "--out", dest]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}")
    assert Path(dest).read_text(encoding="utf-8") == "keep\n"


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "d.bpo", serialize_structure(powerset_biposet(1)))
    assert main(["check", path, "--out", "/nonexistent/x.txt"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write /nonexistent/x.txt: No such file or directory\n")


def test_cli_enumerate_unwritable_out_is_a_usage_error(tmp_path, capsys):
    regular = write(tmp_path, "regular", "")
    assert main(["enumerate", "--n", "1", "--out", regular]) == 2
    assert capsys.readouterr().err == f"error: cannot write {regular}: File exists\n"
    # the directory is made, but a directory already holds one file's name
    blocked = tmp_path / "out" / "n1_1_1.bpo"
    blocked.mkdir(parents=True)
    assert main(["enumerate", "--n", "1", "--out", str(blocked.parent)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {blocked}: Is a directory\n"


@pytest.mark.parametrize("argv, stdout, where, reason", [
    (["enumerate", "--n", "3"], subprocess.PIPE, "stdout", "Broken pipe"),
    (["check", "d3.bpo"], "/dev/full", "stdout", "No space left on device"),
    (["enumerate", "--n", "3"], "/dev/full", "stdout", "No space left on device"),
    (["check", "d3.bpo", "--out", "/dev/full"], None, "/dev/full", "No space left on device"),
    # the files go into n2/, and only the closing summary line reaches stdout
    (["enumerate", "--n", "2", "--out", "n2"], "/dev/full", "stdout", "No space left on device"),
], ids=["closed-pipe", "check-to-full", "enumerate-to-full", "check-out-full",
        "enumerate-out-summary-to-full"])
def test_cli_closed_stdout_is_a_usage_error(tmp_path, argv, stdout, where, reason):
    # subprocesses only: the handler points fd 1 of its own process at the
    # null device
    if stdout != subprocess.PIPE and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3)))
    src = os.path.dirname(os.path.dirname(biposet_pkg.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with open(stdout, "w") if stdout == "/dev/full" else nullcontext(stdout) as sink:
        proc = subprocess.Popen([sys.executable, "-m", "biposet", *argv], env=env, cwd=tmp_path,
                                stdout=sink, stderr=subprocess.PIPE, bufsize=0)
    if stdout == subprocess.PIPE:
        # `biposet enumerate --n 3 | head -1`: the reader goes away after one
        # line, with most of the 78 kB listing (more than a 64 kB pipe) unwritten
        assert proc.stdout.readline() == b"elements: e0 e1 e2\n"
        proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err == f"error: cannot write {where}: {reason}\n"


def test_cli_check_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.bpo", "elements: a b\n# c\nr1: a c\n")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == "error: undeclared element c, line 3\n"


def test_cli_check_missing_file(capsys):
    assert main(["check", "/nonexistent/x.bpo"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read /nonexistent/x.bpo")


def test_cli_classical_check(tmp_path, capsys):
    good = write(tmp_path, "d.bpo", serialize_structure(divisibility_biposet(3)))
    assert main(["classical-check", good]) == 0
    assert capsys.readouterr().out == "component 1: ok\ncomponent 2: ok\n"
    bad = write(
        tmp_path, "loop.bpo",
        "elements: a b\nr1: a a\nr1: a b\nr1: b a\nr1: b b\nr2: a a\nr2: b b\n")
    assert main(["classical-check", bad]) == 1
    got = capsys.readouterr().out
    assert "component 1: fail antisymmetric at a b" in got
    assert "component 2: ok" in got
    assert main(["classical-check", bad, "--component", "2"]) == 0
    assert capsys.readouterr().out == "component 2: ok\n"


@pytest.mark.parametrize("r1, line", [
    ("r1: a a\n", "component 1: fail reflexive at b"),
    ("r1: a a\nr1: a b\nr1: b a\nr1: b b\nr1: c c\n",
     "component 1: fail antisymmetric at a b"),
    ("r1: a a\nr1: a b\nr1: b b\nr1: b c\nr1: c c\n",
     "component 1: fail transitive at a b c"),
])
def test_cli_classical_check_fails_each_axiom(tmp_path, capsys, r1, line):
    # each r1 breaks exactly one classical axiom; r2 is the identity
    path = write(tmp_path, "bad.bpo",
                 "elements: a b c\n" + r1 + "r2: a a\nr2: b b\nr2: c c\n")
    assert main(["classical-check", path, "--component", "1"]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_cli_classical_check_lists_failures_in_axiom_order(tmp_path, capsys):
    # component 1 misses loops at b and c, holds a b both ways and lacks a c
    path = write(tmp_path, "bad.bpo",
                 "elements: a b c\nr1: a a\nr1: a b\nr1: b a\nr1: b c\n"
                 "r2: a a\nr2: b b\nr2: c c\n")
    assert main(["classical-check", path]) == 1
    assert capsys.readouterr().out == (
        "component 1: fail reflexive at b\n"
        "component 1: fail antisymmetric at a b\n"
        "component 1: fail transitive at a b c\n"
        "component 2: ok\n")


def test_cli_dual_is_an_involution(tmp_path, capsys):
    bp = divisibility_biposet(3)
    path = write(tmp_path, "d.bpo", serialize_structure(bp))
    assert main(["dual", path]) == 0
    once = capsys.readouterr().out
    assert once == serialize_structure(dual_biposet(bp))
    path2 = write(tmp_path, "dd.bpo", once)
    assert main(["dual", path2]) == 0
    assert capsys.readouterr().out == serialize_structure(bp)


def test_cli_intersect(tmp_path, capsys):
    a = biposet(["a", "b"], [(0, 0), (1, 1), (0, 1)], [(0, 0), (1, 1)])
    b = biposet(["a", "b"], [(0, 0), (1, 1)], [(0, 0), (1, 1), (1, 0)])
    pa = write(tmp_path, "a.bpo", serialize_structure(a))
    pb = write(tmp_path, "b.bpo", serialize_structure(b))
    assert main(["intersect", pa, pb]) == 0
    got = parse_structure(capsys.readouterr().out)
    assert got.d.r1.has(0, 0) and not got.d.r1.has(0, 1)
    assert not got.d.r2.has(1, 0)


def test_cli_intersect_label_mismatch(tmp_path, capsys):
    pa = write(tmp_path, "a.bpo", serialize_structure(powerset_biposet(1)))
    pb = write(tmp_path, "b.bpo", serialize_structure(divisibility_biposet(2)))
    assert main(["intersect", pa, pb]) == 2
    assert capsys.readouterr().err == "error: element sets differ, cannot intersect\n"


def test_cli_powerset_and_divisibility(capsys):
    assert main(["powerset", "--k", "2"]) == 0
    assert capsys.readouterr().out == serialize_structure(powerset_biposet(2))
    assert main(["divisibility", "--k", "4"]) == 0
    assert capsys.readouterr().out == serialize_structure(divisibility_biposet(4))
    assert main(["divisibility", "--k", "0"]) == 2
    capsys.readouterr()
    assert main(["divisibility", "--k", str(DIVISIBILITY_CAP + 1)]) == 2
    assert "exceeds the materialization cap" in capsys.readouterr().err
    assert main(["powerset", "--k", "99"]) == 2
    capsys.readouterr()


def test_cli_extremal_exit_codes(tmp_path, capsys):
    bounded = write(tmp_path, "p2.bpo", serialize_structure(powerset_biposet(2)))
    assert main(["extremal", bounded]) == 0
    got = capsys.readouterr().out
    assert "x: s3\n" in got
    assert "bounded: yes\n" in got
    unbounded = write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3)))
    assert main(["extremal", unbounded]) == 1
    got = capsys.readouterr().out
    assert "x: 3\ny: -\n" in got
    assert "bounded: no\n" in got
    invalid = write(
        tmp_path, "bad.bpo", "elements: a\nr2: a a\n")
    assert main(["extremal", invalid]) == 2
    assert "reflexive axiom" in capsys.readouterr().err


def test_cli_extremal_notes_extrema_that_are_not_unique(tmp_path, capsys):
    path = write(tmp_path, "fi.bpo", "elements: a b\nr1: a a\nr1: a b\nr1: b a\nr1: b b\n"
                 "r2: a a\nr2: b b\n")
    assert main(["extremal", path]) == 1
    out = capsys.readouterr().out
    assert "note: component-1 greatest is not unique: a b\n" in out
    assert "note: component-1 least is not unique: a b\n" in out


@pytest.mark.parametrize("text, message", [
    ("elements: x y\nr1: x x\nr1: y y\nr1: x y\nr2: x x\nr2: y y\nr2: x y\nr2: y x\n",
     "structure fails the antisymmetric axiom at x x y\n"),
    ("elements: x y z\nr1: x x\nr1: y y\nr1: z z\nr2: x x\nr2: y y\nr2: z z\n"
     "r2: x z\nr2: y x\n",
     "structure fails the transitive axiom at y y x y z (second)\n"),
])
def test_cli_validity_error_names_the_witness_by_label(tmp_path, capsys, text, message):
    # the same witness text `biposet check` prints after "fail at"
    path = write(tmp_path, "bad.bpo", text)
    assert main(["extremal", path]) == 2
    err = capsys.readouterr().err
    assert err.endswith(message)
    assert "Traceback" not in err
    assert main(["check", path]) == 1
    assert " fail at " + message.split(" at ")[1] in capsys.readouterr().out


def test_cli_iso(tmp_path, capsys):
    pa = write(tmp_path, "a.bpo", serialize_structure(divisibility_biposet(3)))
    assert main(["iso", pa, pa]) == 0
    assert capsys.readouterr().out == "1 -> 1\n2 -> 2\n3 -> 3\n"
    chain = write(
        tmp_path, "c.bpo",
        "elements: a b\nr1: a a\nr1: a b\nr1: b b\nr2: a a\nr2: b b\n")
    disc = write(
        tmp_path, "d.bpo",
        "elements: p q\nr1: p p\nr1: q q\nr2: p p\nr2: q q\n")
    assert main(["iso", chain, disc]) == 1
    assert capsys.readouterr().out == "no isomorphism found\n"


@pytest.mark.parametrize("cmd", [["iso"], ["galois", "adjoint"]])
def test_cli_iso_out_writes_map_file(tmp_path, capsys, cmd):
    pa = write(tmp_path, "a.bpo", serialize_structure(powerset_biposet(1)))
    ident = write(tmp_path, "id.map", "s0 -> s0\ns1 -> s1\n")
    dest = tmp_path / "found.map"
    files = [pa, pa] if cmd == ["iso"] else [pa, pa, ident]
    assert main([*cmd, *files, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text() == "s0 -> s0\ns1 -> s1\n"


def test_cli_selfdual(tmp_path, capsys):
    swap = write(
        tmp_path, "swap.bpo",
        "elements: a b\nr1: a a\nr1: a b\nr1: b b\nr2: a a\nr2: b b\n")
    assert main(["selfdual", swap]) == 0
    assert capsys.readouterr().out == "a -> b\nb -> a\n"
    rigid = write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3)))
    assert main(["selfdual", rigid]) == 1
    assert capsys.readouterr().out == "not self-dual\n"


# CLI: galois commands

def test_cli_galois_check_holds_and_fails(tmp_path, capsys):
    P = powerset_biposet(1)
    Q = biposet(["q0"], [(0, 0)], [(0, 0)])
    pp = write(tmp_path, "p.bpo", serialize_structure(P))
    pq = write(tmp_path, "q.bpo", serialize_structure(Q))
    good = write(tmp_path, "good.pair",
                 serialize_pair(GaloisPair(Mapping(2, 1, (0, 0)), Mapping(1, 2, (1,))), P, Q))
    assert main(["galois", "check", pp, pq, good]) == 0
    assert capsys.readouterr().out == "galois (hetero): holds\n"
    bad = write(tmp_path, "bad.pair",
                serialize_pair(GaloisPair(Mapping(2, 1, (0, 0)), Mapping(1, 2, (0,))), P, Q))
    assert main(["galois", "check", pp, pq, bad]) == 1
    assert capsys.readouterr().out == "galois (hetero): fails at a=s1 b=q0\n"


def test_cli_galois_check_antitone_mode(tmp_path, capsys):
    chain = "elements: a b\nr1: a a\nr1: a b\nr1: b b\nr2: a a\nr2: a b\nr2: b b\n"
    pc = write(tmp_path, "c.bpo", chain)
    pair = write(tmp_path, "swap.pair", "f:\na -> b\nb -> a\ng:\na -> b\nb -> a\n")
    assert main(["galois", "check", pc, pc, pair, "--mode", "antitone"]) == 0
    assert capsys.readouterr().out == "galois (antitone): holds\n"
    assert main(["galois", "check", pc, pc, pair]) == 1
    assert capsys.readouterr().out == "galois (hetero): fails at a=a b=a\n"


def test_cli_galois_adjoint(tmp_path, capsys):
    p3 = write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3)))
    ident = write(tmp_path, "id.map", "1 -> 1\n2 -> 2\n3 -> 3\n")
    assert main(["galois", "adjoint", p3, p3, ident]) == 0
    assert capsys.readouterr().out == "1 -> 1\n2 -> 2\n3 -> 3\n"
    assert main(["galois", "adjoint", p3, p3, ident, "--side", "left"]) == 0
    assert capsys.readouterr().out == "1 -> 1\n2 -> 2\n3 -> 3\n"
    const = write(tmp_path, "c.map", "1 -> 1\n2 -> 1\n3 -> 1\n")
    assert main(["galois", "adjoint", p3, p3, const]) == 1
    assert capsys.readouterr().out == "no right adjoint\n"


def test_cli_galois_adjoint_prints_every_adjoint(tmp_path, capsys):
    # both elements of P are greatest, so q -> a and q -> b are both right adjoints
    full = write(tmp_path, "full.bpo", "elements: a b\n" + "".join(
        f"{r}: {x} {y}\n" for r in ("r1", "r2") for x in "ab" for y in "ab"))
    pt = write(tmp_path, "pt.bpo", "elements: q\nr1: q q\nr2: q q\n")
    f = write(tmp_path, "f.map", "a -> q\nb -> q\n")
    assert main(["galois", "adjoint", full, pt, f]) == 0
    assert capsys.readouterr().out == "q -> a\n\nq -> b\n"


def test_cli_galois_adjoint_on_eight_elements(tmp_path, capsys):
    p8 = write(tmp_path, "d8.bpo", serialize_structure(divisibility_biposet(8)))
    text = "".join(f"{i} -> {i}\n" for i in range(1, 9))
    ident = write(tmp_path, "id8.map", text)
    assert main(["galois", "adjoint", p8, p8, ident]) == 0
    assert capsys.readouterr().out == text


def test_a_structure_file_named_twice_is_parsed_once(tmp_path, monkeypatch, capsys):
    # one file under two names (a symlink) is one os.path.realpath, so one
    # parse; an equal copy in another file is parsed on its own
    text = serialize_structure(divisibility_biposet(3))
    p3, copy = write(tmp_path, "d3.bpo", text), write(tmp_path, "copy.bpo", text)
    link = str(tmp_path / "link.bpo")
    os.symlink(p3, link)
    ident = write(tmp_path, "id.map", "1 -> 1\n2 -> 2\n3 -> 3\n")
    pair = write(tmp_path, "id.pair", "f:\n1 -> 1\n2 -> 2\n3 -> 3\ng:\n1 -> 1\n2 -> 2\n3 -> 3\n")
    parsed = []
    real = io_cli.parse_structure
    monkeypatch.setattr(io_cli, "parse_structure", lambda text: parsed.append(text) or real(text))
    for argv, parses in ((["iso", p3, p3], 1), (["iso", p3, link], 1),
                         (["galois", "check", link, p3, pair], 1),
                         (["galois", "adjoint", p3, p3, ident], 1),
                         (["intersect", p3, link, p3], 1), (["iso", p3, copy], 2),
                         (["galois", "adjoint", p3, copy, ident], 2)):
        parsed.clear()
        assert main(argv) == 0, argv
        assert len(parsed) == parses, argv
    capsys.readouterr()


# CLI: oracle commands

def test_cli_enumerate_stdout(capsys):
    assert main(["enumerate", "--n", "1"]) == 0
    assert capsys.readouterr().out == "elements: e0\nr1: e0 e0\nr2: e0 e0\n"
    assert main(["enumerate", "--n", "2"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert len(blocks) == 11
    codes = [parse_structure(b).d.code for b in blocks]
    assert codes == [d.code for d in enumerate_biposets(2)]


def test_cli_enumerate_directory(tmp_path, capsys):
    dest = tmp_path / "all2"
    assert main(["enumerate", "--n", "2", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == f"wrote 11 structures to {dest}\n"
    names = sorted(os.listdir(dest))
    assert names[0] == "n2_11_11.bpo"
    assert "n2_9_9.bpo" in names
    assert len(names) == 11
    got = parse_structure((dest / "n2_9_15.bpo").read_text())
    assert got.d.code == (9, 15)


def test_cli_enumerate_bad_n(capsys):
    assert main(["enumerate", "--n", "7"]) == 2
    assert capsys.readouterr().err == "error: n must be between 1 and 4\n"


def test_cli_enumerate_bad_n_creates_no_directory(tmp_path, capsys):
    for n in ("9", "0"):
        dest = tmp_path / f"out{n}"
        assert main(["enumerate", "--n", n, "--out", str(dest)]) == 2
        assert capsys.readouterr().err == "error: n must be between 1 and 4\n"
        assert not dest.exists()


def test_cli_hunt_verified_claim(capsys):
    assert main(["hunt", "POWERSET_VALID", "--n", "2"]) == 0
    got = capsys.readouterr().out
    assert "claim: POWERSET_VALID\n" in got
    assert "verdict: verified-at-scale\n" in got
    assert "instances checked: 3\n" in got


def test_cli_hunt_counterexample_replays_through_check(tmp_path, capsys):
    assert main(["hunt", "DUALITY_PRINCIPLE", "--n", "3"]) == 1
    got = capsys.readouterr().out
    assert "verdict: counterexample\n" in got
    assert "scale: 3\n" in got
    assert "# --- structure\n" in got and "# --- dual\n" in got
    dual_text = got.split("# --- dual\n", 1)[1].split("# ---", 1)[0]
    path = write(tmp_path, "dual.bpo", dual_text)
    assert main(["check", path]) == 1
    assert "transitive: fail at e2 e0 e0 e1 e0 (first)" in capsys.readouterr().out


def test_cli_hunt_echoes_budget_and_seed(capsys):
    # the budget line reports INTERSECT_CLOSURE's fixed n = 3 draws
    assert main(["hunt", "INTERSECT_CLOSURE", "--n", "3", "--seed", "5"]) == 0
    got = capsys.readouterr().out
    assert "seed: 5\n" in got
    assert "budget: 20000\n" in got


def test_cli_hunt_rejects_a_negative_seed(capsys):
    for claim in ("INTERSECT_CLOSURE", "UNIQUE_GMAX"):
        assert main(["hunt", claim, "--n", "3", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be at least 0\n"
        assert captured.out == ""


def test_cli_hunt_rejects_unknown_claim(capsys):
    assert main(["hunt", "NOT_A_CLAIM"]) == 2
    capsys.readouterr()


def test_cli_hunt_lists_every_claim_in_table_order(capsys):
    ids = list(biposet_pkg.CLAIM_IDS)
    assert main(["hunt", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert "argument claim: invalid choice: 'NOPE'" in err
    assert re.findall(r"[A-Z0-9_]+", err.split("(choose from ", 1)[1]) == ids
    assert main(["hunt", "-h"]) == 0
    help_text = capsys.readouterr().out
    assert "[--seed SEED] claim positional arguments:" in " ".join(help_text.split())
    listed = help_text.split("a registered claim:", 1)[1].split("options:", 1)[0]
    assert re.findall(r"[A-Z0-9_]+", listed) == ids


# CLI: dot and argparse plumbing

def test_cli_dot(tmp_path, capsys):
    path = write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3)))
    assert main(["dot", path, "--component", "both"]) == 0
    got = capsys.readouterr().out
    assert got.startswith("digraph biposet {\n")
    assert '"1" -> "3" [style=dashed];' in got
    assert main(["dot", path, "--component", "3"]) == 2
    capsys.readouterr()


def test_cli_help_and_usage_exits(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["powerset"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, error", [
    (["hunt", "INTERSECT_CLOSURE", "--budget", "5"],
     "biposet: error: unrecognized arguments: --budget 5"),
    # values once refused by range are refused by argparse before any draw
    (["hunt", "INTERSECT_CLOSURE", "--n", "3", "--budget", "0"],
     "biposet: error: unrecognized arguments: --budget 0"),
    (["hunt", "INTERSECT_CLOSURE", "--n", "3", "--budget", "1000001"],
     "biposet: error: unrecognized arguments: --budget 1000001"),
    (["galois", "check", "p", "q", "pair", "--mode", "monotone"],
     "biposet galois check: error: argument --mode: invalid choice: 'monotone'"),
], ids=["hunt-budget", "hunt-budget-below-one", "hunt-budget-above-cap", "galois-monotone"])
def test_cli_a_retired_option_is_one_argparse_error(argv, error, capsys):
    # one argparse error line after the usage lines, and nothing on stdout
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(error), captured.err


def test_cli_iso_and_selfdual_answer_a_loopless_path(tmp_path, capsys):
    # nine elements without loops and no r2 edge: no chain, so the least
    # isomorphism, onto itself and onto its dual, is the identity
    names = [f"e{i}" for i in range(9)]
    text = "elements: " + " ".join(names) + "\n" + "".join(
        f"r1: {a} {b}\n" for a, b in zip(names, names[1:]))
    path = write(tmp_path, "path9.bpo", text)
    identity = "".join(f"{name} -> {name}\n" for name in names)
    start = time.perf_counter()
    assert main(["iso", path, path]) == 0
    assert capsys.readouterr().out == identity
    assert main(["selfdual", path]) == 0
    assert capsys.readouterr().out == identity
    assert time.perf_counter() - start < 1.0


# modules reported by name; biposet's own are reported by prefix
WATCHED = ("argparse", "numpy", "dataclasses", "inspect")


def _modules_after(code):
    """The biposet*, argparse, numpy, dataclasses and inspect entries that
    sys.modules gains while code runs in a fresh interpreter with this
    checkout first on the path: a site hook may have loaded some before."""
    program = (f"import sys\n_bare = set(sys.modules)\n{code}\n"
               "print(' '.join(sorted(m for m in set(sys.modules) - _bare\n"
               f"    if m in {WATCHED!r} or m.split('.')[0] == 'biposet')))")
    out = subprocess.run([sys.executable, "-c", program], env=_checkout_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    return set(out.stdout.splitlines()[-1].split())


def _run_cli(*argv, code=0):
    # `python -m biposet ...` run in-process, so that _modules_after sees it
    return ("import runpy, sys\n"
            f"sys.argv = ['biposet', *{list(argv)!r}]\n"
            "try:\n"
            "    runpy.run_module('biposet', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            f"    assert exc.code == {code}, exc.code\n")


# what enumerate_biposets and a lookup of validity_kernel load; no call
# below loads dataclasses or inspect, which only numpy brings in
ENUMERATION = {"biposet", "biposet.core", "biposet.enumeration"}
# what every command loads before it runs; one that reads or writes
# structure text adds the text formats, and `hunt` its claim's modules
CLI = {"biposet", "biposet.cli", "biposet.core", "argparse"}
TEXT = CLI | {"biposet.io_cli"}
ORACLE = {"biposet", "biposet.core", "biposet.constructions", "biposet.enumeration",
          "biposet.oracle"}
HUNT = CLI | ORACLE
GALOIS = {"biposet.oracle_galois", "biposet.galois", "biposet.morphisms"}

# (call: a command line or library code, its exit code, the modules it loads)
LOADS = {
    # a verified claim reads and writes no text and checks no axiom
    "hunt-DOUBLE_DUAL": (["hunt", "DOUBLE_DUAL", "--n", "3"], 0, HUNT),
    # a refuted one writes its witness
    "hunt-DUALITY_PRINCIPLE": (["hunt", "DUALITY_PRINCIPLE", "--n", "3"], 1,
                               HUNT | {"biposet.axioms", "biposet.io_cli"}),
    "hunt-UNIQUE_GMAX": (["hunt", "UNIQUE_GMAX", "--n", "3"], 0,
                         HUNT | {"biposet.extremal", "biposet.axioms"}),
    "hunt-ISO_IFF_ISOTONE": (["hunt", "ISO_IFF_ISOTONE", "--n", "2"], 0,
                             HUNT | {"biposet.morphisms"}),
    # only the Galois rows load their module
    "hunt-GALOIS_COMPOSE": (["hunt", "GALOIS_COMPOSE", "--n", "1"], 0, HUNT | GALOIS),
    "hunt-ADJOINT_UNIQUE": (["hunt", "ADJOINT_UNIQUE", "--n", "3"], 0, HUNT | GALOIS),
    "hunt-GALOIS_THM11_FWD": (["hunt", "GALOIS_THM11_FWD", "--n", "2"], 1,
                              HUNT | GALOIS | {"biposet.io_cli"}),
    "check": (["check", "{p3}"], 0, TEXT | {"biposet.axioms"}),
    "dot": (["dot", "{p3}"], 0, TEXT | {"biposet.axioms"}),
    # these never compile the axiom checker
    "enumerate": (["enumerate", "--n", "3"], 0, TEXT | {"biposet.enumeration"}),
    "dual": (["dual", "{p3}"], 0, TEXT | {"biposet.constructions"}),
    "intersect": (["intersect", "{p3}", "{p3}"], 0, TEXT | {"biposet.constructions"}),
    "iso": (["iso", "{p3}", "{p3}"], 0, TEXT | {"biposet.constructions", "biposet.morphisms"}),
    "selfdual": (["selfdual", "{p3}"], 1, TEXT | {"biposet.constructions", "biposet.morphisms"}),
    "galois-adjoint": (["galois", "adjoint", "{p3}", "{p3}", "{ident}"], 0,
                       TEXT | {"biposet.constructions", "biposet.galois", "biposet.morphisms"}),
    # the library loads neither argparse nor the command line
    "enumerate_biposets": ("list(biposet.enumerate_biposets(4))", 0, ENUMERATION),
    "validity_kernel": ("biposet.validity_kernel", 0, ENUMERATION),
    "verify_claim": ("biposet.verify_claim('DOUBLE_DUAL', 3)", 0, ORACLE),
    # a replay parses its witness
    "replay_finding": ("biposet.replay_finding(biposet.verify_claim('DUALITY_PRINCIPLE', 3))", 0,
                       ORACLE | {"biposet.axioms", "biposet.io_cli"}),
    # a duality_sample call adds numpy (which imports inspect), dual's
    # module and the checker that re-verifies what the kernel found
    "duality_sample": ("biposet.duality_sample(2, 10, 0)", 0,
                       ENUMERATION | {"biposet.constructions", "biposet.axioms", "numpy",
                                      "inspect"}),
}


@pytest.mark.parametrize("name", list(LOADS))
def test_a_call_loads_only_the_modules_it_runs(name, tmp_path):
    call, code, want = LOADS[name]
    files = {"p3": write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3))),
             "ident": write(tmp_path, "id.map", "1 -> 1\n2 -> 2\n3 -> 3\n")}
    if isinstance(call, str):
        program = "import biposet\n" + call
    else:
        program = _run_cli(*(arg.format(**files) for arg in call), code=code)
    assert _modules_after(program) == want


def test_cli_enumerate_loads_the_enumeration_and_not_the_oracle(tmp_path):
    # into a directory as onto stdout (LOADS)
    out = str(tmp_path / "n2")
    assert _modules_after(_run_cli("enumerate", "--n", "2", "--out", out)) == (
        LOADS["enumerate"][2])
    assert len(os.listdir(out)) == 11


def test_no_claim_loads_numpy():
    # nor does a replay, and neither loads the command line or dataclasses
    loaded = _modules_after("import biposet\nfor c in biposet.CLAIM_IDS:\n"
                            "    biposet.replay_finding(biposet.verify_claim(c, 3))")
    assert "biposet.oracle" in loaded
    assert loaded.isdisjoint({"numpy", "argparse", "biposet.cli", "dataclasses", "inspect"})


def test_without_numpy_the_package_every_command_and_the_claims_run(tmp_path):
    """numpy blocked, as on an install without the numpy extra: `import
    biposet`, every CLI subcommand on a small structure with its usual exit
    code, and scripts/run_claims.py --n 2, in one interpreter."""
    p3 = write(tmp_path, "d3.bpo", serialize_structure(divisibility_biposet(3)))
    ident = write(tmp_path, "id.map", "1 -> 1\n2 -> 2\n3 -> 3\n")
    pair = write(tmp_path, "id.pair", "f:\n1 -> 1\n2 -> 2\n3 -> 3\ng:\n1 -> 1\n2 -> 2\n3 -> 3\n")
    cases = [(["check", p3], 0), (["classical-check", p3], 0), (["dual", p3], 0),
             (["intersect", p3, p3], 0), (["powerset", "--k", "2"], 0),
             (["divisibility", "--k", "4"], 0), (["extremal", p3], 1), (["iso", p3, p3], 0),
             (["selfdual", p3], 1), (["galois", "check", p3, p3, pair], 0),
             (["galois", "adjoint", p3, p3, ident], 0), (["enumerate", "--n", "2"], 0),
             (["hunt", "DOUBLE_DUAL", "--n", "2"], 0), (["dot", p3], 0)]
    parser = cli._build_parser()
    assert {parser.parse_args(argv).func.__name__ for argv, _ in cases} == {
        name for name in vars(cli) if name.startswith("_cmd_")}
    script = str(Path(biposet_pkg.__file__).parents[2] / "scripts" / "run_claims.py")
    program = ("import contextlib, io, runpy, sys\n"
               "sys.modules['numpy'] = None     # `import numpy` raises ImportError\n"
               "import biposet\n"
               "from biposet.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               f"    codes = [main(argv) for argv in {[argv for argv, _ in cases]!r}]\n"
               f"    sys.argv = [{script!r}, '--n', '2']\n"
               "    try:\n"
               f"        runpy.run_path({script!r}, run_name='__main__')\n"
               "    except SystemExit as exc:\n"
               "        codes.append(exc.code)\n"
               "assert sys.modules['numpy'] is None\n"
               "print(codes)\n")
    out = subprocess.run([sys.executable, "-c", program], env=_checkout_env(),
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    # run_claims.py exits 1: GALOIS_THM11_FWD is refuted at n = 2
    assert ast.literal_eval(out.stdout) == [code for _, code in cases] + [1]


def _imports_of(modules, tree):
    """The enclosing function of each import in tree of a name in modules or
    its submodules, None for one that runs when tree is loaded."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend(owner for alias in child.names
                             if alias.name.split(".")[0] in modules)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                if (child.module or "").split(".")[0] in modules:
                    found.append(owner)
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(tree, None)
    return found


def _package_trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in Path(biposet_pkg.__file__).parent.glob("*.py")]


def test_numpy_is_imported_only_inside_the_one_helper():
    # numpy is an optional extra: no module imports it when loaded, and
    # enumeration._numpy, which names the extra when numpy is missing, is
    # the one place that imports it
    importers = [(name, owner) for name, tree in _package_trees()
                 for owner in _imports_of({"numpy"}, tree)]
    assert importers == [("enumeration.py", "_numpy")]


def test_no_module_imports_dataclasses_or_inspect_when_loaded():
    # together 7-10 ms of every CLI call; the value classes build what the
    # dataclass functions read on first use, importing both there
    slow = {"dataclasses", "inspect"}
    eager = [name for name, tree in _package_trees() if None in _imports_of(slow, tree)]
    assert eager == []
    assert _imports_of(slow, ast.parse("def f():\n    from dataclasses import replace\n")) == ["f"]
    for bad in ("import inspect\n", "import dataclasses as dc\n",
                "class A:\n    from dataclasses import fields\n",
                "if True:\n    from inspect import signature\n"):
        assert _imports_of(slow, ast.parse(bad)) == [None], bad


def _checked_files(*extra):
    """The package modules, the scripts and the tests, and the Python files
    of the extra directories at the repository root."""
    pkg = Path(biposet_pkg.__file__).parent
    root = pkg.parent.parent
    paths = [*pkg.glob("*.py"),
             *(path for name in ("scripts", "tests", *extra)
               for path in (root / name).glob("*.py"))]
    assert {"io_cli.py", "run_claims.py", "test_io_cli.py"} <= {path.name for path in paths}
    return paths


def test_no_source_or_script_line_is_over_100_characters():
    wide = [f"{path.name}:{lineno} is {len(line)} characters"
            for path in _checked_files()
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > 100]
    assert wide == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    paths = _checked_files("perfbench")
    assert "run.py" in {path.name for path in paths}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) in ("__all__", "_EXPORTS") for t in node.targets):
                # the lazy export table names what it serves in strings
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        unused += [f"{path.name}:{lineno} {name}" for name, lineno in imported.items()
                   if name not in used]
    assert unused == []


def _stray_field_writes(tree: ast.Module) -> list[int]:
    """Lines that call object.__setattr__ or object.__delattr__ outside the
    __new__ or __init__ of a class whose bases name _Value."""
    constructors = [(f.lineno, f.end_lineno) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef)
                    and any(getattr(base, "id", getattr(base, "attr", None)) == "_Value"
                            for base in cls.bases)
                    for f in cls.body
                    if isinstance(f, ast.FunctionDef) and f.name in ("__new__", "__init__")]
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__delattr__")
            and getattr(node.value, "id", None) == "object"
            and not any(low <= node.lineno <= high for low, high in constructors)]


def test_only_a_value_constructor_sets_a_field():
    # a shared Rel changed in place would change every structure holding it
    stray = [f"{path.name}:{lineno}" for path in _checked_files("perfbench")
             for lineno in _stray_field_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert stray == []
    allowed = ("class Rel(_Value):\n    def __new__(cls):\n"
               "        self = object.__new__(cls)\n        object.__setattr__(self, 'n', 1)\n")
    assert _stray_field_writes(ast.parse(allowed)) == []
    for bad in (allowed.replace("__new__(cls)", "grow(cls)"),
                allowed.replace("(_Value)", "(tuple)"),
                allowed + "object.__delattr__(Rel(), 'n')\n"):
        assert _stray_field_writes(ast.parse(bad)) != [], bad


def test_import_biposet_loads_no_submodule():
    assert _modules_after("import biposet") == {"biposet"}
    # a public name loads its own module and what that imports, then stays bound
    assert _modules_after("import biposet\nbiposet.check_axioms\n"
                          "assert 'check_axioms' in vars(biposet)") == {
        "biposet", "biposet.core", "biposet.axioms"}
