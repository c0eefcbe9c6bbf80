import os
import time

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
    main,
    parse_mapping,
    parse_pair,
    parse_structure,
    powerset_biposet,
    serialize_mapping,
    serialize_pair,
    serialize_structure,
)
from biposet.core import Diamond, Rel
from biposet.io_cli import _covering_pairs

from conftest import all_diamonds


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


def test_cli_check_out_flag(tmp_path, capsys):
    path = write(tmp_path, "d.bpo", serialize_structure(powerset_biposet(1)))
    dest = tmp_path / "report.txt"
    assert main(["check", path, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_text().endswith("valid\n")


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


def test_cli_iso_out_writes_map_file(tmp_path, capsys):
    pa = write(tmp_path, "a.bpo", serialize_structure(powerset_biposet(1)))
    dest = tmp_path / "found.map"
    assert main(["iso", pa, pa, "--out", str(dest)]) == 0
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
    assert main(["hunt", "INTERSECT_CLOSURE", "--n", "3", "--budget", "200", "--seed", "5"]) == 0
    got = capsys.readouterr().out
    assert "seed: 5\n" in got
    assert "budget: 200\n" in got


def test_cli_hunt_rejects_unknown_claim(capsys):
    assert main(["hunt", "NOT_A_CLAIM"]) == 2
    capsys.readouterr()


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
