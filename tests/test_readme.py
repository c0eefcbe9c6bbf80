"""README's code blocks run as written: the quickstart prints what its
comments say, the `>>>` block passes under doctest, and each command of the
command-line block exits with the code its comment states, 0 where it
states none."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from biposet import cli, powerset_biposet, serialize_structure

README = (Path(cli.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)
# the command-line block: every line one `biposet` call
COMMANDS = next(block for block in re.findall(r"^```sh\n(.*?)^```$", README, re.S | re.M)
                if block.startswith("biposet ")).splitlines()


def test_readme_has_the_quickstart_and_one_doctest_block():
    assert [block.startswith(">>>") for block in BLOCKS] == [False, True]


def test_the_quickstart_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(BLOCKS[0], {})
    assert out.getvalue().splitlines() == [
        "True None", "True", "None", "[Mapping(src_n=3, dst_n=3, img=(0, 1, 2))]"]


def test_the_doctest_block_passes():
    test = doctest.DocTestParser().get_doctest(BLOCKS[1], {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert (runner.failures, runner.tries) == (0, 5)


def test_each_command_line_exits_with_the_code_its_comment_states(tmp_path, monkeypatch):
    # the inputs the block reads but does not write: a, b, p and q are one
    # self-dual structure, so iso finds the identity (written to f.map),
    # selfdual a witness and galois adjoint its right adjoint, and fg.pair
    # is that identity both ways, a Galois pair
    monkeypatch.chdir(tmp_path)
    chain = serialize_structure(powerset_biposet(1))
    for name in ("a.bpo", "b.bpo", "p.bpo", "q.bpo"):
        Path(name).write_text(chain, encoding="utf-8")
    labels = powerset_biposet(1).ground.labels
    identity = "".join(f"{x} -> {x}\n" for x in labels)
    Path("fg.pair").write_text(f"f:\n{identity}g:\n{identity}", encoding="utf-8")
    stated = {}
    for line in COMMANDS:
        words = shlex.split(line, comments=True)
        target = words.pop() if words[-2] == ">" else None
        argv = words[1:len(words) - (target is not None)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if target:
            Path(target).write_text(out.getvalue(), encoding="utf-8")
        comment = line.partition("#")[2]
        expected = re.search(r"exit (\d)", comment)
        if expected:
            stated[argv[0]] = code
        assert code == int(expected[1] if expected else 0), (line, err.getvalue())
        if "if unbounded" in comment:
            assert "bounded: no" in out.getvalue().splitlines()
    assert stated == {"extremal": 1, "hunt": 1}
    assert Path("f.map").read_text(encoding="utf-8") == identity
    assert len(list(Path("all2").iterdir())) == 11
