"""README's Python blocks run as written: the quickstart prints what its
comments say, and the `>>>` block passes under doctest."""

import contextlib
import doctest
import io
import re
from pathlib import Path

from biposet import cli

README = (Path(cli.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)


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
