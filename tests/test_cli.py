"""The command line's entry points and its parser: main reads a call that
names a command with that command's parser alone (the fast path), and
gives byte for byte what the full parser gives."""

import argparse
import importlib
from pathlib import Path

import pytest

from biposet import cli, divisibility_biposet, serialize_structure

ROOT = Path(cli.__file__).parents[2]

# {name} stands for a file written by the test: a valid structure (s), a
# mapping (m) and a Galois pair (p) on it
CALLS = [
    [], ["-h"], ["--help"], ["nope"], ["nope", "-h"], ["--nope", "check"],
    *[[command, "-h"] for command in cli.COMMANDS],
    ["galois", "check", "-h"], ["galois", "adjoint", "-h"], ["galois"], ["galois", "nope"],
    # argparse errors inside a command, and one left to the top level
    ["powerset"], ["hunt", "INTERSECT_CLOSURE", "--budget", "5"],
    ["galois", "check", "p", "q", "pair", "--mode", "monotone"], ["hunt", "NOPE"],
    ["dot", "f", "--component", "3"], ["check", "{s}", "extra"], ["hunt", "DOUBLE_DUAL", "-n"],
    # errors that the top level reports with its usage line
    ["galois", "adjoint", "{s}", "{s}", "{m}", "--nope"], ["enumerate", "--n", "2", "extra"],
    ["dot", "{s}", "--out"], ["hunt", "DOUBLE_DUAL", "--n", "2", "--seed"],
    # one valid call per command
    ["check", "{s}"], ["classical-check", "{s}", "--component", "1"], ["dual", "{s}"],
    ["intersect", "{s}", "{s}"], ["powerset", "--k", "2"], ["divisibility", "--k", "6"],
    ["extremal", "{s}"], ["iso", "{s}", "{s}"], ["selfdual", "{s}"],
    ["galois", "check", "{s}", "{s}", "{p}"], ["galois", "adjoint", "{s}", "{s}", "{m}"],
    ["enumerate", "--n", "2"], ["hunt", "DOUBLE_DUAL", "--n", "2"], ["dot", "{s}"],
]


def _files(tmp_path):
    labels = "1 2 3 4 5 6".split()
    ident = "".join(f"{x} -> {x}\n" for x in labels)
    paths = {"s": serialize_structure(divisibility_biposet(6)), "m": ident,
             "p": f"f:\n{ident}g:\n{ident}"}
    for name, text in paths.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return {name: str(tmp_path / name) for name in paths}


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _subcommands(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_commands_are_the_full_parsers_subcommands_in_order():
    full = cli._build_parser()
    subs = _subcommands(full)
    assert tuple(subs.choices) == cli.COMMANDS
    # the full parser's text is argparse's own: its errors name `cmd`
    assert (subs.metavar, subs.dest) == (None, "cmd")
    for command in cli.COMMANDS:
        parser = cli._build_parser(command)
        assert tuple(_subcommands(parser).choices) == (command,)
        assert _subcommands(parser).metavar == "{" + ",".join(subs.choices) + "}"
        assert parser.format_usage() == full.format_usage()


@pytest.mark.parametrize("argv", CALLS, ids=[" ".join(argv) or "no-arguments" for argv in CALLS])
def test_the_command_parser_gives_what_the_full_parser_gives(argv, tmp_path, monkeypatch,
                                                           capsys):
    argv = [arg.format(**_files(tmp_path)) for arg in argv]
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda *only: built.append(only) or real(*only))
    fast = _run(argv, capsys)
    # each call builds one parser: the named command's, or the full one
    assert built == [(argv[0] if argv and argv[0] in cli.COMMANDS else None,)]
    # the full parser reads the same call
    monkeypatch.setattr(cli, "_build_parser", lambda *only: real())
    assert _run(argv, capsys) == fast


def test_the_console_script_is_the_main_python_m_runs():
    tomllib = pytest.importorskip("tomllib")    # Python 3.11 and later
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
        "project"]["scripts"]
    module, _, name = scripts["biposet"].partition(":")
    main = getattr(importlib.import_module(module), name)
    assert main is importlib.import_module("biposet.__main__").main is cli.main
