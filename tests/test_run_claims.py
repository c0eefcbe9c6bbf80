"""scripts/run_claims.py, run as a subprocess against this checkout and
loaded in-process where a library call is stubbed."""

import importlib.util
import os
import subprocess
import sys

import pytest

import biposet
from biposet import CLAIM_DESCRIPTIONS, CLAIM_IDS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "run_claims.py")


def _env():
    src = os.path.dirname(os.path.dirname(biposet.__file__))
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args],
                          env=_env(), capture_output=True, text=True, timeout=120)


def test_describe_prints_one_line_per_table_row():
    out = _run("--describe")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{c}: {CLAIM_DESCRIPTIONS[c]}" for c in CLAIM_IDS]
    assert len(CLAIM_IDS) == 15


def test_one_claim_at_n4():
    out = _run("--claim", "POWERSET_VALID", "--n", "4")
    assert out.returncode == 0, out.stderr
    line, = out.stdout.splitlines()
    assert line.split()[:3] == ["POWERSET_VALID", "verified-at-scale", "scale=4"]
    assert "instances=5" in line and line.endswith("replays")


@pytest.mark.parametrize("args,message", [
    (("--n", "0"), "n_max must be between 1 and 4"),
    (("--budget", "0"), "budget must be at least 1"),
])
def test_a_bad_argument_makes_the_exit_code_2_with_one_error_line(args, message):
    out = _run(*args)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


def test_a_reader_that_closes_after_the_first_line_makes_the_exit_code_2():
    # `run_claims.py | head -1` with each row written as it is found (-u):
    # the rows after the first meet a closed pipe
    proc = subprocess.Popen([sys.executable, "-u", SCRIPT, "--n", "3"], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"INTERSECT_CLOSURE ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_stdout_makes_the_exit_code_2():
    with open("/dev/full", "w") as full:
        out = subprocess.run([sys.executable, SCRIPT, "--describe"], env=_env(), stdout=full,
                             stderr=subprocess.PIPE, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stderr == "error: cannot write stdout: No space left on device\n"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_claims", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("claim", ["GALOIS_ASYMMETRY", "POWERSET_VALID"])
def test_a_failed_replay_makes_the_exit_code_1(monkeypatch, capsys, claim):
    script = _load_script()
    assert script.main(["--claim", claim, "--n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("replays")
    monkeypatch.setattr(script, "replay_finding", lambda finding: False)
    assert script.main(["--claim", claim, "--n", "2"]) == 1
    assert capsys.readouterr().out.splitlines()[0].endswith("REPLAY FAILED")


def test_a_seed_is_noted_as_unused_only_where_given():
    # a plain run carries no "unused" note; --seed 5 marks every row but the
    # sampled INTERSECT_CLOSURE at n = 3, which records it
    plain = _run("--n", "3")
    assert "unused" not in plain.stdout
    seeded = _run("--n", "3", "--seed", "5")
    assert plain.returncode == seeded.returncode == 1     # two claims are refuted
    unused = [line.split("note: ", 1)[1] for line in seeded.stdout.splitlines()
              if "unused" in line]
    assert unused == [f"seed 5 unused: {c} is exhaustive"
                      for c in CLAIM_IDS if c != "INTERSECT_CLOSURE"]
    assert len(unused) == 14
