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


def _run(*args):
    src = os.path.dirname(os.path.dirname(biposet.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_claims.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120)


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


def _load_script():
    path = os.path.join(ROOT, "scripts", "run_claims.py")
    spec = importlib.util.spec_from_file_location("run_claims", path)
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
