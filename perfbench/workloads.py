"""Benchmark worker: runs passes of one workload in a fresh process.

run.py starts it as

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --first-pass I --work DIR

with PYTHONPATH pointing at the checkout's src/. The worker imports biposet,
prepares the workload's inputs from the seed (untimed), then runs timed
passes until S seconds have gone by (always at least one pass; the claims
workload runs exactly one, so that every pass sees cold library caches).
Every public call the benchmark makes is one operation: it fails if it
raises, exits with an unexpected code, or returns output that fails the
check written next to it. With --trace 1, a span is recorded around each
call and kept in memory; all spans are returned at the end.

The last line of stdout is one JSON object: pass and CLI times, raw and in
reference seconds (speed.py), operation counts, counters, peak RSS and the
spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import os
import platform
import random
import re
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import networkx as nx
import numpy as np

import biposet as bp
from speed import Speedometer

CLI_TIMEOUT_S = 120

# --- claims: verdict and instances_checked per claim at n_max=3 on the seed
# code. tests/test_acceptance.py freezes every verdict and the counts 20122,
# 665, 4, 2558697, 311892412, 2975 and 23276568; 149 and 1 are the seed
# code's values for the two refuting/exhibit claims.
VERIFIED, REFUTED = "verified-at-scale", "counterexample"
EXPECTED_CLAIMS = {
    "INTERSECT_CLOSURE": (VERIFIED, 20122),
    "UNIQUE_GMAX": (VERIFIED, 665),
    "UNIQUE_GMIN": (VERIFIED, 665),
    "UNIQUE_LMAX": (VERIFIED, 665),
    "UNIQUE_LMIN": (VERIFIED, 665),
    "POWERSET_VALID": (VERIFIED, 4),
    "ISO_IFF_ISOTONE": (VERIFIED, 2558697),
    "DUALITY_PRINCIPLE": (REFUTED, 149),
    "POWERSET_SELF_DUAL": (VERIFIED, 4),
    "DOUBLE_DUAL": (VERIFIED, 665),
    "GALOIS_THM11_FWD": (REFUTED, 311892412),
    "GALOIS_THM11_BWD": (VERIFIED, 311892412),
    "GALOIS_COMPOSE": (VERIFIED, 2975),
    "ADJOINT_UNIQUE": (VERIFIED, 23276568),
    "GALOIS_ASYMMETRY": (VERIFIED, 1),
}
HUNT_CLAIM, HUNT_SAMPLES = "DOUBLE_DUAL", 7     # one command line, so its median is robust

# --- large: sizes chosen so that no single module dominates a pass.
POW_K = 8          # powerset on 256 elements: build, validate, dual, extremal, text, DOT
ISO_K = 6          # powerset on 64 elements: self-duality and symmetric isomorphism
DIV_ISO_K = 72     # divisibility on 72 elements: rigid isomorphism
DIV_ADJ_K = 6      # find_adjoint exhausts 6^6 candidates
CLI_DIV_K = 5      # galois adjoint through the CLI

# --- n4: draws per pass and the length of the enumerated slice.
N4 = 4
N4_DRAWS = 50_000
ENUM4_SLICE = 5_000


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id, pass.

    main() adds each span's duration in reference seconds ("ref") at the end.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self.pass_index = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 1):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id, "pass": self.pass_index, "count": count,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class Bench:
    """Operation accounting, CLI calls and counters for one worker."""

    def __init__(self, tracer: Tracer, speedo: Speedometer, work: Path):
        self.tracer = tracer
        self.speedo = speedo
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cli_calls: list[tuple[str, float, float]] = []   # command line, start, end
        self.counters: dict[str, int] = {}

    def fail(self, what: str, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def expect(self, ok: bool, what: str) -> None:
        """One benchmark-side output check, counted as one operation."""
        self.attempted += 1
        if not ok:
            self.fail(what, "output check failed")

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name: str, fn, *args, check=None, count: int = 1, **kwargs):
        """One public call, traced as span `name`; None when it raised."""
        self.attempted += 1
        try:
            with self.tracer.span(name, count):
                result = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation
            self.fail(name, f"raised {exc!r}")
            return None
        if check is not None and not check(result):
            self.fail(name, "output check failed")
        return result

    @contextmanager
    def subprocesses(self):
        """Block of cli() calls: periodic speed sampling is held, since the
        children run on the same CPU; import samples before the first call
        and after each call give each child's speed."""
        self.speedo.hold()
        try:
            yield
        finally:
            self.speedo.run()

    def cli(self, sub: str, args: list[str], rc: int, check=None) -> None:
        """One `python -m biposet` subprocess, run to completion."""
        if not self.speedo.held:
            raise RuntimeError("cli() runs inside a subprocesses() block")
        self.attempted += 1
        name = f"io_cli.cli.{sub}"
        try:
            with self.tracer.span(name):
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "biposet", *args], cwd=self.work,
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                t1 = time.perf_counter()
            self.cli_calls.append((" ".join(args), t0, t1))
            self.speedo.sample(with_import=True)
        except subprocess.TimeoutExpired:
            self.fail(name, "timed out")
            return
        if proc.returncode != rc:
            self.fail(name, f"exit {proc.returncode}, expected {rc}: {proc.stderr.strip()[-200:]}")
        elif check is not None and not check(proc.stdout):
            self.fail(name, "output check failed")


# ---------------------------------------------------------------------------
# claims: all 15 registered claims at n_max=3, replayed, plus `hunt` calls


def claims_prepare(b: Bench, seed: int) -> dict:
    return {"seed": seed}


def claims_inputs(state: dict, rng: random.Random) -> dict:
    return state


def _hunt_ok(claim: str):
    want = f"instances checked: {EXPECTED_CLAIMS[claim][1]}\n"
    return lambda out: f"verdict: {EXPECTED_CLAIMS[claim][0]}\n" in out and want in out


def claims_pass(b: Bench, inp: dict) -> None:
    seed = inp["seed"]
    b.call(
        "oracle.enumerate",
        lambda: {n: sum(1 for _ in bp.enumerate_biposets(n)) for n in (1, 2, 3)},
        check=lambda c: c == bp.GOLDEN_COUNTS)
    findings = []
    for claim in bp.CLAIM_IDS:
        verdict, instances = EXPECTED_CLAIMS.get(claim, (None, None))
        findings.append(b.call(
            f"oracle.claim.{claim}", bp.verify_claim, claim, 3, seed=seed,
            check=lambda f, v=verdict, i=instances: f.verdict == v and f.instances_checked == i))
    b.expect(sorted(bp.CLAIM_IDS) == sorted(EXPECTED_CLAIMS), "claims.registry")
    for f in findings:
        if f is not None:
            b.call("oracle.replay", bp.replay_finding, f, check=lambda r: r is True)
    with b.subprocesses():
        for _ in range(HUNT_SAMPLES):
            b.cli("hunt", ["hunt", HUNT_CLAIM, "--n", "3", "--seed", str(seed)], 0,
                  _hunt_ok(HUNT_CLAIM))


# ---------------------------------------------------------------------------
# large: one big structure per call through every non-oracle module, plus CLI


def relabelled(src: bp.BiPoset, perm: list[int]) -> bp.BiPoset:
    """Copy of src with element i moved to position perm[i], keeping its label."""
    labels = [""] * src.n
    for i, p in enumerate(perm):
        labels[p] = src.ground.labels[i]

    def moved(rel):
        return [(perm[i], perm[j]) for i, j in rel.pairs()]

    return bp.biposet(labels, moved(src.d.r1), moved(src.d.r2))


_DOT_EDGE = re.compile(r'  "([^"]+)" -> "([^"]+)"( \[style=dashed\])?;\Z')


def dot_edges(text: str) -> tuple[set, set] | None:
    """Solid and dashed edge sets of an emit_dot overlay; None if malformed."""
    lines = text.splitlines()
    if not lines or lines[0] != "digraph biposet {" or lines[-1] != "}":
        return None
    solid, dashed = set(), set()
    for line in lines[1:-1]:
        m = _DOT_EDGE.match(line)
        if m:
            (dashed if m.group(3) else solid).add((m.group(1), m.group(2)))
    return solid, dashed


def reduction_edges(bpo: bp.BiPoset, rel) -> set:
    """Transitive reduction by networkx, as label pairs."""
    g = nx.DiGraph()
    g.add_nodes_from(range(bpo.n))
    g.add_edges_from((i, j) for i, j in rel.pairs() if i != j)
    labels = bpo.ground.labels
    return {(labels[i], labels[j]) for i, j in nx.transitive_reduction(g).edges}


def checked_dot(b: Bench, structure: bp.BiPoset) -> str:
    """emit_dot overlay whose edges are checked against networkx's reduction."""
    text = bp.emit_dot(structure, "both")
    b.expect(dot_edges(text) == (reduction_edges(structure, structure.d.r1),
                                 reduction_edges(structure, structure.d.r2)),
             "prepare.dot_vs_networkx")
    return text


def _last_line(text: str) -> str:
    return text.rstrip("\n").rsplit("\n", 1)[-1]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.name


def large_prepare(b: Bench, seed: int) -> dict:
    pow_big = bp.powerset_biposet(POW_K)
    pow_iso = bp.powerset_biposet(ISO_K)
    pow_iso_dual = bp.dual_biposet(pow_iso)
    div_iso = bp.divisibility_biposet(DIV_ISO_K)
    div_adj = bp.divisibility_biposet(DIV_ADJ_K)
    div_cli = bp.divisibility_biposet(CLI_DIV_K)
    size = 1 << POW_K

    self_dual = bp.self_dual_witness(pow_iso)
    b.expect(self_dual is not None and bool(bp.is_isomorphism(self_dual, pow_iso, pow_iso_dual)),
             "prepare.self_dual")
    ident_cli = bp.Mapping.identity(CLI_DIV_K)
    files = {
        "pow_iso": _write(b.work / "pow_iso.bpo", bp.serialize_structure(pow_iso)),
        "div_cli": _write(b.work / "div_cli.bpo", bp.serialize_structure(div_cli)),
        "id_cli": _write(b.work / "id_cli.map", bp.serialize_mapping(
            ident_cli, div_cli.ground, div_cli.ground)),
    }
    return {
        "pow_big": pow_big, "pow_iso": pow_iso, "pow_iso_dual": pow_iso_dual,
        "div_iso": div_iso, "div_adj": div_adj,
        "incl": lambda i, j: (i & ~j) == 0,
        "dual_rows": tuple(sum(1 << j for j in range(size) if (j & ~i) == 0)
                           for i in range(size)),
        "dot_text": checked_dot(b, pow_big),
        "dot_iso_text": checked_dot(b, pow_iso),
        "self_dual": self_dual,
        "self_dual_text": bp.serialize_mapping(self_dual, pow_iso.ground, pow_iso.ground),
        "id_cli_text": (b.work / files["id_cli"]).read_text(encoding="utf-8"),
        "files": files,
    }


def large_inputs(state: dict, rng: random.Random) -> dict:
    perm_sym = list(range(state["pow_iso"].n))
    rng.shuffle(perm_sym)
    perm_rigid = list(range(state["div_iso"].n))
    rng.shuffle(perm_rigid)
    return dict(state, sym=relabelled(state["pow_iso"], perm_sym),
                rigid=relabelled(state["div_iso"], perm_rigid), perm_rigid=tuple(perm_rigid))


def large_pass(b: Bench, inp: dict) -> None:
    pow_big = inp["pow_big"]
    size, top = pow_big.n, pow_big.n - 1

    b.call("core.from_predicate", bp.Rel.from_predicate, size, inp["incl"],
           check=lambda r: r == pow_big.d.r1)
    b.call("constructions.powerset", bp.powerset_biposet, POW_K,
           check=lambda p: p.d == pow_big.d and p.certificate == "valid")
    bare = dataclasses.replace(pow_big, certificate=None)
    b.call("axioms.validated", bp.validated, bare,
           check=lambda p: p.certificate == "valid" and p.d == pow_big.d)
    b.call("axioms.check_axioms_large", bp.check_axioms, pow_big.d, check=lambda v: v.ok)

    b.call("constructions.dual", bp.dual_biposet, pow_big,
           check=lambda d: d.d.r1.rows == inp["dual_rows"] and d.d.r2.rows == inp["dual_rows"])
    b.call("extremal.report", bp.extremal_report, pow_big,
           check=lambda r: r.bounded and (r.x, r.y, r.g_max, r.g_min) == (top,) * 4
           and (r.u, r.v, r.l_max, r.l_min) == (0,) * 4)

    pow_iso, sym = inp["pow_iso"], inp["sym"]
    m = b.call("morphisms.self_dual", bp.self_dual_witness, pow_iso,
               check=lambda f: f == inp["self_dual"])
    if m is not None:
        b.call("morphisms.is_isomorphism", bp.is_isomorphism, m, pow_iso, inp["pow_iso_dual"],
               check=bool)
    m = b.call("morphisms.find_iso_sym", bp.find_isomorphism, pow_iso, sym,
               check=lambda f: f is not None)
    if m is not None:
        b.call("morphisms.is_isomorphism", bp.is_isomorphism, m, pow_iso, sym, check=bool)
    div_iso, rigid = inp["div_iso"], inp["rigid"]
    # divisibility is rigid (r1 is a total order), so the relabelling is the only answer
    m = b.call("morphisms.find_iso_rigid", bp.find_isomorphism, div_iso, rigid,
               check=lambda f: f is not None and f.img == inp["perm_rigid"])
    if m is not None:
        b.call("morphisms.is_isomorphism", bp.is_isomorphism, m, div_iso, rigid, check=bool)

    div_adj = inp["div_adj"]
    ident = bp.Mapping.identity(DIV_ADJ_K)
    b.call("galois.find_adjoint", bp.find_adjoint, ident, div_adj, div_adj,
           check=lambda found: found == [ident])

    text = b.call("io_cli.serialize", bp.serialize_structure, pow_big)
    back = b.call("io_cli.parse", bp.parse_structure, text) if text is not None else None
    if back is not None:
        b.call("io_cli.serialize", bp.serialize_structure, back, check=lambda t: t == text)
    b.call("io_cli.dot", bp.emit_dot, pow_big, "both", check=lambda t: t == inp["dot_text"])

    f = inp["files"]
    with b.subprocesses():
        b.cli("check", ["check", f["pow_iso"]], 0, lambda out: _last_line(out) == "valid")
        b.cli("selfdual", ["selfdual", f["pow_iso"]], 0,
              lambda out: out == inp["self_dual_text"])
        b.cli("dot", ["dot", f["pow_iso"], "--component", "both"], 0,
              lambda out: out == inp["dot_iso_text"])
        b.cli("galois_adjoint", ["galois", "adjoint", f["div_cli"], f["div_cli"], f["id_cli"]],
              0, lambda out: out == inp["id_cli_text"])
        b.cli("hunt", ["hunt", "DUALITY_PRINCIPLE", "--n", "3"], 1,
              _hunt_ok("DUALITY_PRINCIPLE"))
        b.cli("enumerate", ["enumerate", "--n", "3"], 0,
              lambda out: out.count("elements:") == bp.GOLDEN_COUNTS[3])


# ---------------------------------------------------------------------------
# n4: seeded reflexive draws at n=4 through the kernel, duality_sample and the
# per-structure checker; a leading slice of the n=4 enumeration


N4_OFFS = [(i, j) for i in range(N4) for j in range(N4) if i != j]
N4_LABELS = tuple(f"e{i}" for i in range(N4))


def n4_arrays(c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, n, n) relation batches; bit k of a code sets the k-th off-diagonal cell."""
    R1 = np.zeros((len(c1), N4, N4), dtype=bool)
    R2 = np.zeros_like(R1)
    R1[:, range(N4), range(N4)] = True
    R2[:, range(N4), range(N4)] = True
    for k, (i, j) in enumerate(N4_OFFS):
        R1[:, i, j] = (c1 >> k) & 1
        R2[:, i, j] = (c2 >> k) & 1
    return R1, R2


def n4_diamonds(R1: np.ndarray, R2: np.ndarray) -> list[bp.Diamond]:
    """One Diamond per batch entry; row i of a relation has bit j set iff R[i, j]."""
    weights = 1 << np.arange(N4)
    rows1 = (R1 * weights).sum(axis=2).tolist()
    rows2 = (R2 * weights).sum(axis=2).tolist()
    return [bp.Diamond(bp.Rel(N4, tuple(a)), bp.Rel(N4, tuple(c))) for a, c in zip(rows1, rows2)]


def n4_text(d: bp.Diamond) -> str:
    """The .bpo text duality_sample reports, written without the library."""
    lines = ["elements: " + " ".join(N4_LABELS)]
    for prefix, rel in (("r1:", d.r1), ("r2:", d.r2)):
        for i in range(N4):
            lines += [f"{prefix} e{i} e{j}" for j in range(N4) if (rel.rows[i] >> j) & 1]
    return "\n".join(lines) + "\n"


def n4_prepare(b: Bench, seed: int) -> dict:
    return {}


def n4_inputs(state: dict, rng: random.Random) -> dict:
    # the same stream duality_sample(4, N4_DRAWS, draw_seed) draws from
    draw_seed = rng.randrange(1 << 31)
    gen = np.random.default_rng(draw_seed)
    m = N4 * (N4 - 1)
    c1 = gen.integers(0, 1 << m, size=N4_DRAWS, dtype=np.int64)
    c2 = gen.integers(0, 1 << m, size=N4_DRAWS, dtype=np.int64)
    R1, R2 = n4_arrays(c1, c2)
    return {"seed": draw_seed, "R1": R1, "R2": R2, "diamonds": n4_diamonds(R1, R2)}


def _check_batch(b: Bench, diamonds: list) -> list | None:
    return b.call("axioms.check_small", lambda: [bp.check_axioms(d).ok for d in diamonds],
                  count=len(diamonds))


def n4_pass(b: Bench, inp: dict) -> None:
    R1, R2, diamonds = inp["R1"], inp["R2"], inp["diamonds"]
    kernel = b.call("oracle.validity_kernel", bp.validity_kernel, R1, R2, count=N4_DRAWS,
                    check=lambda ok: ok.shape == (N4_DRAWS,))
    verdicts = _check_batch(b, diamonds)
    if kernel is None or verdicts is None:
        return
    mismatched = int(np.count_nonzero(kernel != np.array(verdicts)))
    b.attempted += N4_DRAWS
    if mismatched:
        b.fail("n4.kernel_vs_check_axioms", f"{mismatched} draws disagree", mismatched)
    valid = [z for z in range(N4_DRAWS) if verdicts[z]]
    b.count("draws", N4_DRAWS)
    b.count("valid", len(valid))
    b.count("small_checks", N4_DRAWS)
    b.count("small_invalid", N4_DRAWS - len(valid))

    duals = n4_diamonds(R1[valid].transpose(0, 2, 1), R2[valid].transpose(0, 2, 1))
    dual_ok = _check_batch(b, duals) or []
    b.count("small_checks", len(duals))
    b.count("small_invalid", dual_ok.count(False))
    first_bad = next((z for z, ok in zip(valid, dual_ok) if not ok), None)

    def sample_ok(r):
        first = r["first"]
        return (r["sampled"] == N4_DRAWS and r["valid"] == len(valid)
                and r["dual_invalid"] == dual_ok.count(False)
                and (first is None if first_bad is None
                     else first["structure"] == n4_text(diamonds[first_bad])))

    b.call("oracle.duality_sample", bp.duality_sample, N4, N4_DRAWS, inp["seed"],
           check=sample_ok)

    enum = b.call("oracle.enum4", lambda: list(itertools.islice(bp.enumerate_biposets(N4),
                                                                ENUM4_SLICE)),
                  count=ENUM4_SLICE,
                  check=lambda ds: len(ds) == ENUM4_SLICE
                  and all(a.code < c.code for a, c in zip(ds, ds[1:])))
    if enum is not None:
        enum_ok = _check_batch(b, enum) or []
        b.count("small_checks", len(enum))
        b.count("small_invalid", enum_ok.count(False))
        b.expect(len(enum_ok) == len(enum) and all(enum_ok), "n4.enumerated_valid")

    invalid = next((z for z in range(N4_DRAWS) if not verdicts[z]), None)
    with b.subprocesses():
        for z, rc in ((valid[0] if valid else None, 0), (invalid, 1)):
            if z is not None:
                name = _write(b.work / "draw.bpo", n4_text(diamonds[z]))
                b.cli("check", ["check", name], rc,
                      lambda out, rc=rc: _last_line(out) == ("valid" if rc == 0 else "invalid"))


WORKLOADS = {
    "claims": (claims_prepare, claims_inputs, claims_pass, 1),
    "large": (large_prepare, large_inputs, large_pass, None),
    "n4": (n4_prepare, n4_inputs, n4_pass, None),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(bp.__file__).resolve().is_relative_to(src):
        print(f"biposet imported from {bp.__file__}, not from {src}", file=sys.stderr)
        return 2

    prepare, inputs, run_pass, max_passes = WORKLOADS[args.workload]
    start = time.perf_counter()
    tracer = Tracer(bool(args.trace), f"{args.workload}:{args.seed}:{os.getpid()}")
    speedo = Speedometer()
    b = Bench(tracer, speedo, Path(args.work))
    state = prepare(b, args.seed)
    passes: list[tuple[float, float]] = []
    i = args.first_pass
    speedo.run()
    while not passes or (time.perf_counter() - start < args.seconds
                         and (max_passes is None or len(passes) < max_passes)):
        inp = inputs(state, random.Random(f"{args.workload}:{args.seed}:{i}"))
        tracer.pass_index = i
        gc.collect()            # every pass starts from the same heap state
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            run_pass(b, inp)
        passes.append((t0, time.perf_counter()))
        i += 1
    speedo.hold()

    span_refs = speedo.ref_seconds([(rec["start"], rec["end"]) for rec in tracer.spans])
    for rec, ref in zip(tracer.spans, span_refs):
        rec["ref"] = ref
    cli_refs = speedo.ref_seconds([(t0, t1) for _, t0, t1 in b.cli_calls])
    print(json.dumps({
        "walls": [t1 - t0 for t0, t1 in passes],
        "ref_walls": speedo.ref_seconds(passes),
        "cli_ms": [(cmd, (t1 - t0) * 1e3, ref * 1e3)
                   for (cmd, t0, t1), ref in zip(b.cli_calls, cli_refs)],
        "attempted": b.attempted, "failed": b.failed,
        "failures": b.failures, "counters": b.counters, "spans": tracer.spans,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "networkx": nx.__version__, "biposet": bp.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
